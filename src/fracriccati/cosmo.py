"""FRW barotropic cosmology in conformal time: the Hubble parameter obeys
the constant-coefficient Riccati equation dH/deta + c H^2 = -k c, which the
fractional scheme turns into the modified equation with free term
-k c eta^(1-delta)/Gamma(2-delta).  Closed and open universes (k = +-1) map
onto the Riccati branches with a = c, b = -k c; the flat case k = 0 is
untouched by the scheme and keeps its classical solution H = 1/(c eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchZeroError, FlatCaseError
from .fracops import _delta_value
from . import riccati

__all__ = [
    "CosmoParams",
    "HubbleEval",
    "c_of_gamma",
    "hubble",
    "hubble_flat",
    "scale_factor",
]


def c_of_gamma(gamma_index: float) -> float:
    """Riccati coefficient from the adiabatic index: c = (3/2) gamma - 1.

    gamma = 4/3 (radiation) gives c = 1; gamma = 1 (dust) gives c = 1/2;
    gamma = 2/3 gives c = 0, which downstream constructors reject.
    """
    return 1.5 * float(gamma_index) - 1.0


@dataclass(frozen=True)
class CosmoParams:
    """Curvature index k, scheme parameter delta, and the fluid parameter
    given either as c directly or through the adiabatic index gamma."""

    k: int
    delta: float
    c: float | None = None
    gamma_index: float | None = None

    def __post_init__(self):
        if self.k not in (-1, 0, 1):
            raise ValueError(f"curvature index must be -1, 0 or 1, got {self.k}")
        object.__setattr__(self, "delta", _delta_value(self.delta))
        if self.c is None and self.gamma_index is None:
            raise ValueError("provide c or gamma_index")
        if self.c is None:
            object.__setattr__(self, "c", c_of_gamma(self.gamma_index))
        elif self.gamma_index is not None:
            implied = c_of_gamma(self.gamma_index)
            if abs(self.c - implied) > 1e-12:
                raise ValueError(
                    f"inconsistent inputs: c={self.c} but gamma implies {implied}"
                )
        if self.c == 0.0:
            raise ValueError(
                "c = 0 rejected: the Riccati coefficient a = c would vanish"
            )
        if self.k != 0 and not 0.0 < self.c * self.c < math.inf:
            raise ValueError(
                f"c = {self.c!r}: the product a*b = -k c^2 of the Riccati "
                "coefficients is not a finite nonzero float"
            )

    def riccati_params(self) -> riccati.RiccatiParams:
        if self.k == 0:
            raise FlatCaseError("k = 0 has no delta-modified Riccati map")
        return riccati.RiccatiParams(a=self.c, b=-self.k * self.c, delta=self.delta)


@dataclass(frozen=True)
class HubbleEval:
    """Hubble parameter sample; delta_applied is False on the flat branch."""

    eta: float
    H: float
    branch: int
    pole_flag: bool
    delta_applied: bool = True


def hubble(cp: CosmoParams, eta: float, branch: int = 1) -> HubbleEval:
    """delta-modified Hubble parameter for k = +-1.

    Branch 1 is the first-kind ratio (J for k = 1, I for k = -1; the
    nondivergent-data branch), branch 2 the second-kind one.  With a = c and
    b = -k c the 1/a prefactor cancels, so H equals the Riccati branch value.
    At delta = 1 branch 1 collapses to cot(c eta) and coth(c eta).
    """
    eta = float(eta)
    if not eta > 0.0:
        raise ValueError(f"conformal time must be positive, got {eta}")
    if cp.k == 0:
        raise FlatCaseError("k = 0 is outside the modified family; use hubble_flat")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    rp = cp.riccati_params()
    ev = riccati.eval_u1(rp, eta) if branch == 1 else riccati.eval_u2(rp, eta)
    return HubbleEval(eta, ev.value, branch, ev.pole_flag)


def hubble_flat(cp: CosmoParams, eta: float | np.ndarray) -> HubbleEval:
    """Classical flat-universe solution H = 1/(c eta) of dH/deta + c H^2 = 0,
    integration constant fixed so H diverges as eta -> 0+ like the curved
    branch-1 solutions; tagged as untouched by delta.

    An ndarray eta gives eta and H as arrays of the same shape."""
    eta = eta if isinstance(eta, np.ndarray) else float(eta)
    if not np.all(eta > 0.0):
        raise ValueError(f"conformal time must be positive, got {eta}")
    if cp.k != 0:
        raise ValueError(f"hubble_flat needs k = 0, got k = {cp.k}")
    return HubbleEval(eta, 1.0 / (cp.c * eta), 1, False, delta_applied=False)


def scale_factor(
    cp: CosmoParams, eta: float | np.ndarray, eta_ref: float, branch: int = 1
) -> float | np.ndarray:
    """Scale-factor ratio R(eta)/R(eta_ref) recovered from H = (dR/deta)/R.

    Through u = y'/(a y) the ratio is (y(eta)/y(eta_ref))^(1/c) with y the
    chosen linear branch; both times must sit in one pole-free interval on
    which y keeps its sign.  The flat case integrates H = 1/(c eta) directly
    to (eta/eta_ref)^(1/c).

    An ndarray eta gives the ratios at all its times from one array pass,
    with one pole check over the span of eta and eta_ref.  A ratio outside
    the float range raises OverflowError naming its eta.
    """
    if isinstance(eta, np.ndarray):
        return _scale_factors(cp, eta, float(eta_ref), branch)
    return float(_scale_factors(cp, np.array([float(eta)]), float(eta_ref), branch)[0])


def _scale_factors(
    cp: CosmoParams, eta: np.ndarray, eta_ref: float, branch: int
) -> np.ndarray:
    """scale_factor at every element of eta."""
    if not (np.all(eta > 0.0) and eta_ref > 0.0):
        raise ValueError("both times must be positive")
    if cp.k == 0:
        s, e = np.append(eta, eta_ref), np.zeros(eta.size + 1)
    else:
        rp = cp.riccati_params()
        lo, hi = min(float(eta.min()), eta_ref), max(float(eta.max()), eta_ref)
        if lo < hi and riccati.find_poles(rp, lo, hi, branch):
            raise BranchZeroError(
                f"branch-{branch} linear solution crosses zero inside [{lo}, {hi}]"
            )
        s, e = riccati.y_branch_table(rp, branch, np.append(eta, eta_ref))
    # y = s exp(e) with s free of the exponential growth or decay (the flat
    # case takes y = eta, e = 0): the signs are those of s.  Where e = e_ref
    # the ratio is (s/s_ref)^(1/c), bit for bit the unscaled one; elsewhere
    # it is exp((log(s/s_ref) + e - e_ref)/c), one exponential of the whole
    # log ratio, so a factor alone never leaves the float range.
    s, s_ref, e, e_ref = s[:-1], s[-1], e[:-1], e[-1]
    moving = eta != eta_ref
    flips = moving & ((s == 0.0) | (s_ref == 0.0) | ((s > 0.0) != (s_ref > 0.0)))
    if flips.any():
        raise BranchZeroError(
            f"branch-{branch} linear solution changes sign between "
            f"{eta_ref} and {eta[flips][0]}"
        )
    inv_c = 1.0 / cp.c

    def ratio_at(t: float, q: float, d: float) -> float:
        try:
            return q**inv_c if d == 0.0 else math.exp((math.log(q) + d) / cp.c)
        except OverflowError:
            raise OverflowError(
                f"the scale-factor ratio at eta = {t!r} leaves the float range"
            ) from None

    ratio = np.ones_like(s)
    ratio[moving] = [
        ratio_at(t, q, d)
        for t, q, d in zip(
            eta[moving].tolist(), (s[moving] / s_ref).tolist(), (e[moving] - e_ref).tolist()
        )
    ]
    return ratio
