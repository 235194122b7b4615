"""FRW barotropic cosmology in conformal time: the Hubble parameter obeys
the constant-coefficient Riccati equation dH/deta + c H^2 = -k c, which the
fractional scheme turns into the modified equation with free term
-k c eta^(1-delta)/Gamma(2-delta).  Closed and open universes (k = +-1) map
onto the Riccati branches with a = c, b = -k c; the flat case k = 0 is
untouched by the scheme and keeps its classical solution H = 1/(c eta).
CosmoParams carries (k, delta, c); c_of_gamma gives c = (3/2) gamma - 1
from the adiabatic index gamma.  hubble evaluates H for every k, with a
table's pole-row mask on request, scale_factor the ratio R(eta)/R(eta_ref).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchZeroError
from .fracops import _delta_value
from . import riccati

__all__ = [
    "CosmoParams",
    "c_of_gamma",
    "hubble",
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
    """Curvature index k, scheme parameter delta and fluid parameter c."""

    k: int
    delta: float
    c: float

    def __post_init__(self):
        if self.k not in (-1, 0, 1):
            raise ValueError(f"curvature index must be -1, 0 or 1, got {self.k}")
        object.__setattr__(self, "delta", _delta_value(self.delta))
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
        """a = c, b = -k c: the degenerate b = 0 for k = 0, which has no branch."""
        return riccati.RiccatiParams(a=self.c, b=-self.k * self.c, delta=self.delta)


def hubble(cps: list[CosmoParams], branch: int, etas: np.ndarray, scan: bool = False):
    """Hubble parameter on the lattice cps x etas, shape (len(cps),
    len(etas)), and its pole rows; the parameter sets share one k and c.
    With scan, etas is a table's uniform lattice and the pole rows are the
    bool mask of riccati.scanned_table (H nan there); without it None.
    k = 0 has no poles: its mask is all false.

    k = +-1 gives the Riccati branch of a = c, b = -k c (the 1/a prefactor
    cancels): branch 1 the first-kind ratio (J for k = 1, I for k = -1; the
    nondivergent-data branch), which is cot(c eta) and coth(c eta) at
    delta = 1, branch 2 the second-kind one, with poles at the zeros of the
    denominator.  The flat k = 0 is H = 1/(c eta) for every delta, taken as
    (1/c)/eta where c eta overflows; one outside the float range raises
    OverflowError naming its eta.
    """
    if cps[0].k != 0:
        rps = [cp.riccati_params() for cp in cps]
        if scan:
            return riccati.scanned_table(rps, branch, etas)
        return riccati.branch_table(rps, branch, etas)[0], None
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    if not np.all(etas > 0.0):
        raise ValueError(f"conformal time must be positive, got {etas.min()}")
    c = cps[0].c
    with np.errstate(over="ignore", divide="ignore"):
        c_eta = c * etas
        h = 1.0 / c_eta
        # where c eta overflows, 1/(c eta) is subnormal, not 0
        far = np.isinf(c_eta)
        h[far] = (1.0 / c) / etas[far]
    bad = etas[np.isinf(h)]
    if bad.size:
        raise OverflowError(f"H = 1/(c eta) at eta = {float(bad[0])!r} leaves the float range")
    return np.tile(h, (len(cps), 1)), (np.zeros((len(cps), h.size), bool) if scan else None)


def scale_factor(
    cp: CosmoParams, eta: np.ndarray, eta_ref: float, branch: int = 1
) -> np.ndarray:
    """Scale-factor ratios R(eta)/R(eta_ref) at every time of eta, recovered
    from H = (dR/deta)/R in one array pass.

    Through u = y'/(a y) the ratio is (y(eta)/y(eta_ref))^(1/c) with y the
    chosen linear branch; all times must sit in one pole-free interval on
    which y keeps its sign, which riccati.sign_scan over the y values of
    eta and eta_ref ensures.  The flat case integrates H = 1/(c eta)
    directly to (eta/eta_ref)^(1/c).  A ratio outside the float range
    raises OverflowError naming its eta.
    """
    eta_ref = float(eta_ref)
    if not (np.all(eta > 0.0) and eta_ref > 0.0):
        raise ValueError("both times must be positive")
    ts = np.append(eta, eta_ref)
    if cp.k == 0:
        s, e = ts, np.zeros(ts.size)
    else:
        rp = cp.riccati_params()
        s, e = riccati.y_branch_table(rp, branch, ts)
        order = np.argsort(ts)
        if riccati.sign_scan(rp, branch, ts[order], s[order], 1)[0]:
            lo, hi = ts[order[[0, -1]]].tolist()
            raise BranchZeroError(
                f"branch-{branch} linear solution crosses zero inside [{lo}, {hi}]"
            )
    # y = s exp(e) with s free of the exponential growth or decay (the flat
    # case takes y = eta, e = 0).  Where e = e_ref the ratio is
    # (s/s_ref)^(1/c), bit for bit the unscaled one, and exactly 1 at
    # eta = eta_ref; elsewhere it is exp((log(s/s_ref) + e - e_ref)/c), one
    # exponential of the whole log ratio, so a factor alone never leaves the
    # float range.
    s, s_ref, e, e_ref = s[:-1], s[-1], e[:-1], e[-1]
    inv_c = 1.0 / cp.c

    def ratio_at(t: float, q: float, d: float) -> float:
        # q**inv_c is inf without an OverflowError where q or 1/c is (a flat
        # c below 1/max), and 0**inv_c divides by zero for c < 0
        try:
            ratio = q**inv_c if d == 0.0 else math.exp((math.log(q) + d) / cp.c)
            if ratio < math.inf:
                return ratio
        except (OverflowError, ZeroDivisionError):
            pass
        raise OverflowError(f"the scale-factor ratio at eta = {t!r} leaves the float range")

    with np.errstate(over="ignore"):
        return np.array([
            ratio_at(t, q, d)
            for t, q, d in zip(eta.tolist(), (s / s_ref).tolist(), (e - e_ref).tolist())
        ])
