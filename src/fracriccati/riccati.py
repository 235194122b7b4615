"""Closed-form solutions of the delta-modified Riccati equation

    u'(x) + a u(x)^2 = b x^(1-delta) / Gamma(2-delta),  a != 0,

obtained through the associated linear equation y'' = (ab/Gamma(2-delta))
x^(1-delta) y and its Bessel solutions y = sqrt(x) B_n(q x^r).  The two
distinguished branches are ratios of neighbouring-order Bessel functions:
first kind (J or I) for branch 1, second kind (Y or K) for branch 2.  The
regime is fixed by sign(a*b): oscillatory (J/Y) for a*b < 0, modified (I/K)
for a*b > 0; b = 0 degenerates and is refused here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegimeError, ScanBudgetError
from .fracops import _delta_value, frac_const
from . import specfun

__all__ = [
    "Regime",
    "RiccatiParams",
    "BesselMap",
    "SolutionEval",
    "map_params",
    "eval_u1",
    "eval_u2",
    "branch_table",
    "eval_y_branch",
    "y_branch_table",
    "residual",
    "find_poles",
]

OSCILLATORY = "oscillatory"
MODIFIED = "modified"
DEGENERATE = "degenerate"
Regime = str

# pole threshold (oscillatory regime): |B_n| below this relative scale marks
# a solution pole
_POLE_RTOL = 1e-12
# most sign-scan cells one find_poles call may allocate: a Bessel-argument
# span of about 39 000, far past the 10-digit domain (argument <= ~100)
_MAX_SCAN_CELLS = 100_000


@dataclass(frozen=True)
class RiccatiParams:
    """Coefficients of u' + a u^2 = b plus the scheme parameter delta."""

    a: float
    b: float
    delta: float

    def __post_init__(self):
        if self.a == 0.0:
            raise ValueError("Riccati coefficient a must be nonzero")
        object.__setattr__(self, "delta", _delta_value(self.delta))


@dataclass(frozen=True)
class BesselMap:
    """Parameters (q, r, n) of the linear-equation template y = x^p B_n(q x^r)
    plus regime.  The template's p = 1/2 equals n*r (r = (3-delta)/2,
    n = 1/(3-delta)); the solution formulas rely on that cancellation.
    """

    q_mag: float
    r: float
    n: float
    regime: Regime


def map_params(rp: RiccatiParams) -> BesselMap:
    """Map Riccati coefficients to the Bessel-template parameters."""
    d = rp.delta
    r = 0.5 * (3.0 - d)
    n = 1.0 / (3.0 - d)
    ab = rp.a * rp.b
    if rp.b == 0.0:
        return BesselMap(0.0, r, n, DEGENERATE)
    q_mag = (2.0 / (3.0 - d)) * math.sqrt(abs(ab) / specfun.gamma(2.0 - d))
    regime = OSCILLATORY if ab < 0.0 else MODIFIED
    return BesselMap(q_mag, r, n, regime)


@dataclass(frozen=True)
class SolutionEval:
    """One closed-form branch value; value is nan when pole_flag is set."""

    value: float
    pole_flag: bool


def _kind(bm: BesselMap, branch: int) -> tuple[str, float]:
    """(Bessel kind, sign entering y'/y) of the branch; K alone flips it."""
    if bm.regime == OSCILLATORY:
        return ("J" if branch == 1 else "Y"), 1.0
    return ("I", 1.0) if branch == 1 else ("K", -1.0)


def _check_regime(bm: BesselMap) -> None:
    if bm.regime == DEGENERATE:
        raise DegenerateRegimeError(
            "b = 0 has no Bessel-ratio branch; the flat-case solution "
            "u = 1/(a(x - C)) lives in the cosmology module"
        )


def _eval_branch(rp: RiccatiParams, branch: int, x: float) -> SolutionEval:
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"Riccati branch evaluation requires x > 0, got {x}")
    bm = map_params(rp)
    _check_regime(bm)
    kind, sign = _kind(bm, branch)
    z = bm.q_mag * x**bm.r
    num = specfun.bessel_scaled(kind, bm.n - 1.0, z)[0]
    den = specfun.bessel_scaled(kind, bm.n, z)[0]
    if bm.regime == OSCILLATORY and abs(den) < _POLE_RTOL * (abs(num) + 1.0):
        return SolutionEval(math.nan, True)
    prefactor = bm.q_mag * bm.r * x ** (bm.r - 1.0) / rp.a
    return SolutionEval(sign * prefactor * num / den, False)


def branch_table(
    rps: list[RiccatiParams], branch: int, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The chosen branch on the lattice rps x xs in one array pass.

    Returns (value, pole_flag) arrays of shape (len(rps), len(xs)), each
    element bit-identical to eval_u1/eval_u2 at that point.  The parameter
    sets must share one regime (a figure surface varies delta only).  The
    Bessel ratio is taken from specfun.bessel_scaled, so a modified-regime
    ratio neither overflows nor underflows, and, I_n and K_n being
    positive, is never flagged as a pole.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError(f"Riccati branch evaluation requires x > 0, got {xs.min()}")
    bms = [map_params(rp) for rp in rps]
    for bm in bms:
        _check_regime(bm)
    if len({bm.regime for bm in bms}) != 1:
        raise ValueError("branch_table needs parameter sets of one regime")
    kind, sign = _kind(bms[0], branch)

    def column(values):
        return np.array(values, dtype=float)[:, None]

    q, r, n = (column([getattr(bm, f) for bm in bms]) for f in ("q_mag", "r", "n"))
    x = xs[None, :]
    z = q * specfun.power(x, r)
    num, den = specfun.bessel_scaled(kind, np.stack([n - 1.0, n]), z)[0]
    pole = (bms[0].regime == OSCILLATORY) & (np.abs(den) < _POLE_RTOL * (np.abs(num) + 1.0))
    prefactor = q * r * specfun.power(x, r - 1.0) / column([rp.a for rp in rps])
    value = np.full(pole.shape, math.nan)
    np.divide(sign * prefactor * num, den, out=value, where=~pole)
    return value, pole


def eval_u1(rp: RiccatiParams, x: float) -> SolutionEval:
    """Branch-1 solution u1 = (1/a) q r x^(r-1) B_(n-1)(q x^r)/B_n(q x^r),
    B = J in the oscillatory regime and I in the modified one."""
    return _eval_branch(rp, 1, x)


def eval_u2(rp: RiccatiParams, x: float) -> SolutionEval:
    """Branch-2 solution built from the second-kind functions: Y in the
    oscillatory regime, K (with the sign flipped by K' = -K_(n-1) - (n/z)K_n)
    in the modified one."""
    return _eval_branch(rp, 2, x)


def _yprime_forms(rp: RiccatiParams, branch: int, x: float) -> tuple[float, float, float]:
    """(y, y' by the lower-order form, y' by the upper-order form)."""
    bm = map_params(rp)
    _check_regime(bm)
    z = bm.q_mag * x**bm.r
    kind = _kind(bm, branch)[0]
    b_n = specfun.bessel(kind, bm.n, z)
    b_lo = specfun.bessel(kind, bm.n - 1.0, z)
    b_hi = specfun.bessel(kind, bm.n + 1.0, z)
    y = math.sqrt(x) * b_n
    qrx = bm.q_mag * bm.r * x ** (bm.r - 1.0)
    nr_over_x = bm.n * bm.r / x
    p_over_x = 0.5 / x
    if kind in ("J", "Y"):
        # y'/y = (p - nr)/x + qr x^(r-1) B_(n-1)/B_n, the p - nr = 0 form
        d_lo = y * qrx * (b_lo / b_n)
        d_hi = y * (p_over_x + nr_over_x - qrx * (b_hi / b_n))
    elif kind == "I":
        d_lo = y * qrx * (b_lo / b_n)
        d_hi = y * (p_over_x + nr_over_x + qrx * (b_hi / b_n))
    else:  # K
        d_lo = y * (-qrx) * (b_lo / b_n)
        d_hi = y * (p_over_x + nr_over_x - qrx * (b_hi / b_n))
    return y, d_lo, d_hi


def eval_y_branch(rp: RiccatiParams, branch: int, x: float) -> tuple[float, float]:
    """Linear-equation branch y = sqrt(x) B_n(q x^r) and its derivative.

    y' uses the form in which p - nr cancels; the alternative recurrence form
    is evaluated as a cross-check and a warning is emitted if they disagree.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"eval_y_branch requires x > 0, got {x}")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    y, d_lo, d_hi = _yprime_forms(rp, branch, x)
    # scale by the magnitude of the terms entering the forms, not by y' itself,
    # which legitimately passes through zero
    scale = abs(d_lo) + abs(d_hi) + abs(y) / x + 1e-300
    if abs(d_lo - d_hi) > 1e-6 * scale:
        warnings.warn(
            f"eval_y_branch: derivative recurrence forms disagree at x={x} "
            f"({d_lo} vs {d_hi})",
            stacklevel=2,
        )
    return y, d_lo


def y_branch_table(
    rp: RiccatiParams, branch: int, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """y = sqrt(x) B_n(q x^r) of the chosen linear branch at every x in one
    array pass, split as y = s * exp(e) by specfun.bessel_scaled; returns
    (s, e).  Where e = 0, s is the y that eval_y_branch returns, bit for bit."""
    bm = map_params(rp)
    _check_regime(bm)
    kind = _kind(bm, branch)[0]
    s, e = specfun.bessel_scaled(kind, bm.n, bm.q_mag * specfun.power(xs, bm.r))
    return np.sqrt(xs) * s, e


def residual(rp: RiccatiParams, x: float, u: float, u_prime: float) -> float:
    """Defect u' + a u^2 - b x^(1-delta)/Gamma(2-delta) of a candidate value."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"residual requires x > 0, got {x}")
    return u_prime + rp.a * u * u - frac_const(rp.b, rp.delta, x)


def find_poles(
    rp: RiccatiParams,
    x_lo: float,
    x_hi: float,
    branch: int = 1,
    settled=None,
) -> list[float]:
    """All poles of the chosen branch in [x_lo, x_hi], in ascending order:
    zeros of the denominator Bessel function, bracketed by a sign scan in
    the (monotone) Bessel argument and bisected to 1e-12 relative.

    The sign scan evaluates the denominator on its whole lattice in one array
    call; each sign change is then bisected with scalar calls.  settled(lo,
    hi), when given, stops a bisection early and the bracket midpoint is
    returned; the bisection steps do not depend on it, so the 1e-12 zero
    lies inside every bracket that settled sees.

    The modified regime has none (I_n, K_n > 0 on x > 0): empty list.
    A span that needs more than _MAX_SCAN_CELLS scan cells raises
    ScanBudgetError before anything is evaluated.
    """
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    if not 0.0 < x_lo < x_hi:
        raise ValueError(f"need 0 < x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    bm = map_params(rp)
    if bm.regime != OSCILLATORY:
        return []
    kind = _kind(bm, branch)[0]

    def den(x):
        return specfun.bessel(kind, bm.n, bm.q_mag * specfun.power(x, bm.r))

    # zeros of B_n(z) are simple and at least ~pi apart asymptotically; an
    # eighth-of-pi scan in z cannot skip a pair
    z_lo = bm.q_mag * x_lo**bm.r
    z_hi = bm.q_mag * x_hi**bm.r
    cells = (z_hi - z_lo) / (math.pi / 8.0)
    if not cells <= _MAX_SCAN_CELLS:
        raise ScanBudgetError(
            f"pole search of [{x_lo}, {x_hi}] needs {cells:.4g} scan cells, "
            f"over the budget of {_MAX_SCAN_CELLS}"
        )
    n_steps = max(8, int(cells) + 1)
    z = z_lo + (z_hi - z_lo) * np.arange(1, n_steps + 1) / n_steps
    xs = np.concatenate(([x_lo], specfun.power(z / bm.q_mag, 1.0 / bm.r)))
    xs[-1] = x_hi
    fs = den(xs)
    starts = np.flatnonzero((fs == 0.0) | np.append(fs[:-1] * fs[1:] < 0.0, False))
    xs, fs = xs.tolist(), fs.tolist()
    poles = []
    for i in starts.tolist():
        lo, flo = xs[i], fs[i]
        hi = lo if flo == 0.0 else xs[i + 1]
        while hi - lo > 1e-12 * hi and not (settled and settled(lo, hi)):
            mid = 0.5 * (lo + hi)
            fmid = den(mid)
            if fmid == 0.0:
                lo = hi = mid
            elif flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        poles.append(0.5 * (lo + hi))
    return poles
