"""Closed-form solutions of the delta-modified Riccati equation

    u'(x) + a u(x)^2 = b x^(1-delta) / Gamma(2-delta),  a != 0,

obtained through the associated linear equation y'' = (ab/Gamma(2-delta))
x^(1-delta) y and its Bessel solutions y = sqrt(x) B_n(q x^r).  The two
distinguished branches are ratios of neighbouring-order Bessel functions:
first kind (J or I) for branch 1, second kind (Y or K) for branch 2.  The
regime is fixed by sign(a*b): oscillatory (J/Y) for a*b < 0, modified (I/K)
for a*b > 0; b = 0 degenerates and is refused here.

Every closed-form value comes from one lattice evaluation (_lattice) of
parameter sets times points: u from branch_table and y from y_branch_table,
one point being a one-point grid.  Every yes/no pole question is one
sign_scan over the denominator values that the caller's own lattice already
holds (tables, riccati verify, cosmo.scale_factor); find_poles, for callers
that need the zero positions, locates each bracket's zero with a few
Illinois regula-falsi calls of specfun's scalar kernels and replays the
1e-12 bisection from it: only midpoints within _REPLAY_MARGIN of the located
zero in z call the kernel, the rest take its side, so every printed zero
keeps the bits of the plain bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegimeError, ScanBudgetError
from .fracops import _delta_value, frac_const
from . import specfun

__all__ = [
    "Regime",
    "RiccatiParams",
    "BesselMap",
    "map_params",
    "branch_table",
    "y_branch_table",
    "residual",
    "find_poles",
]

OSCILLATORY = "oscillatory"
MODIFIED = "modified"
DEGENERATE = "degenerate"
Regime = str

# sign-scan node spacing in z = q x^r: zeros of J_n and Y_n, 1/3 < n <= 1/2,
# lie at least 3.11 apart (tending to pi, DLMF 10.21), so no gap holds two
_SCAN_STEP = math.pi / 8.0
# most sign-scan cells one pole search may allocate: a Bessel-argument span
# of about 39 000, far past the 10-digit domain (argument <= ~100)
_MAX_SCAN_CELLS = 100_000
# find_poles' bisection midpoints farther than this from the located zero in
# z take its side with no call: ten times the computed denominator's
# round-off band, about 1e-10 in z at the 10-digit contract
_REPLAY_MARGIN = 1e-9
# most Illinois regula-falsi calls that locating one zero may take
_LOCATE_CALLS = 16


@dataclass(frozen=True)
class RiccatiParams:
    """Coefficients of u' + a u^2 = b plus the scheme parameter delta."""

    a: float
    b: float
    delta: float

    def __post_init__(self):
        if self.a == 0.0:
            raise ValueError("Riccati coefficient a must be nonzero")
        ab = self.a * self.b
        if self.b != 0.0 and not 0.0 < abs(ab) < math.inf:
            raise ValueError(
                f"coefficients a = {self.a!r}, b = {self.b!r}: the product "
                f"a*b = {ab!r} is not a finite nonzero float"
            )
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


def _kind(bm: BesselMap, branch: int) -> tuple[str, float]:
    """(Bessel kind, sign entering y'/y) of the branch; K alone flips it."""
    if bm.regime == OSCILLATORY:
        return ("J" if branch == 1 else "Y"), 1.0
    return ("I", 1.0) if branch == 1 else ("K", -1.0)


# z/2 must not round to 0 either: the series take (z/2)^nu at nu < 0 too
def _underflow_message(x: float) -> str:
    return f"x = {x} is too close to 0: the Bessel argument q x^r underflows to 0"


def _overflow_message(x: float) -> str:
    return f"x = {x} is too large: the Bessel argument q x^r overflows"


def _lattice(rps: list[RiccatiParams], branch: int, xs, orders=(-1.0, 0.0)):
    """The one evaluation of the closed forms, on the lattice rps x xs.

    Maps every parameter set once, forms z = q x^r and the signed factor
    sign q r x^(r-1) of y'/y (shape (len(rps), len(xs))), and takes
    B_(n+k)(z) for each k of orders (by default B_(n-1) and B_n) of the
    branch's Bessel kind from one specfun.bessel_scaled call.  Returns
    (signed factor, s, e) with B = s exp(e), stacked over orders.
    The parameter sets must share one regime (a figure surface varies delta
    only).
    """
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError(f"Riccati branch evaluation requires x > 0, got {xs.min()}")
    bms = [map_params(rp) for rp in rps]
    if any(bm.regime == DEGENERATE for bm in bms):
        raise DegenerateRegimeError(
            "b = 0 has no Bessel-ratio branch; the flat-case solution "
            "u = 1/(a(x - C)) lives in the cosmology module"
        )
    if len({bm.regime for bm in bms}) != 1:
        raise ValueError("branch_table needs parameter sets of one regime")
    kind, sign = _kind(bms[0], branch)
    q, r, n = np.array([(bm.q_mag, bm.r, bm.n) for bm in bms]).T[:, :, None]
    x = xs[None, :]
    with np.errstate(over="ignore"):
        try:
            z = q * specfun.power(x, r)
        except OverflowError:  # x^r itself leaves the float range
            z = np.array(math.inf)
    if not np.all(0.5 * z > 0.0):
        raise ValueError(_underflow_message(xs.min()))
    if not np.all(z < math.inf):
        raise ValueError(_overflow_message(xs.max()))
    s, e = specfun.bessel_scaled(kind, np.stack([n + k for k in orders]), z)
    return sign * q * r * specfun.power(x, r - 1.0), s, e


def branch_table(rps: list[RiccatiParams], branch: int, xs: np.ndarray):
    """The chosen branch u = (1/a) sign q r x^(r-1) B_(n-1)(q x^r)/B_n(q x^r)
    on the lattice rps x xs, shape (len(rps), len(xs)), and its denominator:
    the s of specfun.bessel_scaled for B_n, with the sign of B_n (for J and
    Y the bits of B_n).  The parameter sets must share one regime.  A ratio
    of s values neither overflows nor underflows.  The value is nan only
    where the denominator is exactly 0; within round-off of a zero it is
    round-off (branch 1 at the float pi of a = 1, b = -1, delta = 1 is about
    9e15): callers pass the denominator to sign_scan to find poles.  A value
    past the float range is +-inf, with no warning.
    """
    factor, s, _ = _lattice(rps, branch, xs)
    num, den = s
    a = np.array([rp.a for rp in rps], dtype=float)[:, None]
    value = np.full(den.shape, math.nan)
    with np.errstate(over="ignore"):
        np.divide(factor / a * num, den, out=value, where=den != 0.0)
    return value, den


def y_branch_table(
    rp: RiccatiParams, branch: int, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """y = sqrt(x) B_n(q x^r) of the chosen linear branch at every x in one
    array pass, split as y = s * exp(e) by specfun.bessel_scaled; returns
    (s, e).  Where e = 0, s is y itself."""
    _, s, e = _lattice([rp], branch, xs, orders=(0.0,))
    return np.sqrt(xs) * s[0, 0], e[0, 0]


def residual(rp: RiccatiParams, x, u, u_prime):
    """Defect u' + a u^2 - b x^(1-delta)/Gamma(2-delta) of candidate values
    at x > 0: floats, or ndarrays elementwise."""
    return u_prime + rp.a * u * u - frac_const(rp.b, rp.delta, x)


def sign_scan(rp: RiccatiParams, branch: int, xs: np.ndarray, fs: np.ndarray, min_steps: int):
    """Brackets of the zeros of the denominator B_n(q x^r) from its signs at
    the ascending nodes xs (values fs, nan where unknown), each gap cut into
    max(min_steps, int(width in z / _SCAN_STEP) + 1) steps uniform in z; the
    unknown and new nodes take one array call.  Returns ([(lo, hi, f_lo,
    f_hi)], den), lo = hi at an exact zero, den the denominator of x;
    ([], None) in the modified regime (I_n, K_n > 0).  An end whose z leaves
    the float range (ValueError) or a span over _MAX_SCAN_CELLS cells
    (ScanBudgetError) raises before any evaluation.

    The one pole rule: fs may be any values of the denominator's sign (a
    table's or riccati verify's denominator row, cosmo.scale_factor's
    y = sqrt(x) B_n), and every sign change or exact zero among the nodes
    is a bracket.
    """
    bm = map_params(rp)
    if bm.regime != OSCILLATORY:
        return [], None
    kind = _kind(bm, branch)[0]

    def den(x):
        return specfun.bessel(kind, bm.n, bm.q_mag * specfun.power(x, bm.r))

    x_lo, x_hi = float(xs[0]), float(xs[-1])
    try:
        z_lo, z_hi = bm.q_mag * x_lo**bm.r, bm.q_mag * x_hi**bm.r
    except OverflowError:
        raise ValueError(_overflow_message(x_hi)) from None
    if not 0.5 * z_lo > 0.0:
        raise ValueError(_underflow_message(x_lo))
    cells = (z_hi - z_lo) / _SCAN_STEP
    if not cells <= _MAX_SCAN_CELLS:
        raise ScanBudgetError(
            f"pole search of [{x_lo}, {x_hi}] needs {cells:.4g} scan cells, "
            f"over the budget of {_MAX_SCAN_CELLS}"
        )
    # inner nodes' z only places the new nodes: numpy's power serves there
    z = np.concatenate(([z_lo], bm.q_mag * np.power(xs[1:-1], bm.r), [z_hi]))
    steps = np.maximum(min_steps, ((z[1:] - z[:-1]) / _SCAN_STEP).astype(int) + 1)
    # node i of xs goes to place[i]; the steps - 1 new nodes of gap i follow it
    place = np.append(0, np.cumsum(steps))
    nodes, values = np.full((2, place[-1] + 1), math.nan)
    nodes[place], values[place] = xs, fs
    new = np.flatnonzero(np.isnan(nodes))
    gap = np.repeat(np.arange(steps.size), steps - 1)
    z_new = z[gap] + (z[gap + 1] - z[gap]) * (new - place[gap]) / steps[gap]
    nodes[new] = specfun.power(z_new / bm.q_mag, 1.0 / bm.r)
    todo = np.isnan(values)
    values[todo] = den(nodes[todo])
    starts = np.flatnonzero((values == 0.0) | np.append(values[:-1] * values[1:] < 0.0, False))
    ends = starts + (values[starts] != 0.0)  # an exact zero is its own bracket
    cols = [v.tolist() for v in (nodes[starts], nodes[ends], values[starts], values[ends])]
    return list(zip(*cols)), den


def find_poles(rp: RiccatiParams, x_lo: float, x_hi: float, branch: int = 1) -> list[float]:
    """All poles of the chosen branch in [x_lo, x_hi], in ascending order:
    zeros of the denominator Bessel function, bracketed by sign_scan in at
    least 8 steps and bisected to 1e-12 relative.  None in the modified
    regime; a span over _MAX_SCAN_CELLS scan cells raises ScanBudgetError
    before anything is evaluated.  For the zero positions (riccati poles,
    the acceptance suite); whether a span holds a pole is sign_scan's answer
    on the caller's own values.

    Each bracket's zero of the computed denominator is first located by
    _locate_zero.  The bisection then runs as if alone, but a midpoint whose
    z = q x^r lies farther than _REPLAY_MARGIN from the located zero's z
    takes that zero's side with no scalar call; only midpoints inside the
    margin call the denominator.  Wherever the computed denominator's sign
    outside the margin matches the side, the midpoints, and so the printed
    0.5 (lo + hi), are those of the plain bisection.  A bracket with no
    located zero (an exact zero, lo = hi, or a regula falsi that left the
    bracket or did not converge) calls the denominator at every midpoint.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not 0.0 < x_lo < x_hi:
        raise ValueError(f"need 0 < x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    brackets, den = sign_scan(rp, branch, np.array([x_lo, x_hi]), np.full(2, math.nan), 8)
    if not brackets:
        return []
    bm = map_params(rp)

    def z_of(x):
        return bm.q_mag * x**bm.r

    poles = []
    for lo, hi, flo, fhi in brackets:
        root = _locate_zero(den, z_of, lo, hi, flo, fhi) if lo < hi else None
        z_root = None if root is None else z_of(root)
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if z_root is None or abs(z_of(mid) - z_root) <= _REPLAY_MARGIN:
                fmid = den(mid)
            else:
                fmid = flo if mid < root else -flo
            if fmid == 0.0:
                lo = hi = mid
            elif flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        poles.append(0.5 * (lo + hi))
    return poles


def _locate_zero(den, z_of, lo, hi, flo, fhi):
    """x of the zero of den in the bracket (lo, hi) with f values of opposite
    signs, by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the
    secant point replaces the end of its sign, and an end kept twice in a
    row has its value halved.  Done when the bracket is within a tenth of
    _REPLAY_MARGIN in z, den is exactly 0, or the secant point rounds onto
    an end; None when the point leaves the bracket (a non-finite value) or
    after _LOCATE_CALLS calls.
    """
    kept = 0  # the end kept by the last step: -1 lo, +1 hi
    for _ in range(_LOCATE_CALLS):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if x == lo or x == hi:
            return x
        if not lo < x < hi:
            return None
        fx = den(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1
        else:
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5
            kept = 1
        if z_of(hi) - z_of(lo) <= 0.1 * _REPLAY_MARGIN:
            return x
    return None
