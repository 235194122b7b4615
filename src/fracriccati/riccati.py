"""Closed-form solutions of the delta-modified Riccati equation

    u'(x) + a u(x)^2 = b x^(1-delta) / Gamma(2-delta),  a != 0,

obtained through the associated linear equation y'' = (ab/Gamma(2-delta))
x^(1-delta) y and its Bessel solutions y = sqrt(x) B_n(q x^r).  The two
distinguished branches are ratios of neighbouring-order Bessel functions:
first kind (J or I) for branch 1, second kind (Y or K) for branch 2.  The
regime is fixed by sign(a*b): oscillatory (J/Y) for a*b < 0, modified (I/K)
for a*b > 0; b = 0 degenerates and is refused here.

Every closed-form value comes from one checked lattice (_checked_lattice)
of parameter sets times points: u from branch_table and y from
y_branch_table, one point being a one-point grid.  Every yes/no pole
question is one sign-scan rule (_scan_nodes places the nodes, _brackets
reads the sign changes).  riccati verify and cosmo.scale_factor pass
sign_scan the denominator values their own lattice already holds; a table
takes its values, its scan and the cuts of its brackets in the node gaps
of estimated zeros from one Bessel call (scanned_table), which also owns
the half-step pole-row rule: the window of pole_window, and the mask of the
lattice points within half a step of a zero.  find_poles, for
callers that need the zero positions, locates each bracket's zero with a
few Illinois regula-falsi calls of specfun's scalar kernels and replays the
1e-12 bisection from it: only midpoints within _REPLAY_MARGIN of the located
zero in z call the kernel, the rest take its side, so every printed zero
keeps the bits of the plain bisection.
"""

from __future__ import annotations

import bisect
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
    "pole_window",
    "scanned_table",
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
# no zero of J_n or Y_n, 1/3 < n <= 1/2, lies below this z (the first zero
# of Y_n tends to 1.3530 as n -> 1/3)
_FIRST_ZERO_Z = 1.35
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


def _checked_lattice(rps: list[RiccatiParams], branch: int, xs: np.ndarray):
    """The mapped, checked lattice rps x xs: maps every parameter set once
    and forms z = q x^r (shape (len(rps), len(xs))), refusing a branch
    other than 1 or 2, an x <= 0, the degenerate b = 0, mixed regimes and
    a z whose half underflows or that overflows.  Returns (bms, kind, sign,
    q, r, n, z), q, r and n as columns."""
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
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
    # an x^r that underflows to 0 times a q that overflowed (|ab| near the
    # float maximum) is nan, which the underflow check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            z = q * specfun.power(xs[None, :], r)
        except OverflowError:  # x^r itself leaves the float range
            z = np.array(math.inf)
    if not np.all(0.5 * z > 0.0):
        raise ValueError(_underflow_message(xs.min()))
    if not np.all(z < math.inf):
        raise ValueError(_overflow_message(xs.max()))
    return bms, kind, sign, q, r, n, z


def _factor(sign, q, r, xs):
    """The factor sign q r x^(r-1) of y'/y on the lattice."""
    return sign * q * r * specfun.power(xs[None, :], r - 1.0)


def _quotient(rps, factor, num, den):
    """u = factor / a * num / den, nan where den is exactly 0."""
    a = np.array([rp.a for rp in rps], dtype=float)[:, None]
    value = np.full(den.shape, math.nan)
    with np.errstate(over="ignore"):
        np.divide(factor / a * num, den, out=value, where=den != 0.0)
    return value


def _bessel_blocks(kind: str, blocks):
    """The s of specfun.bessel_scaled of kind at every broadcast (nu, z)
    pair of blocks, from one call, split back into one array per block."""
    pairs = [np.broadcast_arrays(np.asarray(v, dtype=float), z) for v, z in blocks]
    s = specfun.bessel_scaled(
        kind, *(np.concatenate([p[i].ravel() for p in pairs]) for i in (0, 1)))[0]
    ends = np.cumsum([p[1].size for p in pairs])[:-1]
    return [part.reshape(p[1].shape) for part, p in zip(np.split(s, ends), pairs)]


def branch_table(rps: list[RiccatiParams], branch: int, xs: np.ndarray):
    """The chosen branch u = (1/a) sign q r x^(r-1) B_(n-1)(q x^r)/B_n(q x^r)
    on the lattice rps x xs, shape (len(rps), len(xs)), and its denominator:
    the s of B_n, with the sign of B_n (for J and Y the bits of B_n).  The
    parameter sets must share one regime.  The modified regime takes both
    orders from one specfun.bessel_pair_scaled pass, whose order n - 1 is
    exact; the oscillatory regime takes B_(n-1) and B_n as the orders
    n - 1.0 and n of one specfun.bessel_scaled call.  A ratio of s values
    neither overflows nor underflows.  The value is nan only
    where the denominator is exactly 0; within round-off of a zero it is
    round-off (branch 1 at the float pi of a = 1, b = -1, delta = 1 is about
    9e15): callers pass the denominator to sign_scan to find poles, or take
    the table from scanned_table.  A value past the float range is +-inf,
    with no warning.
    """
    xs = np.asarray(xs, dtype=float)
    _, kind, sign, q, r, n, z = _checked_lattice(rps, branch, xs)
    if kind in "IK":
        num, den = specfun.bessel_pair_scaled(kind, n, z)[:2]
    else:
        num, den = specfun.bessel_scaled(kind, np.stack([n - 1.0, n]), z)[0]
    return _quotient(rps, _factor(sign, q, r, xs), num, den), den


def pole_window(xs: np.ndarray) -> tuple[float, float, float]:
    """(lo, hi, half) of the pole-row rule on the uniform lattice xs: a
    denominator zero flags every point within half, half a step widened by
    1e-9 relative (both neighbours when midway), and the zeros are sought
    in [lo, hi], half beyond either end but not below min(1e-12, xs[0]/2).
    A lattice of fewer than 2 points has no step: ValueError."""
    return _window(xs)[:3]


def _window(xs: np.ndarray) -> tuple[float, float, float, float]:
    if xs.size < 2:
        raise ValueError(f"a table lattice needs at least 2 points, got {xs.size}")
    start, stop = float(xs[0]), float(xs[-1])
    step = (stop - start) / (xs.size - 1)
    half = 0.5 * step * (1.0 + 1e-9)
    return max(start - half, min(1e-12, 0.5 * start)), stop + half, half, step


def scanned_table(rps: list[RiccatiParams], branch: int, xs: np.ndarray):
    """branch_table's values on rps x xs, a uniform lattice, and its pole
    rows: returns (value, pole), pole a bool mask true within pole_window's
    half of a zero of the row's denominator, and value nan there.  Each
    sign_scan bracket over the nodes lo, xs, hi (min_steps 1) is cut at the
    cell edges x_j +- half inside it and reduced to the exact zero or the
    midpoint x of the piece holding the sign change, which lies within half
    of every point the zero does: the points next to round((x - xs[0]) /
    step) within half of x are flagged.  The modified regime has no zeros:
    its table is branch_table's, with no pole rows.

    The lattice checks run first, then every row's node placement with its
    end and budget checks, so a window over _MAX_SCAN_CELLS cells raises
    ScanBudgetError before anything is evaluated.  Then one
    specfun.bessel_scaled call takes B_(n-1) and B_n (the orders n - 1.0
    and n) on the lattice and B_n at each row's window ends and new nodes
    and at the cell edges in the node gap of each estimated zero
    (_cut_candidates), with the bits of sign_scan's own calls; the cuts that
    no estimate foresaw, of all rows, take one more call.  A row drops lo
    where half its z underflows, so that lo cannot be evaluated, and z at
    xs[0] is below _FIRST_ZERO_Z, so that no zero lies below xs[0].
    """
    if map_params(rps[0]).regime != OSCILLATORY:  # or degenerate, which branch_table refuses
        value = branch_table(rps, branch, xs)[0]
        return value, np.zeros(value.shape, dtype=bool)
    xs = np.asarray(xs, dtype=float)
    bms, kind, sign, q, r, n, z = _checked_lattice(rps, branch, xs)
    lo, hi, half, step = _window(xs)
    with np.errstate(over="ignore"):  # an edge past the float maximum is inf
        edges = np.sort(np.concatenate((xs - half, xs + half)))
    cells = edges.tolist()
    scans = []  # (nodes, positions of xs among them, mask of the others, cut candidates)
    for bm, z0 in zip(bms, z[:, 0].tolist()):
        head = [] if z0 < _FIRST_ZERO_Z and not 0.5 * bm.q_mag * lo**bm.r > 0.0 else [lo]
        nodes, place = _scan_nodes(bm, np.concatenate((head, xs, [hi])), 1)
        at = place[len(head):-1]
        other = np.ones(nodes.size, dtype=bool)
        other[at] = False
        scans.append((nodes, at, other, _cut_candidates(bm, kind, nodes, edges)))
    (num, den), *ahead = _bessel_blocks(kind, [(np.stack([n - 1.0, n]), z)] + [
        (bm.n, bm.q_mag * specfun.power(np.concatenate((nodes[other], cand)), bm.r))
        for bm, (nodes, _, other, cand) in zip(bms, scans)
    ])
    rows, missing = [], []  # (brackets, cuts, known cut values); cuts not among them
    for (nodes, at, other, cand), den_row, f in zip(scans, den, ahead):
        split = f.size - cand.size
        values = np.empty(nodes.size)
        values[at], values[other] = den_row, f[:split]
        brackets = _brackets(nodes, values)
        cuts = [cells[bisect.bisect_right(cells, a):bisect.bisect_left(cells, b)]
                for a, b, _, _ in brackets]
        known = dict(zip(cand.tolist(), f[split:].tolist()))
        rows.append((brackets, cuts, known))
        missing.append(np.array([c for cut in cuts for c in cut if c not in known]))
    if any(m.size for m in missing):
        late = _bessel_blocks(kind, [(bm.n, bm.q_mag * specfun.power(m, bm.r))
                                     for bm, m in zip(bms, missing)])
        for (_, _, known), m, f in zip(rows, missing, late):
            known.update(zip(m.tolist(), f.tolist()))
    pts, start = xs.tolist(), float(xs[0])
    pole = np.zeros(z.shape, dtype=bool)
    for row, (brackets, cuts, known) in enumerate(rows):
        for (a, b, f_a, f_b), cut in zip(brackets, cuts):
            xk, fk = [a, *cut, b], [f_a, *(known[c] for c in cut), f_b]
            k = next(k for k, f in enumerate(fk) if f == 0.0 or f * fk[k + 1] < 0.0)
            x = xk[k] if fk[k] == 0.0 else 0.5 * (xk[k] + xk[k + 1])
            i = round((x - start) / step)
            for j in range(max(i - 1, 0), min(i + 2, len(pts))):
                if abs(pts[j] - x) <= half:
                    pole[row, j] = True
    value = _quotient(rps, _factor(sign, q, r, xs), num, den)
    value[pole] = math.nan
    return value, pole


def _cut_candidates(bm: BesselMap, kind: str, nodes: np.ndarray, edges: np.ndarray):
    """The cell edges a table evaluates ahead for its row with scan nodes
    nodes: those inside the node gap that holds each McMahon estimate
    beta - (mu - 1)/(8 beta), mu = 4n^2, of a zero of J_n (beta = (k + n/2
    - 1/4) pi) or Y_n (beta = (k + n/2 - 3/4) pi), k >= 1 (DLMF 10.21.19).
    Where the zero lies in the same gap, these are its bracket's cuts; its
    error over 1/3 < n <= 1/2 is at most 0.009 in z (the first zero of
    Y_n as n -> 1/3), so a miss is rare and costs its cuts one more call."""
    z_lo, z_hi = bm.q_mag * np.power(nodes[[0, -1]], bm.r)
    shift = 0.5 * bm.n - (0.25 if kind == "J" else 0.75)
    k = np.arange(max(1, math.floor(z_lo / math.pi - shift)), math.ceil(z_hi / math.pi - shift) + 1)
    beta = (k + shift) * math.pi
    est = beta - (4.0 * bm.n * bm.n - 1.0) / (8.0 * beta)
    gap = np.searchsorted(nodes, np.power(est[(est > z_lo) & (est < z_hi)] / bm.q_mag,
                                          1.0 / bm.r))
    gap = gap[(gap > 0) & (gap < nodes.size)]
    first = np.searchsorted(edges, nodes[gap - 1], "right").tolist()
    last = np.searchsorted(edges, nodes[gap], "left").tolist()
    return np.concatenate([edges[:0]] + [edges[a:b] for a, b in zip(first, last)])


def y_branch_table(
    rp: RiccatiParams, branch: int, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """y = sqrt(x) B_n(q x^r) of the chosen linear branch at every x in one
    array pass, split as y = s * exp(e) by specfun.bessel_scaled; returns
    (s, e).  Where e = 0, s is y itself."""
    xs = np.asarray(xs, dtype=float)
    _, kind, _, _, _, n, z = _checked_lattice([rp], branch, xs)
    s, e = specfun.bessel_scaled(kind, n, z)
    return np.sqrt(xs) * s[0], e[0]


def residual(rp: RiccatiParams, x, u, u_prime):
    """Defect u' + a u^2 - b x^(1-delta)/Gamma(2-delta) of candidate values
    at x > 0: floats, or ndarrays elementwise."""
    return u_prime + rp.a * u * u - frac_const(rp.b, rp.delta, x)


def sign_scan(rp: RiccatiParams, branch: int, xs: np.ndarray, fs: np.ndarray, min_steps: int):
    """Brackets of the zeros of the denominator B_n(q x^r) from its signs at
    the ascending nodes xs (values fs, nan where unknown), placed by
    _scan_nodes; the unknown and new nodes take one array call.  Returns
    ([(lo, hi, f_lo, f_hi)], den), lo = hi at an exact zero, den the
    denominator of x; ([], None) in the modified regime (I_n, K_n > 0).

    The one pole rule: fs may be any values of the denominator's sign (a
    table's or riccati verify's denominator row, cosmo.scale_factor's
    y = sqrt(x) B_n), and every sign change or exact zero among the nodes
    is a bracket.  Tables take the same nodes and brackets from
    scanned_table, whose first call also evaluates the table.
    """
    bm = map_params(rp)
    if bm.regime != OSCILLATORY:
        return [], None
    kind = _kind(bm, branch)[0]

    def den(x):
        return specfun.bessel(kind, bm.n, bm.q_mag * specfun.power(x, bm.r))

    nodes, place = _scan_nodes(bm, xs, min_steps)
    values = np.full(nodes.size, math.nan)
    values[place] = fs
    todo = np.isnan(values)
    values[todo] = den(nodes[todo])
    return _brackets(nodes, values), den


def _scan_nodes(bm: BesselMap, xs: np.ndarray, min_steps: int):
    """sign_scan's nodes over the ascending xs: each gap cut into
    max(min_steps, int(width in z / _SCAN_STEP) + 1) steps uniform in z.
    Returns (nodes, place), xs[i] being nodes[place[i]] and the steps - 1
    new nodes of gap i following it.  An end whose z leaves the float range
    or whose half underflows (ValueError) or a span over _MAX_SCAN_CELLS
    cells (ScanBudgetError) raises before anything is allocated.
    """
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
    place = np.append(0, np.cumsum(steps))
    nodes = np.full(place[-1] + 1, math.nan)
    nodes[place] = xs
    new = np.flatnonzero(np.isnan(nodes))
    gap = np.repeat(np.arange(steps.size), steps - 1)
    z_new = z[gap] + (z[gap + 1] - z[gap]) * (new - place[gap]) / steps[gap]
    nodes[new] = specfun.power(z_new / bm.q_mag, 1.0 / bm.r)
    return nodes, place


def _brackets(nodes: np.ndarray, values: np.ndarray) -> list[tuple]:
    """(lo, hi, f_lo, f_hi) of every sign change or exact zero among the
    node values; lo = hi at an exact zero.  A product of two values may
    overflow (Y_n near z = 0) and keeps its sign."""
    with np.errstate(over="ignore"):
        change = values[:-1] * values[1:] < 0.0
    starts = np.flatnonzero((values == 0.0) | np.append(change, False))
    ends = starts + (values[starts] != 0.0)  # an exact zero is its own bracket
    cols = [v.tolist() for v in (nodes[starts], nodes[ends], values[starts], values[ends])]
    return list(zip(*cols))


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
