"""The array path returns the bits of the scalar kernels.

specfun.bessel with ndarray arguments must equal a scalar call per element
exactly, and scanned_table's bracket-based pole masks must equal the old
rule that compares every located zero with every grid point and, row for
row, the per-row flagging that its fused calls replaced.  riccati.pole_window
is held to the window the CLI once took from the GridSpec and the spline
to its earlier point-by-point form, both kept here as oracles,
rl_integral and rl_derivative on a whole profile of x to their float calls,
and the Gauss-Jacobi recurrence on floats to its array form.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fracriccati import cli, cosmo, riccati
from fracriccati import fracops as fo
from fracriccati import specfun as sf
from fracriccati.errors import ConvergenceError
from fracriccati.grids import GridSpec
from riccati_points import eval_u1, eval_u2

DELTAS = st.floats(0.05, 1.0)
INTEGERS = st.integers(-10, 10).map(float)
SIGNS = st.sampled_from([-1.0, 1.0])
ORDERS = st.one_of(
    INTEGERS,
    st.floats(-10.0, 10.0),
    # near an integer, and on both sides of a half-integer, where K's
    # mu = |nu| - round(|nu|) jumps from 1/2 to -1/2
    st.builds(lambda k, s, j: k + s * 10.0**-j, INTEGERS, SIGNS, st.integers(1, 15)),
    st.builds(lambda k, s, side: math.nextafter(k + 0.5 * s, k + 0.5 * s + side),
              INTEGERS, SIGNS, st.sampled_from([-1.0, 0.0, 1.0])),
    DELTAS.map(lambda d: 1.0 / (3.0 - d)),  # Riccati order n
    DELTAS.map(lambda d: 1.0 / (3.0 - d) - 1.0),  # and n - 1
)
X_MAX = {"J": 100.0, "Y": 100.0, "I": 700.0, "K": 100.0}


def scalar_values(kind, nu, xs):
    """[bessel(kind, nu, x) for x in xs], or the exception type it raises."""
    try:
        return np.array([sf.bessel(kind, nu, x) for x in xs]), None
    except ArithmeticError as exc:
        return None, type(exc)


@pytest.mark.parametrize("array_min_size", [1, sf._ARRAY_MIN_SIZE])
@given(
    kind=st.sampled_from("JYIK"),
    nu=ORDERS,
    unit=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40),
)
@example(kind="K", nu=-2.25, unit=[0.005, 0.015])
@example(kind="K", nu=math.nextafter(2.25, 0.0), unit=[0.005, 0.015])
@example(kind="K", nu=-2.5, unit=[0.005, 0.015, 0.03])  # K's mu = -1/2, Temme and CF2
@example(kind="K", nu=math.nextafter(2.5, 0.0), unit=[0.005, 0.015, 0.03])  # and mu = 1/2
@settings(max_examples=150, deadline=None)
def test_bessel_array_matches_scalar_bits(array_min_size, kind, nu, unit):
    # array_min_size 1 runs the vectorised kernels on every size
    xs = [X_MAX[kind] * u for u in unit]
    want, error = scalar_values(kind, nu, xs)
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
        if error is not None:
            with pytest.raises(error):
                sf.bessel(kind, nu, np.array(xs))
            return
        got = sf.bessel(kind, nu, np.array(xs))
    assert got.tobytes() == want.tobytes()


@given(
    kind=st.sampled_from("JYIK"),
    nus=st.lists(ORDERS, min_size=1, max_size=4),
    unit=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_bessel_broadcasts_orders_and_arguments(kind, nus, unit):
    nu = np.array(nus)[:, None]
    x = X_MAX[kind] * np.array(unit)[None, :]
    want = np.array([[sf.bessel(kind, n, v) for v in x[0].tolist()] for n in nus])
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", 1):
        got = sf.bessel(kind, nu, x)
    assert got.shape == (len(nus), len(unit))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("array_min_size", [1, sf._ARRAY_MIN_SIZE])
@given(
    kind=st.sampled_from("JYIK"),
    nu=ORDERS,
    log_x=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_bessel_scaled_array_matches_scalar_bits(array_min_size, kind, nu, log_x):
    xs = [10.0**v for v in log_x]
    want = [sf.bessel_scaled(kind, nu, x) for x in xs]
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
        s, e = sf.bessel_scaled(kind, nu, np.array(xs))
    assert s.tobytes() == np.array([w[0] for w in want]).tobytes()
    assert e.tobytes() == np.array([w[1] for w in want]).tobytes()


@pytest.mark.parametrize("array_min_size", [1, sf._ARRAY_MIN_SIZE])
def test_i_past_700_raises_the_scalar_error_and_scaled_stays_finite(array_min_size):
    # bessel forms s exp(e) from bessel_scaled and raises for the first
    # element past 700; the split itself has no upper limit
    xs = np.array([5.0, 35.0, 699.0, 750.0, 1000.0])
    with pytest.raises(OverflowError) as scalar:
        sf.bessel("I", 0.4, 750.0)
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
        with pytest.raises(OverflowError) as array:
            sf.bessel("I", 0.4, xs)
        s, e = sf.bessel_scaled("I", 0.4, xs)
    assert str(array.value) == str(scalar.value) == "I overflows for x = 750.0"
    assert np.isfinite(s).all()
    assert e[3:].tolist() == [750.0, 1000.0]


# orders of K: past 10 the upward recurrence from K_mu and K_(mu+1) takes
# more steps than the Riccati orders need, each element its own count
K_ORDERS = st.one_of(
    ORDERS,
    st.floats(10.0, 25.0),
    st.builds(lambda k, d: k + d, st.integers(0, 25).map(float), st.floats(-0.24, 0.24)),
)
K_ARGS = st.one_of(
    # CF2 from x = 2, whose step count falls from 76 at x = 2 to 15 at 20
    # and 5 at 750, so elements stop at different steps
    st.floats(2.0, 20.0, exclude_max=True),
    st.floats(20.0, 750.0),
    # Temme's series below x = 2; at tiny x, 2/x overflowing where K does
    # not, and K itself overflowing
    st.floats(-320.0, 0.3).map(lambda e: 10.0**e),
)


@pytest.mark.parametrize("array_min_size", [1, sf._ARRAY_MIN_SIZE])
@pytest.mark.parametrize("scaled", [False, True])
@given(
    nus=st.lists(K_ORDERS, min_size=1, max_size=6),
    pool=st.lists(K_ARGS, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
)
@example(nus=[0.96, 0.955, 0.0], pool=[1e-320, 5.0, 9.5], picks=[0, 1, 1, 2, 0] * 9)  # 2/x = inf
@example(nus=[10.0, 9.75, 10.25, 3.0], pool=[1.6e-29, 2.5, 12.0], picks=[0, 1, 2] * 11)  # near inf
@example(nus=[20.0, 12.5, 19.8], pool=[2e-14, 7.9, 8.1, 19.9], picks=[0, 1, 2, 3] * 11)
@example(nus=[0.5], pool=[3.0, 9.0, 15.0], picks=[0, 1, 2, 1, 0] * 30)  # one order
@example(nus=[5.0, 0.5], pool=[1e-100, 3.0], picks=[0, 1] * 70)  # K overflows
@settings(max_examples=60, deadline=None)
def test_k_stacked_orders_match_scalar_bits(array_min_size, scaled, nus, pool, picks):
    # every order at every argument, the arguments repeated, as the Riccati
    # lattice asks for B_(n-1) and B_n at each z
    xs = [pool[i % len(pool)] for i in picks]
    nu, x = np.array(nus)[:, None], np.array(xs)[None, :]
    func = sf.bessel_scaled if scaled else sf.bessel
    try:
        want = [[func("K", n, v) for v in xs] for n in nus]
    except OverflowError:
        want = None
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
        if want is None:
            with pytest.raises(OverflowError):
                func("K", nu, x)
            return
        got = func("K", nu, x)
    if scaled:
        got, e = got
        assert e.tobytes() == np.array([[w[1] for w in row] for row in want]).tobytes()
        want = [[w[0] for w in row] for row in want]
    assert got.tobytes() == np.array(want).tobytes()


# The lattice of a large table: the Riccati orders n - 1 and n of a few deltas
# times 4 096 points, z from 0.01 to 100.  J and Y past z = 12 and I past 30
# hand the Hankel loop 17 000 to 22 000 elements that stop at many different
# steps, so most of them run the unmasked term recurrence long past their
# stop; K's CF2 state from z = 2 on compacts as its elements stop, and over
# [2, 750], where CF2 takes from 76 steps to 5, more than once.  The property
# tests above hold at most 40 elements.
RICCATI_ORDERS = [o for d in (0.25, 0.5, 1.0) for o in (1.0 / (3.0 - d) - 1.0, 1.0 / (3.0 - d))]


@pytest.mark.parametrize("kind, lo, hi", [(k, 0.01, 100.0) for k in "JYIK"] + [("K", 2.0, 750.0)])
def test_riccati_lattice_term_loops_match_scalar_bits(kind, lo, hi):
    xs = np.linspace(lo, hi, 4096)
    compactions = []
    retire = sf._retire

    def counted(new, live, at, *rest):
        kept, state = retire(new, live, at, *rest)
        if kept.size < at.size:
            compactions.append(kept.size)
        return kept, state

    with mock.patch.object(sf, "_retire", counted):
        s, e = sf.bessel_scaled(kind, np.array(RICCATI_ORDERS)[:, None], xs[None, :])
    want = [[sf.bessel_scaled(kind, n, v) for v in xs.tolist()] for n in RICCATI_ORDERS]
    assert s.tobytes() == np.array([[w[0] for w in row] for row in want]).tobytes()
    assert e.tobytes() == np.array([[w[1] for w in row] for row in want]).tobytes()
    if kind == "K":
        assert len(compactions) > 2 and compactions[-1] == 0


def grid_step(grid):
    """The step of the GridSpec's ends and count."""
    return (grid.stop - grid.start) / (grid.count - 1)


def grid_pole_window(grid):
    """Half a grid step widened by 1e-9 relative, from the GridSpec: the
    window riccati.pole_window derives from the lattice, kept as its oracle."""
    return 0.5 * grid_step(grid) * (1.0 + 1e-9)


def grid_pole_search_bounds(grid):
    """The zero-search window of the half-step rule from the GridSpec, cut
    off below at min(1e-12, start/2), kept as riccati.pole_window's oracle."""
    half = grid_pole_window(grid)
    return max(grid.start - half, min(1e-12, 0.5 * grid.start)), grid.stop + half


POSITIVE = st.floats(5e-324, 1.7976931348623157e308) | st.sampled_from(
    [5e-324, 1e-323, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308])


@given(ends=st.lists(POSITIVE, min_size=2, max_size=2, unique=True), count=st.integers(2, 40))
@example(ends=[5e-324, 1e-322], count=3)  # a subnormal step
@example(ends=[5e-324, 1e-323], count=40)  # a step that underflows to 0
@example(ends=[5e-324, 1.7976931348623157e308], count=2)
@example(ends=[1e-300, 1.7976931348623157e308], count=40)
@settings(max_examples=200, deadline=None)
def test_pole_window_matches_grid_oracle(ends, count):
    grid = GridSpec(*sorted(ends), count)
    want = (*grid_pole_search_bounds(grid), grid_pole_window(grid))
    assert [v.hex() for v in riccati.pole_window(grid.points())] == [v.hex() for v in want]


@pytest.mark.parametrize("call", [
    riccati.pole_window,
    lambda xs: riccati.scanned_table([riccati.RiccatiParams(1.0, -1.0, 0.5)], 1, xs),
    lambda xs: cosmo.hubble([cosmo.CosmoParams(k=1, delta=0.5, c=1.0)], 1, xs, scan=True),
])
def test_table_lattice_of_one_point_is_refused(call):
    # a one-point lattice has no step to take the pole window from
    with pytest.raises(ValueError, match="at least 2 points, got 1"):
        call(np.array([1.0]))


def old_pole_indices(rp, branch, grid):
    """The rule the bracket flagging replaced: every located zero against
    every grid point."""
    lo, hi, _ = riccati.pole_window(grid.points())
    half = 0.5 * grid_step(grid) * (1.0 + 1e-9)
    return {
        i
        for zero in riccati.find_poles(rp, lo, hi, branch)
        for i, x in enumerate(grid.points())
        if abs(float(x) - zero) <= half
    }


@st.composite
def oscillatory_grids(draw):
    a = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
    b = -math.copysign(draw(st.floats(0.5, 2.0)), a)
    rp = riccati.RiccatiParams(a, b, draw(DELTAS))
    start = draw(st.floats(0.01, 5.0))
    grid = GridSpec(start, start + draw(st.floats(0.5, 40.0)), draw(st.integers(2, 400)))
    return rp, draw(st.sampled_from([1, 2])), grid


def table_flags(rp, branch, grid):
    """The pole-row indices of the one-row table's scanned_table mask."""
    return np.flatnonzero(riccati.scanned_table([rp], branch, grid.points())[1][0]).tolist()


def pole_mask(indices, count):
    """The bool mask of count points true at the given indices."""
    mask = np.zeros(count, dtype=bool)
    mask[indices] = True
    return mask


def two_call_pole_indices(rp, branch, grid, den):
    """The table flagging that scanned_table replaced, kept as its oracle: sign_scan over the table's denominator row den and the window
    ends (one call), then the cuts at the cell edges (one more call)."""
    pts = grid.points()
    lo, hi, half = riccati.pole_window(pts)

    def near(x):
        i = round((x - grid.start) / grid_step(grid))
        candidates = range(max(i - 1, 0), min(i + 2, grid.count))
        return [j for j in candidates if abs(float(pts[j]) - x) <= half]

    known = np.concatenate(([math.nan], den, [math.nan]))  # unknown at the window ends
    brackets, den_at = riccati.sign_scan(rp, branch, np.concatenate(([lo], pts, [hi])), known, 1)
    if not brackets:
        return []
    edges = np.sort(np.concatenate((pts - half, pts + half)))
    cuts = [edges[np.searchsorted(edges, a, "right"):np.searchsorted(edges, b, "left")].tolist()
            for a, b, _, _ in brackets]
    cut_values = iter(den_at(np.concatenate(cuts)).tolist())
    flags = []
    for (a, b, f_a, f_b), cut in zip(brackets, cuts):
        xs = [a, *cut, b]
        fs = [f_a, *(next(cut_values) for _ in cut), f_b]
        k = next(k for k, f in enumerate(fs) if f == 0.0 or f * fs[k + 1] < 0.0)
        flags += near(xs[k] if fs[k] == 0.0 else 0.5 * (xs[k] + xs[k + 1]))
    return flags


def emitted_table(params, branch, grid):
    """(value, pole) arrays, one row per parameter set, of the table the CLI
    prints for params: `riccati eval` of one RiccatiParams, or `cosmo figure`
    of CosmoParams of one k and c over a delta grid's points."""
    first = params[0]
    if isinstance(first, riccati.RiccatiParams):
        argv = ["riccati", "eval", "--a", repr(first.a), "--b", repr(first.b),
                "--delta", repr(first.delta)]
    else:
        argv = ["cosmo", "figure", "--k", str(first.k), "--c", repr(first.c), "--delta-grid",
                f"{first.delta!r}:{params[-1].delta!r}:{len(params)}"]
    argv += ["--branch", str(branch), "--grid", f"{grid.start!r}:{grid.stop!r}:{grid.count}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    rows = np.array([ln.split(",")[-2:] for ln in out.getvalue().splitlines()[1:]], dtype=float)
    return rows[:, 0].reshape(len(params), -1), rows[:, 1].reshape(len(params), -1).astype(int)


def z_steps(rp, grid):
    """The z = q x^r widths of the grid's cells."""
    bm = riccati.map_params(rp)
    return np.diff(bm.q_mag * np.power(grid.points(), bm.r))


@st.composite
def flagged_tables(draw):
    """(parameter sets, Riccati parameter sets, branch, grid): one
    oscillatory Riccati table, or a k = +1 figure surface of 2 to 5 rows,
    on a grid whose every cell is wider, or narrower, than pi/8 in z."""
    branch = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        a = draw(SIGNS) * draw(st.floats(0.5, 2.0))
        params = [riccati.RiccatiParams(a, -math.copysign(draw(st.floats(0.5, 2.0)), a),
                                        draw(DELTAS))]
        rps = params
    else:
        c = draw(SIGNS) * draw(st.floats(0.5, 2.0))
        deltas = GridSpec(0.5 * draw(DELTAS), 1.0, draw(st.integers(2, 5))).points().tolist()
        params = [cosmo.CosmoParams(k=1, delta=d, c=c) for d in deltas]
        rps = [cp.riccati_params() for cp in params]
    start = draw(st.floats(0.3, 5.0))
    width = draw(st.floats(2.0, 30.0))
    # dz/dx = q r x^(r-1) grows with x (r >= 1): the first cells are the
    # narrowest and the last the widest
    bms = [riccati.map_params(rp) for rp in rps]
    slope_lo = min(bm.q_mag * bm.r * start ** (bm.r - 1.0) for bm in bms)
    slope_hi = max(bm.q_mag * bm.r * (start + width) ** (bm.r - 1.0) for bm in bms)
    factor = draw(st.floats(1.2, 8.0))
    if draw(st.booleans()):
        cells = max(1, int(width * slope_lo / (factor * riccati._SCAN_STEP)))
    else:
        cells = int(factor * width * slope_hi / riccati._SCAN_STEP) + 1
    return params, rps, branch, GridSpec(start, start + width, cells + 1)


NARROW_TABLE = ([riccati.RiccatiParams(1.0, -1.0, 0.5)],) * 2 + (2, GridSpec(0.5, 30.0, 600))
WIDE_FIGURE = [cosmo.CosmoParams(k=1, delta=d, c=1.0) for d in (0.5, 0.75, 1.0)]
WIDE_FIGURE = (WIDE_FIGURE, [cp.riccati_params() for cp in WIDE_FIGURE], 1,
               GridSpec(0.5, 30.0, 20))


@given(case=flagged_tables())
@example(case=NARROW_TABLE)
@example(case=WIDE_FIGURE)
@settings(max_examples=60, deadline=None)
def test_fused_flags_match_two_call_oracle(case):
    params, rps, branch, grid = case
    steps = np.concatenate([z_steps(rp, grid) for rp in rps])
    assert steps.min() > riccati._SCAN_STEP or steps.max() < riccati._SCAN_STEP
    pts = grid.points()
    scanned, poles = riccati.scanned_table(rps, branch, pts)
    table = zip(*emitted_table(params, branch, grid))
    value, den = riccati.branch_table(rps, branch, pts)
    for rp, row_pole, row_value, (t_value, t_pole), v, d in zip(
            rps, poles, scanned, table, value, den):
        pole = pole_mask(two_call_pole_indices(rp, branch, grid, d), grid.count)
        assert row_pole.tolist() == pole.tolist()
        assert np.isnan(row_value[pole]).all()
        assert row_value[~pole].tobytes() == v[~pole].tobytes()
        assert t_pole.tolist() == pole.astype(int).tolist()
        assert t_value[~pole].tobytes() == v[~pole].tobytes()


@given(case=oscillatory_grids())
@settings(max_examples=80, deadline=None)
def test_bracket_flags_match_all_pairs_rule(case):
    rp, branch, grid = case
    assert set(table_flags(rp, branch, grid)) == old_pole_indices(rp, branch, grid)


@given(
    c=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    branch=st.sampled_from([1, 2]),
    start=st.floats(0.01, 3.0),
    width=st.floats(0.5, 30.0),
    count=st.integers(2, 200),
    delta_stop=DELTAS,
    delta_count=st.integers(2, 5),
)
@settings(max_examples=25, deadline=None)
def test_closed_figure_flags_match_all_pairs_rule(
    c, branch, start, width, count, delta_stop, delta_count
):
    eta_grid = GridSpec(start, start + width, count)
    delta_grid = GridSpec(0.5 * delta_stop, delta_stop, delta_count)
    params = [cosmo.CosmoParams(k=1, delta=d, c=c) for d in delta_grid.points().tolist()]
    for cp, pole in zip(params, emitted_table(params, branch, eta_grid)[1]):
        got = set(np.flatnonzero(pole).tolist())
        assert got == old_pole_indices(cp.riccati_params(), branch, eta_grid), cp.delta


@given(case=flagged_tables(), every_other=st.booleans())
@settings(max_examples=20, deadline=None)
def test_cuts_no_estimate_foresaw_take_one_more_call(case, every_other):
    # with none, or every other one, of the cell edges evaluated ahead, the
    # other cuts come from the second call, and the flags stay the oracle's
    params, rps, branch, grid = case
    pts = grid.points()
    ahead = riccati._cut_candidates

    def fewer(*args):
        cand = ahead(*args)
        return cand[::2] if every_other else cand[:0]

    with mock.patch.object(riccati, "_cut_candidates", fewer):
        poles = riccati.scanned_table(rps, branch, pts)[1]
    dens = riccati.branch_table(rps, branch, pts)[1]
    assert poles.tolist() == [
        pole_mask(two_call_pole_indices(rp, branch, grid, d), grid.count).tolist()
        for rp, d in zip(rps, dens)]


def zero_grid(step, count, j, x_j):
    """A grid of count points and the given step whose point j is x_j."""
    return GridSpec(x_j - j * step, x_j + (count - 1 - j) * step, count)


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("step", [0.05, 1.0])  # below and above pi/8 in z
@pytest.mark.parametrize("end", ["start", "stop"])
def test_zero_in_window_beyond_grid_end_flags_the_end(branch, step, end):
    rp = riccati.RiccatiParams(1.0, -1.0, 0.5)
    zero = next(z for z in riccati.find_poles(rp, 2.0, 60.0, branch) if z > 12.0 * step + 1.0)
    # the end point is 0.4 step inside the zero: the zero lies in the
    # search window but beyond the grid
    count = 11
    j, x_j = (0, zero + 0.4 * step) if end == "start" else (count - 1, zero - 0.4 * step)
    grid = zero_grid(step, count, j, x_j)
    assert not grid.start <= zero <= grid.stop
    flags = table_flags(rp, branch, grid)
    assert j in flags
    assert set(flags) == old_pole_indices(rp, branch, grid)


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("step", [0.05, 1.0])
@pytest.mark.parametrize("edge, side, want", [
    # the zero 1e-6 step inside or outside the upper cell edge x_j + half of
    # point j, or the lower cell edge x_(j+1) - half of point j + 1
    ("upper", -1.0, [10]),
    ("upper", 1.0, [11]),
    ("lower", 1.0, [11]),
    ("lower", -1.0, [10]),
])
def test_zero_near_a_cell_edge(branch, step, edge, side, want):
    rp = riccati.RiccatiParams(1.0, -1.0, 0.5)
    zero = next(z for z in riccati.find_poles(rp, 2.0, 60.0, branch) if z > 12.0 * step + 1.0)
    half = 0.5 * step * (1.0 + 1e-9)
    offset = 1e-6 * step * side
    # place the grid so that zero = edge + offset
    x_j = zero - half - offset if edge == "upper" else zero + half - step - offset
    grid = zero_grid(step, 21, 10, x_j)
    flags = table_flags(rp, branch, grid)
    assert [i for i in flags if i in (10, 11)] == want
    assert set(flags) == old_pole_indices(rp, branch, grid)


@pytest.mark.parametrize("branch", [1, 2])
def test_one_wide_gap_brackets_every_zero_in_it(monkeypatch, branch):
    # a single grid gap spans many zeros: only the nodes the scan adds in it
    # can bracket them, one bracket for each zero, and the zeros flag both ends
    rp = riccati.RiccatiParams(1.0, -1.0, 0.5)
    grid = GridSpec(1.0, 30.0, 2)
    zeros = riccati.find_poles(rp, *riccati.pole_window(grid.points())[:2], branch)
    brackets = []
    scan = riccati._brackets

    def recording(nodes, values):
        found = scan(nodes, values)
        brackets.extend(found)
        return found

    monkeypatch.setattr(riccati, "_brackets", recording)
    flags = table_flags(rp, branch, grid)
    monkeypatch.undo()
    assert len(zeros) > 10
    assert len(brackets) == len(zeros)
    assert all(a <= z <= b for (a, b, _, _), z in zip(brackets, zeros))
    assert flags == [0, 1]


@pytest.mark.parametrize("branch", [1, 2])
def test_dense_table_evaluates_only_cuts_and_window_ends(monkeypatch, branch):
    # z-step below pi/8: no node is added, the grid's own denominator row
    # is used, and each zero costs at most its two cell edges
    rp = riccati.RiccatiParams(1.0, -1.0, 0.5)
    grid = GridSpec(0.5, 30.0, 600)
    pts = grid.points()
    bm = riccati.map_params(rp)
    grid_z = (bm.q_mag * sf.power(pts, bm.r)).tolist()
    calls = []
    scaled = sf.bessel_scaled

    def counting(kind, nu, z):
        if isinstance(z, np.ndarray):  # not the scalar calls a small array loops
            calls.append(z.ravel().tolist())
        return scaled(kind, nu, z)

    monkeypatch.setattr(sf, "bessel_scaled", counting)
    flags = table_flags(rp, branch, grid)
    monkeypatch.undo()
    zeros = riccati.find_poles(rp, *riccati.pole_window(grid.points())[:2], branch)
    assert len(zeros) >= 15
    table, *late = calls
    assert table[:2 * pts.size] == 2 * grid_z
    extra = table[2 * pts.size:] + [z for call in late for z in call]
    assert 2 <= len(extra) <= 2 * len(zeros) + 2
    assert not set(grid_z) & set(extra)
    assert set(flags) == old_pole_indices(rp, branch, grid)


@given(
    a=st.floats(0.5, 2.0),
    b=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 0.1),
    delta=DELTAS,
    branch=st.sampled_from([1, 2]),
    unit=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_branch_table_matches_scalar_eval(a, b, delta, branch, unit):
    rp = riccati.RiccatiParams(a, b, delta)
    xs = 30.0 * np.array(unit)
    ev = eval_u1 if branch == 1 else eval_u2
    want = [ev(rp, x) for x in xs.tolist()]
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", 1):
        value = riccati.branch_table([rp], branch, xs)[0]
    assert value[0].tobytes() == np.array(want).tobytes()


def old_spline_eval(spline, x):
    """The point-by-point spline evaluation that SampledFunction.eval_array
    replaced: int panel index, min/max clamp, Horner cubic; spline is a
    SampledFunction, read for its knots and second derivatives."""
    i = int(np.searchsorted(spline.xs, x, side="right")) - 1
    i = min(max(i, 0), spline.xs.size - 2)
    t = x - spline.xs[i]
    h = spline.h[i]
    m0, m1 = spline.m[i], spline.m[i + 1]
    c2 = 0.5 * m0
    c3 = (m1 - m0) / (6.0 * h)
    c1 = (spline.ys[i + 1] - spline.ys[i]) / h - h * (2.0 * m0 + m1) / 6.0
    return spline.ys[i] + t * (c1 + t * (c2 + t * c3))


@given(
    start=st.floats(-50.0, 50.0),
    gaps=st.lists(st.floats(1e-3, 5.0), min_size=3, max_size=39),
    ys=st.lists(st.floats(-1e3, 1e3), min_size=40, max_size=40),
    unit=st.lists(st.floats(-0.5, 1.5), max_size=60),
    pick=st.lists(st.integers(0, 39), max_size=10),
)
@settings(max_examples=150, deadline=None)
def test_spline_eval_array_matches_point_by_point(start, gaps, ys, unit, pick):
    xs = start + np.cumsum([0.0] + gaps)
    f = fo.SampledFunction(xs, ys[: xs.size])
    # points inside, beyond both ends, and on the knots themselves
    pts = xs[0] + (xs[-1] - xs[0]) * np.array(unit)
    pts = np.concatenate([pts, xs[[i % xs.size for i in pick]], xs[:1], xs[-1:]])
    want = np.array([old_spline_eval(f, float(t)) for t in pts.tolist()])
    assert f.eval_array(pts).tobytes() == want.tobytes()
    assert np.array([f(float(t)) for t in pts.tolist()]).tobytes() == want.tobytes()


def numpy_thomas_m(xs, ys):
    """The second derivatives of the natural cubic spline by the Thomas sweep
    indexed element by element in ndarrays, as SampledFunction once ran it."""
    n, h = xs.size, np.diff(xs)
    m = np.zeros(n)
    if n > 2:
        a = h[:-1].copy()
        b = 2.0 * (h[:-1] + h[1:])
        c = h[1:].copy()
        d = 6.0 * (np.diff(ys[1:]) / h[1:] - np.diff(ys[:-1]) / h[:-1])
        for i in range(1, n - 2):
            wfac = a[i] / b[i - 1]
            b[i] -= wfac * c[i - 1]
            d[i] -= wfac * d[i - 1]
        m[n - 2] = d[-1] / b[-1]
        for i in range(n - 4, -1, -1):
            m[i + 1] = (d[i] - c[i] * m[i + 2]) / b[i]
    return m


@given(
    start=st.floats(-50.0, 50.0),
    gaps=st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=60),
    ys=st.lists(st.floats(-1e3, 1e3), min_size=61, max_size=61),
)
@example(start=0.0, gaps=[1.0], ys=[1.0, -2.0] + [0.0] * 59)
@example(start=0.5, gaps=[0.25, 2.0], ys=[1.0, -2.0, 3.0] + [0.0] * 58)
@example(start=-1.0, gaps=[1e-6, 1.0, 3.0], ys=[0.5, 2.0, -1.0, 4.0] + [0.0] * 57)
@settings(max_examples=200, deadline=None)
def test_spline_sweep_matches_numpy_indexed_sweep(start, gaps, ys):
    xs = start + np.cumsum([0.0] + gaps)
    assume(np.all(np.diff(xs) > 0.0))
    ys = np.array(ys[: xs.size])
    f = fo.SampledFunction(xs, ys)
    assert f.m.dtype == float and f.m.shape == xs.shape
    assert f.m.tobytes() == numpy_thomas_m(xs, ys).tobytes()


def profile_function(kind, x_max):
    if kind == "sin":
        return fo.RealFunction(np.sin, lambda k: cli._SIN_DERIVS[k % 4])
    if kind == "exp":
        return fo.RealFunction(np.exp, lambda k: np.exp)
    if kind == "sqrt":
        return fo.RealFunction.power(0.5)
    ts = np.linspace(0.0, x_max, 200)
    return fo.SampledFunction(ts, np.cos(ts))


ORDERS_OF = {
    "rl_integral": st.one_of(st.floats(0.01, 2.5), st.sampled_from([0.5, 1.0, 2.0])),
    # beta = 0 and 1 call f^(n) itself; fractional beta on both sides of 1
    "rl_derivative": st.one_of(st.floats(0.0, 1.999), st.sampled_from([0.0, 0.5, 1.0, 1.5])),
}


@given(
    op_order=st.sampled_from(sorted(ORDERS_OF)).flatmap(
        lambda op: st.tuples(st.just(op), ORDERS_OF[op])),
    xs=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=12),
    kind=st.sampled_from(["sin", "exp", "sqrt", "sampled"]),
)
# "sin" and "exp" carry their derivatives in closed form, as the CLI builds
# them; at 2.315 and 9.26 numpy's t**0.5 (a square root) and the float power
# differ
@example(op_order=("rl_derivative", 0.0), xs=[0.3, 2.315, 9.26], kind="sqrt")
@example(op_order=("rl_derivative", 1.0), xs=[0.3, 2.0, 0.7], kind="exp")
@example(op_order=("rl_derivative", 0.47), xs=[0.25, 1.5, 4.0], kind="sin")
@example(op_order=("rl_derivative", 1.47), xs=[0.25, 1.5, 4.0], kind="sqrt")
@example(op_order=("rl_derivative", 1.3), xs=[0.5, 3.0], kind="sampled")
@settings(max_examples=100, deadline=None)
def test_rl_integral_profile_matches_float_calls(op_order, xs, kind):
    # each x of a profile takes its own levels and has the bits of its own
    # float call, though the profile evaluates f on all of them at once
    op, order = getattr(fo, op_order[0]), op_order[1]
    f = profile_function(kind, max(xs))
    try:
        want = np.array([op(f, order, x) for x in xs])
    except ConvergenceError:
        # a spline's knots inside the cells slow the rule to an algebraic
        # order: the profile gives up as its float calls do
        with pytest.raises(ConvergenceError):
            op(f, order, np.array(xs))
        return
    assert op(f, order, np.array(xs)).tobytes() == want.tobytes()
    # any shape, element by element
    got = op(f, order, np.array([xs, xs]))
    assert got.shape == (2, len(xs)) and got.tobytes() == np.array([want, want]).tobytes()
    assert type(op(f, order, xs[0])) is float


def test_x_power_underflow_in_a_profile_names_the_first_such_x():
    f = fo.RealFunction.polynomial([1.0, 2.0])
    with pytest.raises(ValueError) as want:
        fo.rl_derivative(f, 1.5, 1e-300)
    with pytest.raises(ValueError) as got:
        fo.rl_derivative(f, 1.5, np.array([3.0, 1e-300, 1e-310, 2.0]))
    assert str(got.value) == str(want.value) == "x = 1e-300 is too close to 0: x^2 underflows to 0"


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_gauss_jacobi_float_recurrence_matches_array_recurrence(monkeypatch, n):
    # the module constant picks the path: n <= it runs on floats
    alphas = [0.01, 0.5, 1.0, 1.999, 2.0, 0.47, 1.46] + np.linspace(0.02, 1.98, 25).tolist()
    monkeypatch.setattr(fo, "_FLOAT_RECURRENCE_MAX", n)
    on_floats = [fo._gauss_jacobi(n, a) for a in alphas]
    monkeypatch.setattr(fo, "_FLOAT_RECURRENCE_MAX", n - 1)
    for a, (theta, w) in zip(alphas, on_floats):
        theta_a, w_a = fo._gauss_jacobi(n, a)
        assert theta.tobytes() == theta_a.tobytes() and w.tobytes() == w_a.tobytes(), a
