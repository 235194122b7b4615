"""The array path returns the bits of the scalar kernels.

specfun.bessel with ndarray arguments must equal a scalar call per element
exactly, and the CLI's bracket-based grid pole flags must equal the old rule
that compares every located zero with every grid point.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracriccati import cli, riccati
from fracriccati import specfun as sf
from fracriccati.grids import GridSpec

DELTAS = st.floats(0.05, 1.0)
ORDERS = st.one_of(
    st.integers(-10, 10).map(float),
    st.floats(-10.0, 10.0),
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


def old_pole_indices(rp, branch, grid):
    """The rule the bracket flagging replaced: every located zero against
    every grid point."""
    lo, hi = cli.pole_search_bounds(grid)
    half = 0.5 * grid.step * (1.0 + 1e-9)
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


@given(case=oscillatory_grids())
@settings(max_examples=80, deadline=None)
def test_bracket_flags_match_all_pairs_rule(case):
    rp, branch, grid = case
    assert set(cli._pole_indices(rp, branch, grid)) == old_pole_indices(rp, branch, grid)


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
    ev = riccati.eval_u1 if branch == 1 else riccati.eval_u2
    want = [ev(rp, x) for x in xs.tolist()]
    with mock.patch.object(sf, "_ARRAY_MIN_SIZE", 1):
        value, pole = riccati.branch_table([rp], branch, xs)
    assert pole[0].tolist() == [s.pole_flag for s in want]
    assert value[0].tobytes() == np.array([s.value for s in want]).tobytes()
