import math

import numpy as np
import pytest
from scipy import special as sp
from hypothesis import assume, given, settings, strategies as st

from fracriccati import riccati as rc
from fracriccati.errors import DegenerateRegimeError
from fracriccati.fracops import frac_const
from fracriccati.specfun import bessel, gamma
from riccati_points import eval_u1, eval_u2, eval_y_branch, rule_d1


class TestParams:
    def test_a_nonzero(self):
        with pytest.raises(ValueError):
            rc.RiccatiParams(0.0, 1.0, 0.5)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            rc.RiccatiParams(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            rc.RiccatiParams(1.0, 1.0, 0.0)

    # a*b overflowing, or underflowing to 0 (-0.0 would read as a*b > 0)
    @pytest.mark.parametrize("a, b", [(1e200, 1e200), (1e200, -1e200), (1e-200, 1e-200),
                                      (1e-200, -1e-200)])
    def test_product_must_be_finite_and_nonzero(self, a, b):
        with pytest.raises(ValueError, match=r"a\*b"):
            rc.RiccatiParams(a, b, 0.5)


class TestMapParams:
    def test_classical_oscillatory(self):
        m = rc.map_params(rc.RiccatiParams(1.0, -1.0, 1.0))
        assert (m.r, m.n) == (1.0, 0.5)
        assert m.q_mag == pytest.approx(1.0, rel=1e-14)
        assert m.regime == rc.OSCILLATORY

    def test_sign_flip_changes_regime_only(self):
        m1 = rc.map_params(rc.RiccatiParams(1.0, -1.0, 1.0))
        m2 = rc.map_params(rc.RiccatiParams(1.0, 1.0, 1.0))
        assert m2.regime == rc.MODIFIED
        assert m2.q_mag == pytest.approx(m1.q_mag, rel=1e-14)
        assert (m2.r, m2.n) == (m1.r, m1.n)

    def test_fractional_values(self):
        m = rc.map_params(rc.RiccatiParams(1.0, 1.0, 0.5))
        assert m.r == pytest.approx(1.25, rel=1e-15)
        assert m.n == pytest.approx(0.4, rel=1e-15)
        assert m.q_mag == pytest.approx(0.8 * math.sqrt(1.0 / gamma(1.5)), rel=1e-14)

    def test_degenerate(self):
        m = rc.map_params(rc.RiccatiParams(1.0, 0.0, 0.5))
        assert m.regime == rc.DEGENERATE
        assert m.q_mag == 0.0

    def test_p_minus_nr_exact(self):
        for d in (0.25, 0.5, 0.75, 1.0, 0.123456):
            m = rc.map_params(rc.RiccatiParams(1.0, -1.0, d))
            assert m.n * m.r == 0.5

    @given(
        st.floats(0.05, 1.0),
        st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
        st.sampled_from([-2.0, -0.5, 0.5, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_invariants_property(self, delta, a, b):
        m = rc.map_params(rc.RiccatiParams(a, b, delta))
        assert m.n * m.r == pytest.approx(0.5, rel=1e-15)
        assert 1.0 <= m.r < 1.5
        assert 1.0 / 3.0 < m.n <= 0.5
        assert m.regime == (rc.OSCILLATORY if a * b < 0 else rc.MODIFIED)
        assert m.q_mag > 0.0


class TestBranchValues:
    def test_u1_is_cot(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        assert eval_u1(rp, math.pi / 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_u1_is_coth(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        assert eval_u1(rp, 1.0) == pytest.approx(1.3130352854993313, rel=1e-12)

    def test_u1_small_x_asymptote(self):
        # u1 ~ 1/(a x) as x -> 0+, any regime
        for a, b in ((1.0, -1.0), (2.0, 1.0)):
            rp = rc.RiccatiParams(a, b, 1.0)
            for x in (1e-4, 1e-6):
                assert eval_u1(rp, x) * x == pytest.approx(1.0 / a, rel=1e-6)

    def test_u2_is_minus_tan(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        assert eval_u2(rp, math.pi / 4.0) == pytest.approx(-1.0, rel=1e-12)

    def test_u2_modified_is_constant_equilibrium(self):
        # K_(1/2) = K_(-1/2) makes u2 = -sqrt(b/a) for every x at delta = 1
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        for x in (0.3, 1.0, 2.5, 7.0):
            assert eval_u2(rp, x) == pytest.approx(-1.0, rel=1e-11)

    def test_degenerate_refused(self):
        rp = rc.RiccatiParams(1.0, 0.0, 0.5)
        with pytest.raises(DegenerateRegimeError):
            eval_u1(rp, 1.0)
        with pytest.raises(DegenerateRegimeError):
            eval_u2(rp, 1.0)

    def test_sign_symmetry(self):
        # (a, b) -> (-a, -b) keeps the linear equation and flips 1/a
        for d in (0.4, 1.0):
            rp = rc.RiccatiParams(1.5, -2.0, d)
            rn = rc.RiccatiParams(-1.5, 2.0, d)
            for x in (0.3, 0.9, 1.4):
                assert eval_u1(rn, x) == pytest.approx(
                    -eval_u1(rp, x), rel=1e-12
                )

    def test_delta_one_reductions_through_general_path(self):
        for c in (0.5, 1.0, 2.0):
            rp = rc.RiccatiParams(c, -c, 1.0)
            for x in np.linspace(0.1, math.pi / (2.0 * c), 25)[:-1]:
                x = float(x)
                want = math.cos(c * x) / math.sin(c * x)
                got = eval_u1(rp, x)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


class TestModifiedRegime:
    """a*b > 0: the branches are ratios of I or K, which have no zeros."""

    @given(
        a=st.floats(0.2, 5.0),
        b=st.floats(0.2, 5.0),
        negative=st.booleans(),
        delta=st.floats(0.0, 1.0, exclude_min=True),
        branch=st.sampled_from([1, 2]),
        log_z=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_poles_and_scaled_ratio_oracle(self, a, b, negative, delta, branch, log_z):
        # Bessel arguments from 1e-3 to 1e4, far past where I overflows and
        # K underflows; the oracle is the ratio of scipy's scaled functions
        rp = rc.RiccatiParams(-a if negative else a, -b if negative else b, delta)
        bm = rc.map_params(rp)
        xs = np.array([(10.0**lz / bm.q_mag) ** (1.0 / bm.r) for lz in log_z])
        value = rc.branch_table([rp], branch, xs)[0]
        lo, hi = ((10.0**e / bm.q_mag) ** (1.0 / bm.r) for e in (-3.0, 4.0))
        assert rc.find_poles(rp, lo, hi, branch) == []
        assert np.all(np.isfinite(value))
        z = np.array([bm.q_mag * x**bm.r for x in xs.tolist()])
        ratio = sp.ive(bm.n - 1.0, z) / sp.ive(bm.n, z) if branch == 1 else (
            -sp.kve(bm.n - 1.0, z) / sp.kve(bm.n, z)
        )
        want = bm.q_mag * bm.r * xs ** (bm.r - 1.0) / rp.a * ratio
        assert np.all(np.abs(value[0] - want) <= 1e-10 * np.abs(want))

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5), (-0.5, -3.0)])
    def test_delta_one_oracles(self, a, b):
        # u1 = (w/a) coth(w x) and u2 = -w/a with w = sqrt(ab); for a > 0,
        # u2 = -sqrt(b/a)
        rp = rc.RiccatiParams(a, b, 1.0)
        w = math.sqrt(a * b)
        xs = np.geomspace(1e-3, 1e4, 200) / w
        u1 = rc.branch_table([rp], 1, xs)[0]
        u2 = rc.branch_table([rp], 2, xs)[0]
        for branch in (1, 2):
            assert rc.find_poles(rp, float(xs[0]), float(xs[-1]), branch) == []
        assert np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))
        want1 = w / a / np.tanh(w * xs)
        assert np.all(np.abs(u1[0] - want1) <= 1e-12 * np.abs(want1))
        assert np.all(np.abs(u2[0] + w / a) <= 1e-12 * (w / abs(a)))
        for x in (0.5, 25.0, 800.0, 5e3):
            assert eval_u2(rp, x / w) == pytest.approx(-w / a, rel=1e-12)
            assert math.isfinite(eval_u1(rp, x / w))


class TestYBranch:
    def test_half_order_reduction_branch1(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        x = 1.3
        y, yp = eval_y_branch(rp, 1, x)
        amp = math.sqrt(2.0 / math.pi)
        assert y == pytest.approx(amp * math.sin(x), rel=1e-12)
        assert yp == pytest.approx(amp * math.cos(x), rel=1e-12)

    def test_half_order_reduction_branch2(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        x = 1.3
        y, yp = eval_y_branch(rp, 2, x)
        amp = math.sqrt(2.0 / math.pi)
        assert y == pytest.approx(-amp * math.cos(x), rel=1e-12)
        assert yp == pytest.approx(amp * math.sin(x), rel=1e-12)

    def test_derivative_forms_agree_generic_delta(self):
        # eval_y_branch returns y' = a u y, the lower-order form; the upper-order
        # form y' = y ((p + nr)/x + sign q r x^(r-1) B_(n+1)/B_n), p = 1/2,
        # with sign +1 for I and -1 for J, Y and K, is built here from the
        # Bessel functions themselves
        for a, b, d in ((1.0, -1.0, 0.6), (2.0, 1.0, 0.35), (1.0, 1.0, 0.6)):
            rp = rc.RiccatiParams(a, b, d)
            bm = rc.map_params(rp)
            for branch, kind in zip((1, 2), "JY" if a * b < 0.0 else "IK"):
                sign = 1.0 if kind == "I" else -1.0
                for x in (0.4, 1.1, 2.7):
                    y, d_lo = eval_y_branch(rp, branch, x)
                    z = bm.q_mag * x**bm.r
                    ratio = bessel(kind, bm.n + 1.0, z) / bessel(kind, bm.n, z)
                    qrx = bm.q_mag * bm.r * x ** (bm.r - 1.0)
                    d_hi = y * ((0.5 + bm.n * bm.r) / x + sign * qrx * ratio)
                    scale = abs(d_lo) + abs(d_hi) + abs(y) / x
                    assert abs(d_lo - d_hi) <= 1e-9 * scale

    def test_u_equals_yprime_over_ay(self):
        # u of branch_table against y of y_branch_table, y' by central differences
        rp = rc.RiccatiParams(2.0, -1.0, 0.45)
        h = 1e-5
        for x in (0.5, 1.2):
            y_lo, y, y_hi = (eval_y_branch(rp, 1, t)[0] for t in (x - h, x, x + h))
            yp = (y_hi - y_lo) / (2.0 * h)
            assert eval_u1(rp, x) == pytest.approx(yp / (rp.a * y), rel=1e-8)

    def test_branch_validation(self):
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            eval_y_branch(rp, 3, 1.0)

    @pytest.mark.parametrize("branch", [0, 3])
    def test_tables_reject_other_branches(self, branch):
        xs = np.array([1.0, 2.0])
        for rp in (rc.RiccatiParams(1.0, -1.0, 0.5), rc.RiccatiParams(1.0, 1.0, 0.5)):
            with pytest.raises(ValueError, match="branch must be 1 or 2"):
                rc.branch_table([rp], branch, xs)
            with pytest.raises(ValueError, match="branch must be 1 or 2"):
                rc.y_branch_table(rp, branch, xs)


class TestResidual:
    def test_equilibrium_fixed_point(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        assert rc.residual(rp, 2.0, 1.0, 0.0) == 0.0

    def test_trivial_degenerate_solution(self):
        rp = rc.RiccatiParams(1.0, 0.0, 0.5)
        assert rc.residual(rp, 1.0, 0.0, 0.0) == 0.0

    def test_closed_form_satisfies_equation(self):
        rp = rc.RiccatiParams(2.0, -1.0, 0.5)

        def u_of(t):
            return eval_u1(rp, t)

        for x in np.linspace(0.3, 2.2, 20):
            x = float(x)
            up = rule_d1(u_of, x)
            r = rc.residual(rp, x, u_of(x), up)
            assert abs(r) <= 1e-6 * (1.0 + abs(frac_const(rp.b, rp.delta, x)))

    @given(
        st.sampled_from([1.0, 2.0, -1.0]),
        st.sampled_from([1.0, -1.0, 2.0, -2.0]),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.floats(0.35, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_property(self, a, b, delta, x):
        rp = rc.RiccatiParams(a, b, delta)
        poles = rc.find_poles(rp, 0.2, 2.3, 1)
        if any(abs(x - p) < 0.08 for p in poles):
            return
        up = rule_d1(lambda t: eval_u1(rp, t), x)
        r = rc.residual(rp, x, eval_u1(rp, x), up)
        assert abs(r) <= 1e-6 * (1.0 + abs(frac_const(b, delta, x)))


class TestFindPoles:
    def test_half_order_zeros(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        poles = rc.find_poles(rp, 0.5, 7.0, 1)
        assert len(poles) == 2
        assert poles[0] == pytest.approx(math.pi, rel=1e-11)
        assert poles[1] == pytest.approx(2.0 * math.pi, rel=1e-11)

    def test_modified_regime_has_none(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        assert rc.find_poles(rp, 0.5, 7.0, 1) == []
        assert rc.find_poles(rp, 0.5, 7.0, 2) == []

    def test_branch2_zeros(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        poles = rc.find_poles(rp, 0.5, 7.0, 2)
        assert [pytest.approx(p, rel=1e-11) for p in (math.pi / 2, 3 * math.pi / 2)] == poles

    def test_generic_delta_against_sign_scan(self):
        # brute-force oracle: dense sign scan of the denominator
        rp = rc.RiccatiParams(1.0, -1.0, 0.7)
        bm = rc.map_params(rp)

        def den(x):
            from fracriccati.specfun import bessel
            return bessel("J", bm.n, bm.q_mag * x**bm.r)

        xs = np.linspace(0.3, 8.0, 40001)
        vals = np.array([den(float(t)) for t in xs])
        brackets = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        scan = [0.5 * (xs[i] + xs[i + 1]) for i in brackets]
        got = rc.find_poles(rp, 0.3, 8.0, 1)
        assert len(got) == len(scan)
        for g, s in zip(got, scan):
            assert g == pytest.approx(s, abs=2.0 * (xs[1] - xs[0]))

    def test_interval_validation(self):
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            rc.find_poles(rp, 2.0, 1.0)

    def test_scan_over_budget_raises_before_any_evaluation(self, monkeypatch):
        def no_bessel(*args):
            raise AssertionError("the budget check must come first")

        monkeypatch.setattr(rc.specfun, "bessel", no_bessel)
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)
        for hi in (1e6, 1e300):
            with pytest.raises(ValueError, match=r"\[0\.1, .*scan cells"):
                rc.find_poles(rp, 0.1, hi)


def plain_bisection_poles(rp, x_lo, x_hi, branch):
    """The oracle: find_poles' 1e-12 bisection with a denominator call at
    every midpoint, on the same sign_scan brackets."""
    brackets, den = rc.sign_scan(rp, branch, np.array([x_lo, x_hi]), np.full(2, math.nan), 8)
    poles = []
    for lo, hi, flo, _ in brackets:
        while hi - lo > 1e-12 * hi:
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


def x_of(rp, z):
    bm = rc.map_params(rp)
    return (z / bm.q_mag) ** (1.0 / bm.r)


class TestFindPolesReplay:
    """find_poles replays the bisection from a regula-falsi zero; every zero
    must keep the bits of the plain bisection."""

    @given(
        st.floats(1e-6, 1.0),
        st.floats(1e-6, 1.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([1, 2]),
        st.lists(st.floats(1e-3, 100.0), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_bits_as_plain_bisection(self, a, b, sign, delta, branch, z_ends):
        rp = rc.RiccatiParams(sign * a, -sign * b, delta)
        x_lo, x_hi = (x_of(rp, z) for z in sorted(z_ends))
        assume(x_lo < x_hi)
        assert rc.find_poles(rp, x_lo, x_hi, branch) == plain_bisection_poles(
            rp, x_lo, x_hi, branch)

    # the argv of tests/golden/poles_branch*.csv
    @pytest.mark.parametrize("branch", [1, 2])
    def test_fallback_without_located_zero(self, monkeypatch, branch):
        args = rc.RiccatiParams(1.0, -1.0, 0.5), 0.5, 60.0, branch
        located = rc.find_poles(*args)
        brackets = []
        monkeypatch.setattr(rc, "_locate_zero", lambda *bracket: brackets.append(bracket))
        assert rc.find_poles(*args) == located
        assert len(brackets) == len(located) > 0

    @pytest.mark.parametrize("locate", [True, False])
    def test_exact_zero_is_returned(self, monkeypatch, locate):
        # a denominator that is exactly 0 at the scan's first node x = 2,
        # and on a band of 1e-6 in z around z1, between two scan nodes
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        bm = rc.map_params(rp)
        z0 = bm.q_mag * 2.0**bm.r
        z1 = z0 + 1.3

        def den(kind, nu, z):
            return np.where(abs(z - z1) <= 1e-6, 0.0, (z - z0) * (z1 - z))[()]

        monkeypatch.setattr(rc.specfun, "bessel", den)
        if not locate:
            monkeypatch.setattr(rc, "_locate_zero", lambda *bracket: None)
        poles = rc.find_poles(rp, 2.0, x_of(rp, z0 + 2.0))
        assert len(poles) == 2 and poles[0] == 2.0
        assert abs(bm.q_mag * poles[1] ** bm.r - z1) <= 1e-6
