import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from fracriccati import specfun as sf
from fracriccati.errors import GammaPoleError, IndeterminateFormError

SQRT_PI = math.sqrt(math.pi)


def series_bessel_j(nu, x, terms=200):
    """Independent oracle: ascending power series summed to machine tolerance."""
    half = 0.5 * x
    term = half**nu / sp.gamma(nu + 1.0)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + nu))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


class TestGamma:
    def test_half_integer(self):
        assert sf.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)

    def test_factorial(self):
        assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_three_halves(self):
        assert sf.gamma(1.5) == pytest.approx(SQRT_PI / 2.0, rel=1e-13)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(GammaPoleError):
                sf.gamma(x)

    def test_significant_digits_over_range(self):
        # >= 12 significant digits over |x| <= 50
        xs = np.concatenate(
            [np.linspace(0.05, 50.0, 301), -np.linspace(0.123, 49.877, 200)]
        )
        for x in xs:
            assert sf.gamma(float(x)) == pytest.approx(sp.gamma(x), rel=1e-12)

    @given(st.floats(0.1, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_recurrence_property(self, x):
        assert sf.gamma(x + 1.0) == pytest.approx(x * sf.gamma(x), rel=1e-12)


class TestGenBinomial:
    def test_integer_case(self):
        assert sf.gen_binomial(2.0, 1) == pytest.approx(2.0, rel=1e-14)

    def test_k_zero(self):
        assert sf.gen_binomial(0.5, 0) == pytest.approx(1.0, rel=1e-14)

    def test_half_choose_two(self):
        # falling factorial (1/2)(-1/2)/2! = -1/8
        assert sf.gen_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-13)

    def test_limiting_zero(self):
        # 1 - k + beta at a Gamma pole with finite numerator -> 0
        assert sf.gen_binomial(2.0, 3) == 0.0
        assert sf.gen_binomial(5.0, 9) == 0.0

    def test_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            sf.gen_binomial(-1.0, 1)

    def test_integer_symmetry(self):
        for beta in (3, 5, 8):
            for k in range(beta + 1):
                a = sf.gen_binomial(float(beta), k)
                b = sf.gen_binomial(float(beta), beta - k)
                assert a == pytest.approx(b, rel=1e-12)

    def test_matches_falling_factorial(self):
        for beta in (0.5, 1.3, 2.7, -0.4):
            for k in range(6):
                ff = 1.0
                for j in range(k):
                    ff *= beta - j
                ff /= math.factorial(k)
                assert sf.gen_binomial(beta, k) == pytest.approx(ff, rel=1e-12, abs=1e-15)


class TestBesselValues:
    def test_half_order_closed_form(self):
        x = math.pi / 2.0
        assert sf.bessel("J", 0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_j0_origin_limit(self):
        assert sf.bessel("J", 0.0, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_series_oracle_generic_order(self):
        # frozen value computed from the ascending-series oracle
        oracle = series_bessel_j(0.4, 1.0)
        assert sf.bessel("J", 0.4, 1.0) == pytest.approx(oracle, rel=1e-13)
        assert oracle == pytest.approx(0.70937712200, rel=1e-10)

    def test_domain_error(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                sf.bessel("J", 0.3, bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sf.bessel("H", 0.3, 1.0)

    def test_overflow_indicator(self):
        with pytest.raises(OverflowError):
            sf.bessel_i(0.5, 800.0)

    @pytest.mark.parametrize("kind,ref", [("J", sp.jv), ("Y", sp.yv), ("I", sp.iv), ("K", sp.kv)])
    def test_against_reference_library(self, kind, ref):
        # 10 significant digits for 0 < x <= 100, |nu| <= 10; comparison scaled
        # by the oscillation envelope so zeros do not inflate relative error
        nus = [0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 1.0 / 3.0, 5.25, 7.5, 9.5, 10.0,
               -0.5, -0.3, -1.7, -2.5, -9.75]
        xs = np.geomspace(1e-2, 100.0, 41)
        for nu in nus:
            for x in xs:
                x = float(x)
                want = ref(nu, x)
                if not np.isfinite(want):
                    continue
                got = sf.bessel(kind, nu, x)
                scale = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
                if kind in ("I", "K"):
                    scale = abs(want)
                assert abs(got - want) <= 1e-10 * scale, (kind, nu, x)

    @pytest.mark.parametrize("kind, ref, scaled_from", [("I", sp.ive, 30.0), ("K", sp.kve, 20.0)])
    def test_scaled_against_reference_library(self, kind, ref, scaled_from):
        # past the cutover s = e^-x I or e^x K, from the large-argument
        # expansion; below it, the unscaled value itself
        xs = np.concatenate([np.geomspace(0.5, scaled_from, 20), np.geomspace(scaled_from, 1e5, 60)])
        big = xs > scaled_from if kind == "I" else xs >= scaled_from
        for nu in np.concatenate([np.linspace(-2.0 / 3.0, 1.5, 14), [-9.75, 2.0, 5.25, 10.0]]):
            s, e = sf.bessel_scaled(kind, nu, xs)
            assert e.tolist() == np.where(big, xs if kind == "I" else -xs, 0.0).tolist()
            assert s[~big].tobytes() == sf.bessel(kind, nu, xs[~big]).tobytes()
            want = ref(nu, xs[big])
            assert np.all(np.abs(s[big] - want) <= 2e-15 * want), nu
            for x, s_x, e_x in zip(xs.tolist()[::7], s.tolist()[::7], e.tolist()[::7]):
                assert sf.bessel_scaled(kind, nu, x) == (s_x, e_x)

    def test_scaled_j_y_are_unsplit_and_unknown_kinds_raise(self):
        xs = np.geomspace(0.1, 100.0, 30)
        for kind in ("J", "y"):
            s, e = sf.bessel_scaled(kind, 0.4, xs)
            assert s.tobytes() == sf.bessel(kind, 0.4, xs).tobytes() and not e.any()
            assert sf.bessel_scaled(kind, 0.4, 50.0) == (sf.bessel(kind, 0.4, 50.0), 0.0)
        for kind in ("H", None):
            for x in (50.0, xs):
                with pytest.raises(ValueError):
                    sf.bessel_scaled(kind, 0.4, x)

    def test_integer_order_limiting_formula(self):
        # integer nu must use the log-series (Y) or the quadrature (K), not a
        # reflection blowup
        for n in (0, 1, 2, 5, 10):
            for x in (0.1, 0.9, 1.9, 5.0, 11.0):
                assert sf.bessel_y(float(n), x) == pytest.approx(sp.yn(n, x), rel=1e-10)
            for x in (0.1, 0.9, 1.9):
                assert sf.bessel_k(float(n), x) == pytest.approx(sp.kn(n, x), rel=1e-10)

    def test_continuity_in_order(self):
        # evaluation continuous in nu near (but not at) integers
        for x in (0.7, 3.0, 20.0):
            base = sf.bessel_y(2.0 + 1e-7, x)
            step = sf.bessel_y(2.0 + 2e-7, x)
            assert base == pytest.approx(step, rel=1e-5)

    @given(
        k=st.integers(-10, 10),
        offset=st.one_of(
            st.builds(lambda s, j: s * 10.0**-j, st.sampled_from([-1.0, 1.0]), st.integers(1, 15)),
            st.sampled_from([-0.25, 0.25]),
        ),
        log_x=st.floats(-3.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_k_near_integer_orders(self, k, offset, log_x):
        # no sin(pi nu) divisor near integers: the quadrature serves orders
        # within 1/4 of one below x = 2, the reflection formula the rest
        nu, x = k + offset, 10.0**log_x
        assert sf.bessel_k(nu, x) == pytest.approx(sp.kv(nu, x), rel=1e-10)

    def test_k_tiny_argument(self):
        # small-x limits, exact in double precision here: K_nu(x) =
        # Gamma(nu)/2 (2/x)^nu and K_0(x) = -log(x/2) - Euler's gamma; the
        # tail nodes of K_3 lie past cosh(nu t)'s overflow, and below x of
        # about 4e-307 the truncation point lies past cosh(t)'s, with
        # K_1(1e-308) = 1e308 near the float maximum.  The array path runs
        # its kernels from sf._ARRAY_MIN_SIZE elements on.
        for nu, x, want in [
            (3.0, 1e-100, 8e300),
            (-3.0, 1e-100, 8e300),
            (0.0, 1e-300, -math.log(0.5e-300) - 0.5772156649015329),
            (0.0, 3e-307, -math.log(1.5e-307) - 0.5772156649015329),
            (0.9, 1e-310, math.gamma(0.9) / 2.0 * 0.5e-310**-0.9),
            (1.0, 1e-308, 1e308),
        ]:
            assert sf.bessel_k(nu, x) == pytest.approx(want, rel=1e-13)
            n = sf._ARRAY_MIN_SIZE
            assert sf.bessel("K", np.full(n, nu), x).tolist() == [sf.bessel_k(nu, x)] * n


class TestBesselDerivative:
    def test_j1_near_origin(self):
        # J_1'(x) -> 1/2 as x -> 0+
        assert sf.bessel_derivative("J", 1.0, 1e-6) == pytest.approx(0.5, abs=1e-9)

    def test_half_order_analytic(self):
        # d/dx sqrt(2/(pi x)) sin x at x = pi/2 is -(2/pi)^2 / 2 * 2 = -2/pi^2
        x = math.pi / 2.0
        want = -2.0 / math.pi**2
        assert sf.bessel_derivative("J", 0.5, x) == pytest.approx(want, rel=1e-12)

    def test_forms_agree(self):
        # the two recurrence forms of the derivative agree (self-consistency)
        for kind in sf.BESSEL_KINDS:
            for nu in (0.3, 0.4, 0.5, 1.7):
                for x in np.geomspace(0.1, 50.0, 40):
                    x = float(x)
                    b = sf.bessel(kind, nu, x)
                    lo = sf.bessel(kind, nu - 1.0, x)
                    hi = sf.bessel(kind, nu + 1.0, x)
                    r = nu / x
                    if kind in ("J", "Y"):
                        d1, d2 = lo - r * b, r * b - hi
                    elif kind == "I":
                        d1, d2 = lo - r * b, r * b + hi
                    else:
                        d1, d2 = -lo - r * b, r * b - hi
                    scale = max(abs(d1), abs(d2), abs(lo) + abs(hi))
                    assert abs(d1 - d2) <= 1e-10 * scale, (kind, nu, x)

    def test_matches_mean_of_forms(self):
        got = sf.bessel_derivative("Y", 0.4, 2.0)
        b = sf.bessel_y(0.4, 2.0)
        d1 = sf.bessel_y(-0.6, 2.0) - 0.2 * b
        d2 = 0.2 * b - sf.bessel_y(1.4, 2.0)
        assert got == pytest.approx(0.5 * (d1 + d2), rel=1e-14)


class TestBesselIdentities:
    NUS = (0.3, 0.4, 0.5, 1.7)
    XS = np.geomspace(0.1, 50.0, 60)

    def test_recurrence(self):
        for nu in self.NUS:
            for x in self.XS:
                x = float(x)
                lhs = sf.bessel_j(nu - 1.0, x) + sf.bessel_j(nu + 1.0, x)
                rhs = 2.0 * nu / x * sf.bessel_j(nu, x)
                scale = max(abs(lhs), abs(rhs),
                            abs(sf.bessel_j(nu - 1.0, x)) + abs(sf.bessel_j(nu + 1.0, x)))
                assert abs(lhs - rhs) <= 1e-10 * scale

    def test_wronskian(self):
        for nu in self.NUS:
            for x in self.XS:
                x = float(x)
                w = sf.bessel_j(nu, x) * sf.bessel_derivative("Y", nu, x) - sf.bessel_derivative(
                    "J", nu, x
                ) * sf.bessel_y(nu, x)
                assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-9)

    def test_half_order_family(self):
        for x in np.geomspace(0.1, 60.0, 80):
            x = float(x)
            amp = math.sqrt(2.0 / (math.pi * x))
            assert abs(sf.bessel_j(0.5, x) - amp * math.sin(x)) <= 1e-10 * amp
            assert abs(sf.bessel_j(-0.5, x) - amp * math.cos(x)) <= 1e-10 * amp
            assert abs(sf.bessel_i(0.5, x) - amp * math.sinh(x)) <= 1e-10 * amp * math.cosh(x)
            assert abs(sf.bessel_i(-0.5, x) - amp * math.cosh(x)) <= 1e-10 * amp * math.cosh(x)

    @given(
        st.floats(0.05, 2.5).filter(lambda v: abs(v - round(v)) > 1e-3),
        st.floats(0.2, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_wronskian_property(self, nu, x):
        w = sf.bessel_j(nu, x) * sf.bessel_derivative("Y", nu, x) - sf.bessel_derivative(
            "J", nu, x
        ) * sf.bessel_y(nu, x)
        assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-9)
