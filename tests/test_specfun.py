import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special as sp

from fracriccati import specfun as sf
from fracriccati.errors import GammaPoleError
from frac_series import IndeterminateFormError, gen_binomial

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


def bessel_derivative(kind: str, nu: float, x: float) -> float:
    """d/dx of the chosen Bessel function: the mean of its two recurrence
    forms, B' from B_(nu-1) and B' from B_(nu+1)."""
    b = sf.bessel(kind, nu, x)
    lo = sf.bessel(kind, nu - 1.0, x)
    hi = sf.bessel(kind, nu + 1.0, x)
    r = nu / x
    if kind in ("J", "Y"):
        d1, d2 = lo - r * b, r * b - hi
    elif kind == "I":
        d1, d2 = lo - r * b, r * b + hi
    else:  # K
        d1, d2 = -lo - r * b, r * b - hi
    return 0.5 * (d1 + d2)


def snap_to_integer(nu: float) -> float:
    """An order within 1e-15 of an integer snapped onto it: mpmath's K of
    such an order (1e-273, say) takes seconds."""
    return nu if abs(nu - round(nu)) >= 1e-15 else float(round(nu))


def kve(nu, xs):
    """e^x K_nu(x) at every x of the ndarray xs, from mpmath at 30 digits:
    scipy's kve is up to 9e-14 off at x = 2, where its own kernels switch."""
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselk(abs(mpmath.mpf(float(nu))), x) * mpmath.exp(x))
                         for x in xs.tolist()])


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
        assert gen_binomial(2.0, 1) == pytest.approx(2.0, rel=1e-14)

    def test_k_zero(self):
        assert gen_binomial(0.5, 0) == pytest.approx(1.0, rel=1e-14)

    def test_half_choose_two(self):
        # falling factorial (1/2)(-1/2)/2! = -1/8
        assert gen_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-13)

    def test_limiting_zero(self):
        # 1 - k + beta at a Gamma pole with finite numerator -> 0
        assert gen_binomial(2.0, 3) == 0.0
        assert gen_binomial(5.0, 9) == 0.0

    def test_indeterminate(self):
        with pytest.raises(IndeterminateFormError):
            gen_binomial(-1.0, 1)

    def test_integer_symmetry(self):
        for beta in (3, 5, 8):
            for k in range(beta + 1):
                a = gen_binomial(float(beta), k)
                b = gen_binomial(float(beta), beta - k)
                assert a == pytest.approx(b, rel=1e-12)

    def test_matches_falling_factorial(self):
        for beta in (0.5, 1.3, 2.7, -0.4):
            for k in range(6):
                ff = 1.0
                for j in range(k):
                    ff *= beta - j
                ff /= math.factorial(k)
                assert gen_binomial(beta, k) == pytest.approx(ff, rel=1e-12, abs=1e-15)


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

    @pytest.mark.parametrize("array_min_size", [1, sf._ARRAY_MIN_SIZE])
    def test_nonfinite_order_raises_value_error(self, array_min_size):
        # every kind and entry, floats and arrays on both array paths
        xs = np.linspace(2.0, 19.0, 200)
        kernels = {"J": sf.bessel_j, "Y": sf.bessel_y}
        for nu in (math.inf, -math.inf, math.nan):
            for kind in sf.BESSEL_KINDS:
                calls = [(kernels[kind], (nu, 5.0))] if kind in kernels else []
                calls += [
                    (sf.bessel, (kind, nu, 5.0)),
                    (sf.bessel, (kind, nu, xs)),
                    (sf.bessel, (kind, np.array([0.5, nu]), 5.0)),
                    (sf.bessel_scaled, (kind, nu, 5.0)),
                    (sf.bessel_scaled, (kind, nu, xs)),
                ]
                with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
                    for func, args in calls:
                        with pytest.raises(ValueError, match="order must be finite"):
                            func(*args)

    @given(
        nu=st.builds(lambda m, s, j: -m + s * 10.0**-j, st.integers(1, 10),
                     st.sampled_from([-1.0, 1.0]), st.floats(1.0, 15.0)),
        x=st.floats(-3.0, math.log10(12.0)).map(lambda e: 10.0**e),
    )
    @example(nu=-6.99999999999999, x=0.2)
    @settings(max_examples=200, deadline=None)
    def test_i_near_negative_integer_orders(self, nu, x):
        # the terms k < -nu carry a factor of order |nu + m|, so the series
        # dips near zero before its regular terms and must not stop there
        with mpmath.workdps(40):
            want = float(mpmath.besseli(mpmath.mpf(nu), mpmath.mpf(x)))
        assert abs(sf.bessel("I", nu, x) - want) <= 1e-10 * abs(want)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sf.bessel("H", 0.3, 1.0)

    def test_overflow_indicator(self):
        with pytest.raises(OverflowError):
            sf.bessel("I", 0.5, 800.0)

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

    @pytest.mark.parametrize("kind, ref, scaled_from", [("I", sp.ive, 30.0), ("K", kve, 2.0)])
    def test_scaled_against_reference_library(self, kind, ref, scaled_from):
        # past the cutover s = e^-x I, from the large-argument expansion, or
        # from it e^x K, from CF2; below it, the unscaled value itself
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
        # integer nu must use the log-series (Y) or Temme's series, uniform
        # in mu through mu = 0 (K), not a reflection blowup
        for n in (0, 1, 2, 5, 10):
            for x in (0.1, 0.9, 1.9, 5.0, 11.0):
                assert sf.bessel_y(float(n), x) == pytest.approx(sp.yn(n, x), rel=1e-10)
            for x in (0.1, 0.9, 1.9):
                assert sf.bessel("K", float(n), x) == pytest.approx(sp.kn(n, x), rel=1e-10)

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
        # no sin(pi nu) divisor near integers: Temme's series below x = 2 and
        # CF2 from 2 on are uniform in mu = |nu| - round(|nu|)
        nu, x = k + offset, 10.0**log_x
        assert sf.bessel("K", nu, x) == pytest.approx(sp.kv(nu, x), rel=1e-10)

    @given(
        nu=st.one_of(
            st.floats(-10.0, 10.0).map(snap_to_integer),
            st.floats(-10.0, 10.0).map(snap_to_integer),
            st.builds(lambda m, s, j: m + s * 10.0**-j, st.integers(-10, 10),
                      st.sampled_from([-1.0, 1.0]), st.floats(1.0, 15.0)),
        ).filter(lambda nu: abs(nu) <= 10.0),
        x=st.floats(-5.0, 2.0).map(lambda e: 10.0**e),
    )
    @example(nu=-6.99999999999999, x=0.2)
    @example(nu=-9.999999999999966, x=0.888)
    @settings(max_examples=150, deadline=None)
    def test_whole_domain_sweep(self, nu, x):
        # the 10-digit contract over |nu| <= 10 and 0 < x <= 100, a third of
        # the orders near an integer: I and K relative to their value, J
        # relative to the envelope sqrt(J^2 + Y^2) that its zeros sit under
        with mpmath.workdps(30):
            x_m = mpmath.mpf(x)
            # J_-n = (-1)^n J_n, Y alike, I_-n = I_n and K_-nu = K_nu: mpmath's
            # limit at a negative integer order takes seconds
            sign, order = ((-1) ** round(nu), -nu) if nu == round(nu) < 0 else (1, nu)
            order = mpmath.mpf(order)
            j, y = sign * mpmath.besselj(order, x_m), sign * mpmath.bessely(order, x_m)
            envelope = float(mpmath.sqrt(j * j + y * y))
            want = {"J": float(j), "I": float(mpmath.besseli(order, x_m)),
                    "K": float(mpmath.besselk(abs(order), x_m))}
        for kind, value in want.items():
            scale = envelope if kind == "J" else abs(value)
            assert abs(sf.bessel(kind, nu, x) - value) <= 1e-10 * scale, kind

    def test_k_tiny_argument(self):
        # small-x limits, exact in double precision here: K_nu(x) =
        # Gamma(nu)/2 (2/x)^nu and K_0(x) = -log(x/2) - Euler's gamma.
        # Temme's series forms K_(mu+1) as 2 sum1 / x: 2/x alone overflows
        # below x = 1e-308, where K_0.96(1e-320) = 1.58e307 and K_1(1e-308)
        # = 1e308 are finite.  Near the float maximum at orders 10 and 12,
        # the upward recurrence reaches K; past it K raises.  The array path
        # runs its kernels from sf._ARRAY_MIN_SIZE elements on.
        n = sf._ARRAY_MIN_SIZE
        for nu, x, want in [
            (3.0, 1e-100, 8e300),
            (-3.0, 1e-100, 8e300),
            (0.0, 1e-300, -math.log(0.5e-300) - 0.5772156649015329),
            (0.0, 3e-307, -math.log(1.5e-307) - 0.5772156649015329),
            (0.9, 1e-310, math.gamma(0.9) / 2.0 * 0.5e-310**-0.9),
            (1.0, 1e-308, 1e308),
            (0.96, 1e-320, math.gamma(0.96) / 2.0 * 2.0**0.96 * 1e-320**-0.96),
            (10.0, 1.07e-30, math.gamma(10.0) / 2.0 * (2.0 / 1.07e-30) ** 10),
            (-10.0, 1.2e-30, math.gamma(10.0) / 2.0 * (2.0 / 1.2e-30) ** 10),
            (12.0, 2e-25, math.gamma(12.0) / 2.0 * 1e300),
        ]:
            assert sf.bessel("K", nu, x) == pytest.approx(want, rel=1e-13)
            assert sf.bessel("K", np.full(n, nu), x).tolist() == [sf.bessel("K", nu, x)] * n
        with pytest.raises(OverflowError):
            sf.bessel("K", 10.0, 1e-31)
        with pytest.raises(OverflowError):
            sf.bessel("K", np.full(n, 10.0), 1e-31)


def mp_scaled_k(nu: float, x: float):
    """e^x K_nu(x) from x = 2 on, K_nu(x) below it, from mpmath at 30 digits."""
    with mpmath.workdps(30):
        x_m = mpmath.mpf(x)
        k = mpmath.besselk(abs(mpmath.mpf(nu)), x_m)
        return k * mpmath.exp(x_m) if x >= 2.0 else k


NEAR_INTEGER_ORDERS = st.one_of(
    st.builds(lambda k, s, j: k + s * 10.0**-j, st.integers(-10, 10).map(float),
              st.sampled_from([-1.0, 1.0]), st.integers(1, 15)),
    st.builds(math.nextafter, st.integers(-10, 10).map(float),
              st.sampled_from([-math.inf, math.inf])),
)


class TestTemmeK:
    """Temme's series below x = 2 and CF2 from 2 on, against mpmath."""

    def test_recip_gamma_coefficients(self):
        # the literals are the Taylor coefficients of 1/Gamma(1 + z) about 0
        with mpmath.workdps(25):
            want = mpmath.taylor(lambda z: mpmath.rgamma(1 + z), 0, len(sf._RECIP_GAMMA_TAYLOR) - 1)
            assert [float(c) for c in want] == list(sf._RECIP_GAMMA_TAYLOR)

    @given(mu=st.floats(-0.5, 0.5))
    @example(mu=0.0)
    @example(mu=1e-300)
    @example(mu=-1e-300)
    @example(mu=0.5)
    @example(mu=-0.5)
    @settings(max_examples=200, deadline=None)
    def test_temme_gammas(self, mu):
        # Gamma_1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu), -Euler's
        # gamma at mu = 0; 700 digits resolve the difference at mu = 1e-300
        with mpmath.workdps(700):
            m = mpmath.mpf(mu)
            plus, minus = mpmath.rgamma(1 + m), mpmath.rgamma(1 - m)
            g1 = (minus - plus) / (2 * m) if mu else -mpmath.euler
            want = [g1, (minus + plus) / 2, plus, minus]
        for got, value in zip(sf._temme_gammas(mu), want):
            assert abs(got - value) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("array_min_size", [None, 1])
    @given(
        nu=st.one_of(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                     NEAR_INTEGER_ORDERS, NEAR_INTEGER_ORDERS).filter(lambda v: abs(v) <= 10.0),
        x=st.one_of(
            st.floats(-320.0, -3.0).map(lambda e: 10.0**e),
            st.floats(1e-3, 2.0, exclude_max=True),
            st.floats(2.0, 8.0, exclude_max=True),
            st.floats(8.0, 20.0, exclude_max=True),
            st.floats(20.0, 200.0),
        ),
    )
    @example(nu=0.96, x=1e-320)
    @example(nu=0.5, x=2.0)
    @example(nu=-0.5, x=math.nextafter(2.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_scaled_k_sweep(self, array_min_size, nu, x):
        # s of bessel_scaled within 1e-14 of e^x K (x >= 2) or K (x < 2),
        # orders |nu| <= 10 and 40% of them near an integer; where K itself
        # leaves the float range, OverflowError
        want = mp_scaled_k(nu, x)
        assume(abs(want / sys.float_info.max - 1) > 1e-13)

        def call():
            if array_min_size is None:
                return sf.bessel_scaled("K", nu, x)[0]
            with mock.patch.object(sf, "_ARRAY_MIN_SIZE", array_min_size):
                return float(sf.bessel_scaled("K", np.array([nu]), np.array([x]))[0][0])

        if want > sys.float_info.max:
            with pytest.raises(OverflowError):
                call()
            return
        assert abs(call() - want) <= 1e-14 * want


class TestBesselDerivative:
    def test_j1_near_origin(self):
        # J_1'(x) -> 1/2 as x -> 0+
        assert bessel_derivative("J", 1.0, 1e-6) == pytest.approx(0.5, abs=1e-9)

    def test_half_order_analytic(self):
        # d/dx sqrt(2/(pi x)) sin x at x = pi/2 is -(2/pi)^2 / 2 * 2 = -2/pi^2
        x = math.pi / 2.0
        want = -2.0 / math.pi**2
        assert bessel_derivative("J", 0.5, x) == pytest.approx(want, rel=1e-12)

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
        got = bessel_derivative("Y", 0.4, 2.0)
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
                w = (sf.bessel_j(nu, x) * bessel_derivative("Y", nu, x)
                     - bessel_derivative("J", nu, x) * sf.bessel_y(nu, x))
                assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-9)

    def test_half_order_family(self):
        for x in np.geomspace(0.1, 60.0, 80):
            x = float(x)
            amp = math.sqrt(2.0 / (math.pi * x))
            assert abs(sf.bessel_j(0.5, x) - amp * math.sin(x)) <= 1e-10 * amp
            assert abs(sf.bessel_j(-0.5, x) - amp * math.cos(x)) <= 1e-10 * amp
            assert abs(sf.bessel("I", 0.5, x) - amp * math.sinh(x)) <= 1e-10 * amp * math.cosh(x)
            assert abs(sf.bessel("I", -0.5, x) - amp * math.cosh(x)) <= 1e-10 * amp * math.cosh(x)

    @given(
        st.floats(0.05, 2.5).filter(lambda v: abs(v - round(v)) > 1e-3),
        st.floats(0.2, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_wronskian_property(self, nu, x):
        w = (sf.bessel_j(nu, x) * bessel_derivative("Y", nu, x)
             - bessel_derivative("J", nu, x) * sf.bessel_y(nu, x))
        assert w == pytest.approx(2.0 / (math.pi * x), rel=1e-9)
