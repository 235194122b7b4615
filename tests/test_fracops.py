import math
import subprocess
import sys
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from fracriccati import cli
from fracriccati import fracops as fo
from fracriccati.errors import ConvergenceError, GammaPoleError
from fracriccati.grids import GridSpec
from frac_series import SeriesSpec, frac_chain, frac_leibniz

SQRT_PI = math.sqrt(math.pi)
FAST_Q = fo.QuadratureSpec(n_base=1024, tol=1e-8, max_doublings=5)
# sin with its derivatives in closed form, as the CLI builds it
SIN = fo.RealFunction(np.sin, lambda k: cli._SIN_DERIVS[k % 4])


def brute_rl_integral(f, alpha, x, panels=20000):
    """Independent oracle: substitute w = (x-t)^alpha so the kernel weight is
    integrated exactly and the remaining integrand is smooth, then Simpson."""
    w_hi = x**alpha
    w = np.linspace(0.0, w_hi, 2 * panels + 1)
    vals = np.array([f(x - wi ** (1.0 / alpha)) if wi > 0 else f(x) for wi in w])
    h = w_hi / (2 * panels)
    simp = (h / 3.0) * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
    return simp / (alpha * math.gamma(alpha))


class TestRlIntegral:
    def test_constant_closed_form(self):
        got = fo.rl_integral(fo.RealFunction.constant(1.0), 0.5, 1.0)
        assert got == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_zero_function(self):
        assert fo.rl_integral(fo.RealFunction.constant(0.0), 0.7, 3.0) == 0.0

    def test_sin_against_brute_force(self):
        got = fo.rl_integral(fo.RealFunction(np.sin), 0.5, 1.0)
        oracle = brute_rl_integral(math.sin, 0.5, 1.0)
        assert got == pytest.approx(oracle, abs=2e-8)
        # frozen from the oracle
        assert got == pytest.approx(0.6696842595776636, abs=2e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fo.rl_integral(fo.RealFunction.constant(1.0), 0.5, 0.0)
        with pytest.raises(ValueError):
            fo.rl_integral(fo.RealFunction.constant(1.0), -0.5, 1.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_order_is_refused(self, alpha):
        # refused up front: at alpha = inf the Gauss-Jacobi nodes would warn
        with pytest.raises(ValueError, match="order must be finite and positive"):
            fo.rl_integral(fo.RealFunction.constant(1.0), alpha, 1.0)

    @pytest.mark.parametrize("alpha", [180.0, 300.0, 1e300])
    def test_order_past_gammas_range_is_refused(self, alpha):
        # these used to raise ConvergenceError, a bare OverflowError or leak
        # numpy warnings from _gauss_jacobi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at most 170"):
                fo.rl_integral(fo.RealFunction.constant(1.0), alpha, 100.0)

    def test_overflowing_scale_is_not_finite_without_a_warning(self):
        # 1e3^170 overflows: the "not finite" error, not an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not finite at x=1000.0"):
                fo.rl_integral(fo.RealFunction.constant(1.0), 170.0, 1e3)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_x_is_refused(self, x):
        # refused up front: at x = inf every mesh doubling would warn and fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rl_integral requires a finite x > 0"):
                fo.rl_integral(fo.RealFunction.constant(1.0), 0.5, x)
            with pytest.raises(ValueError, match="rl_derivative requires a finite x > 0"):
                fo.rl_derivative(fo.RealFunction.power(1.0), 0.5, x)

    def test_nonconvergence_error(self):
        q = fo.QuadratureSpec(n_base=16, tol=1e-30, max_doublings=1)
        with pytest.raises(ConvergenceError):
            fo.rl_integral(fo.RealFunction(np.sin), 0.5, 1.0, q)

    def test_linear_exact_at_base_mesh(self):
        # Gauss-Jacobi holds f(t) = t exactly on [x/2, x], and the graded
        # Gauss-Legendre cells of [0, x/2] to round-off from the first level
        got = fo.rl_integral(fo.RealFunction.power(1.0), 0.3, 2.0, FAST_Q)
        want = fo.power_rule(1.0, -0.3, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    @given(st.integers(0, 4), st.floats(0.05, 2.0), st.floats(0.2, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_power_series_oracle(self, k, alpha, x):
        # I^alpha t^k = k!/Gamma(k+1+alpha) x^(k+alpha); mpmath.quad of the
        # singular kernel is no oracle here (3.8e-4 off at alpha = 0.1)
        got = fo.rl_integral(fo.RealFunction.power(float(k)), alpha, x)
        want = math.factorial(k) / math.gamma(k + 1.0 + alpha) * x ** (k + alpha)
        assert got == pytest.approx(want, rel=1e-10)

    @given(st.floats(0.05, 2.0), st.floats(0.2, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_within_tolerance(self, alpha, x):
        # sqrt(t) is not smooth at 0, but the geometric cells toward 0 keep
        # the rule's convergence exponential, so it holds far below tol
        got = fo.rl_integral(fo.RealFunction.power(0.5), alpha, x)
        want = math.gamma(1.5) / math.gamma(1.5 + alpha) * x ** (0.5 + alpha)
        assert got == pytest.approx(want, rel=1e-13)

    @given(st.floats(0.15, 0.95), st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity_property(self, alpha, x):
        # the stop test scales with f, so 3 f stops on the same level as f
        # and the two agree to round-off
        f = fo.RealFunction(np.sin)
        one = fo.rl_integral(f, alpha, x, FAST_Q)
        three = fo.rl_integral(fo.RealFunction(lambda t: 3.0 * np.sin(t)), alpha, x, FAST_Q)
        assert three == pytest.approx(3.0 * one, rel=1e-14)

    @pytest.mark.parametrize("a, alpha, x", [(0.1, 2.5, 1e-3), (0.1, 1.5, 1e-3), (0.5, 2.5, 1e-2)])
    def test_small_values_keep_their_relative_accuracy(self, a, alpha, x):
        # values of 4e-9 to 1e-5: a stop test absolute in the value would
        # pass these at the 1e-4 level
        got = fo.rl_integral(fo.RealFunction.power(a), alpha, x)
        assert got == pytest.approx(fo.power_rule(a, -alpha, x), rel=1e-12)

    @given(
        f=st.one_of(
            st.builds(lambda a: ("power", a), st.floats(0.0, 4.0)),
            st.builds(lambda c: ("poly", c), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5)),
            st.sampled_from([("sin", None), ("exp", None)]),
        ),
        alpha=st.floats(1e-12, 2.5),
        x=st.floats(1e-3, 50.0),
    )
    @example(f=("power", 0.1), alpha=0.3, x=50.0)
    @example(f=("sin", None), alpha=0.05, x=50.0)
    @example(f=("exp", None), alpha=2.5, x=50.0)
    @example(f=("poly", [2.2250738585072014e-308] * 2), alpha=1.76953125, x=0.001)
    @example(f=("poly", [5e-324]), alpha=1.0, x=2.0)
    @example(f=("poly", [2.225073858507e-311]), alpha=1.0, x=1.0)
    @example(f=("poly", [3.586e-320]), alpha=1.0, x=2.0)  # the rule's rounding floor
    @example(f=("poly", [-1.01687806e-316]), alpha=0.3, x=1.0)
    @settings(max_examples=150, deadline=None)
    def test_against_power_rule_and_series(self, f, alpha, x):
        # the oracle sums the power rule over the terms of f (mpmath for
        # the series of sin and exp), and the error is held to 1e-12 of the
        # sum of the terms' magnitudes: of |value| unless terms cancel.  A
        # subnormal value is only known to a floor of multiples of ulp(0.0):
        # the oracle rounds each power-rule part to one, and the rule each of
        # its Gauss products w f (at most (_CELLS + 1) _N_MAX per x), whose
        # sum it then scales by x^alpha / Gamma(alpha)
        kind, arg = f
        if kind == "power":
            func, terms = fo.RealFunction.power(arg), [(1.0, arg)]
        elif kind == "poly":
            func, terms = fo.RealFunction.polynomial(arg), list(zip(arg, range(len(arg))))
        else:
            func = fo.RealFunction(np.sin if kind == "sin" else np.exp)
            terms = None
        got = fo.rl_integral(func, alpha, x)
        if terms is not None:
            parts = [c * fo.power_rule(float(j), -alpha, x) for c, j in terms]
            want, scale = math.fsum(parts), math.fsum(abs(p) for p in parts)
            products = (fo._CELLS + 1) * fo._N_MAX * max(1.0, x**alpha / math.gamma(alpha))
            floor = (len(parts) + products) * math.ulp(0.0)
        else:
            (want, scale), floor = series_rl_integral(kind, alpha, x), 0.0
        assert abs(got - want) <= max(1e-12 * scale, floor)

    @given(st.floats(-0.99, -0.01), st.floats(0.05, 2.5), st.floats(1e-3, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_negative_powers_hold_the_tolerance_or_raise(self, a, alpha, x):
        # t^a with a < 0 is not resolved to 1e-12: the cell [0, x r^12 / 2]
        # next to 0 holds a share r^(12 (1 + a)) of the value, which its one
        # Gauss-Legendre rule does not integrate exactly; a value that passes
        # the stop test is still good to about the tolerance
        try:
            got = fo.rl_integral(fo.RealFunction.power(a), alpha, x)
        except ConvergenceError:
            return
        assert got == pytest.approx(fo.power_rule(a, -alpha, x), rel=1e-6)

    KINK = fo.RealFunction(lambda t: np.abs(t - 0.3))

    def test_tolerance_past_reach_stops_at_the_node_cap(self):
        # a kink inside a cell slows the rule to an algebraic order, so a
        # tight tolerance doubles to 512 nodes per cell and no further
        with mock.patch.object(fo, "_gauss_level", wraps=fo._gauss_level) as spy:
            with pytest.raises(ConvergenceError, match="cap of 512"):
                fo.rl_integral(self.KINK, 0.5, 1.0, fo.QuadratureSpec(tol=1e-14))
        assert [c.args[3] for c in spy.call_args_list] == [8, 16, 32, 64, 128, 256, 512]

    def test_budget_limits_the_evaluations(self):
        # 14 n evaluations per level: 8 + 16 + 32 nodes per cell take 784,
        # and a budget of 1 024 stops before the level of 64
        q = fo.QuadratureSpec(n_base=16, tol=1e-14, max_doublings=6)
        with mock.patch.object(fo, "_gauss_level", wraps=fo._gauss_level) as spy:
            with pytest.raises(ConvergenceError, match="budget of 1024"):
                fo.rl_integral(self.KINK, 0.5, 1.0, q)
        assert spy.call_count == 3

    def test_non_finite_value_raises_at_once(self):
        with np.errstate(all="ignore"):
            with mock.patch.object(fo, "_gauss_level", wraps=fo._gauss_level) as spy:
                with pytest.raises(ConvergenceError, match="not finite at x=1000"):
                    fo.rl_integral(fo.RealFunction(np.exp), 0.5, np.array([1.0, 1e3]))
        assert spy.call_count == 1


def series_rl_integral(kind, alpha, x):
    """I^alpha of sin or exp at x from the power rule on the Taylor series,
    in mpmath at 50 digits: (value, sum of the terms' magnitudes)."""
    with mpmath.workdps(50):
        a, xm = mpmath.mpf(alpha), mpmath.mpf(x)

        def term(k):
            return xm ** (k + a) / mpmath.gamma(k + 1 + a)

        if kind == "exp":
            value = mpmath.nsum(term, [0, mpmath.inf])
            return float(value), float(value)
        value = mpmath.nsum(lambda j: (-1) ** j * term(2 * j + 1), [0, mpmath.inf])
        # |sin| <= 1, so I^alpha 1 bounds I^alpha |sin|
        return float(value), float(xm**a / mpmath.gamma(1 + a))


class TestGaussNodes:
    @staticmethod
    def golub_welsch(n, alpha):
        """Nodes and weights of the weight (1 - u)^(alpha-1) on [-1, 1] from
        the eigen-decomposition of the Jacobi matrix (Golub & Welsch, Math.
        Comp. 23, 1969), in increasing order."""
        a = alpha - 1.0
        k = np.arange(n, dtype=float)
        s = 2.0 * k + a
        diag = np.where(k == 0, -a / (a + 2.0), -a * a / np.where(k == 0, 1.0, s * (s + 2.0)))
        k = k[1:]
        s = 2.0 * k + a
        off = np.sqrt(4.0 * k * (k + a) * k * (k + a) / (s * s * (s + 1.0) * (s - 1.0)))
        lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        return lam, 2.0**alpha / alpha * vec[0] ** 2

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 1.0, 1.5, 2.5, 5.0])
    def test_newton_nodes_match_golub_welsch(self, n, alpha):
        theta, w = fo._gauss_jacobi(n, alpha)
        lam, w_gw = self.golub_welsch(n, alpha)
        np.testing.assert_allclose(np.cos(theta)[::-1], lam, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w[::-1], w_gw, rtol=0, atol=1e-14 * w_gw.sum())

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_legendre_nodes_match_golub_welsch(self, n):
        theta, w = fo._gauss_jacobi(n, 1.0)
        lam, w_gw = self.golub_welsch(n, 1.0)
        np.testing.assert_allclose(np.cos(theta)[::-1], lam, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w[::-1], w_gw, rtol=0, atol=1e-14 * w_gw.sum())

    def test_nodes_near_one_keep_their_digits(self):
        # at alpha = 0.05 and n = 128 the nodes next to u = 1 carry most of
        # the mass; mpmath's roots of P_128 at 40 digits hold their angles
        # and weights to 1e-14, where Golub-Welsch is 1e-13 off
        n, alpha = 128, 0.05
        theta, w = fo._gauss_jacobi(n, alpha)
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha) - 1

            def p(m, t):
                return mpmath.jacobi(m, a, 0, mpmath.cos(t))

            for k in range(4):
                t = mpmath.findroot(lambda t: p(n, t), mpmath.mpf(theta[k]))
                c = 2 * n + a
                big_n = n * (a - c * mpmath.cos(t)) * p(n, t) + 2 * n * (n + a) * p(n - 1, t)
                weight = 2 ** (a + 1) * (c * mpmath.sin(t) / big_n) ** 2
                assert abs(theta[k] - t) <= 1e-14 * t
                assert abs(w[k] - weight) <= 1e-14 * weight

    def test_nothing_is_computed_at_import(self):
        code = (
            "import fracriccati.cli, fracriccati.fracops as fo\n"
            "assert fo._unit_rule.cache_info().currsize == 0\n"
            "assert fo._legendre_cells.cache_info().currsize == 0\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestRlDerivative:
    def test_lacroix_half_derivative(self):
        got = fo.rl_derivative(fo.RealFunction.power(1.0), 0.5, 1.0)
        assert got == pytest.approx(2.0 / SQRT_PI, rel=1e-9)

    def test_zero_order_is_identity(self):
        f = fo.RealFunction(np.sin)
        assert fo.rl_derivative(f, 0.0, 1.3) == math.sin(1.3)

    def test_integer_order_is_ordinary(self):
        assert fo.rl_derivative(SIN, 1.0, 1.3) == pytest.approx(math.cos(1.3), rel=1e-15)

    def test_power_oracle(self):
        got = fo.rl_derivative(fo.RealFunction.power(2.0), 0.3, 1.0)
        assert got == pytest.approx(1.2947616535572536, rel=1e-7)

    def test_order_between_one_and_two(self):
        # D^1.5 t^2 = Gamma(3)/Gamma(1.5) sqrt(x)
        got = fo.rl_derivative(fo.RealFunction.power(2.0), 1.5, 1.0)
        assert got == pytest.approx(fo.power_rule(2.0, 1.5, 1.0), rel=1e-6)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fo.rl_derivative(fo.RealFunction(np.sin), 2.0, 1.0)

    @given(st.integers(1, 4), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_power_rule_between_one_and_two(self, k, beta, x):
        # one RL integral of alpha(alpha-1) f + 2 alpha t f' + t^2 f'', so no
        # second difference loses digits to round-off
        got = fo.rl_derivative(fo.RealFunction.power(float(k)), beta, x)
        assert got == pytest.approx(fo.power_rule(float(k), beta, x), rel=1e-10)

    def test_bare_callable_is_refused_before_quadrature(self):
        # f' has no closed form: nothing is differenced and nothing integrated
        with mock.patch.object(fo, "_gauss_level", wraps=fo._gauss_level) as spy:
            with pytest.raises(ValueError, match="derivative of order 1"):
                fo.rl_derivative(np.sin, 0.5, 1.0)
        assert spy.call_count == 0

    @given(st.floats(0.0, 4.0), st.floats(0.0, 2.0, exclude_max=True), st.floats(1e-3, 50.0))
    @example(0.5, 1.46, 0.92)
    @example(0.1, 0.5, 2.0)
    @example(1.192092896e-07, 1.9999999999999996, 1.0)  # a + 1 - beta by the pole -1
    @example(1e-12, 1.9999999999999996, 1.0)
    @settings(max_examples=100, deadline=None)
    def test_power_rule_whole_order_range(self, a, beta, x):
        # D^beta t^a for beta in [0, 2), held to 1e-10 of the magnitudes of
        # the integrand's terms: of |value| unless a + 1 - beta is near a
        # pole of Gamma, where the terms cancel
        got = fo.rl_derivative(fo.RealFunction.power(a), beta, x)
        n = math.ceil(beta)
        alpha = n - beta
        if alpha == 0.0:  # beta = 0 or 1: the ordinary derivative
            assert got == (x**a if n == 0 else a * x ** (a - 1.0))
            return
        try:
            want = fo.power_rule(a, beta, x)
        except GammaPoleError:
            want = 0.0
        coef = (alpha, a) if n == 1 else (alpha * (alpha - 1.0), 2.0 * alpha * a, a * (a - 1.0))
        scale = math.fsum(map(abs, coef)) * abs(fo.power_rule(a, -alpha, x)) / x**n
        assert abs(got - want) <= 1e-10 * scale

    @pytest.mark.parametrize("beta", [0.5, 1.3, 1.5, 1.95])
    def test_bare_sin_against_series(self, beta):
        # D^beta sin = sum_k (-1)^k x^(2k+1-beta) / Gamma(2k+2-beta), on sin
        # with closed-form derivatives
        for x in (1e-3, 0.05, 0.25, 1.0):
            want = math.fsum((-1) ** k * x ** (2 * k + 1 - beta) / math.gamma(2 * k + 2 - beta)
                             for k in range(12))
            assert fo.rl_derivative(SIN, beta, x) == pytest.approx(want, rel=1e-13), x

    def test_agreement_matrix(self):
        for a in (1.0, 2.0, 2.5):
            f = fo.RealFunction.power(a)
            for beta in (0.3, 0.5, 0.7):
                for x in (0.5, 1.0, 4.0):
                    got = fo.rl_derivative(f, beta, x)
                    want = fo.power_rule(a, beta, x)
                    assert abs(got - want) <= 1e-6 * abs(want), (a, beta, x)


class TestPowerRule:
    def test_lacroix(self):
        assert fo.power_rule(1.0, 0.5, 1.0) == pytest.approx(1.1283791670955126, rel=1e-13)

    def test_ordinary_cube(self):
        assert fo.power_rule(3.0, 1.0, 2.0) == pytest.approx(12.0, rel=1e-13)

    def test_generic(self):
        assert fo.power_rule(2.5, 0.7, 1.3) == pytest.approx(3.1788722209850411, rel=1e-12)

    def test_gamma_pole(self):
        for a, beta in ((1.0, 2.0), (0.0, 1.0)):
            with pytest.raises(GammaPoleError):
                fo.power_rule(a, beta, 1.0)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            fo.power_rule(-1.0, 0.5, 1.0)

    @given(st.floats(171.0, 1000.0), st.floats(0.0, 2.0, exclude_max=True),
           st.floats(0.5, 2.0))
    @example(171.0, 0.5, 1.0)  # Gamma(172) is inf, Gamma(171.5) is not
    @example(400.0, 1.0, 2.0)  # gamma(401) raises OverflowError from float pow
    @example(170.7, 172.2, 1.0)  # Gamma(a+1-beta) = Gamma(-0.5) < 0
    @settings(max_examples=60, deadline=None)
    def test_past_the_float_range_of_gamma(self, a, beta, x):
        with mpmath.workdps(40):
            a1 = mpmath.mpf(a) + 1
            want = mpmath.gamma(a1) / mpmath.gamma(a1 - beta) * mpmath.mpf(x) ** (a1 - 1 - beta)
        assert fo.power_rule(a, beta, x) == pytest.approx(float(want), rel=1e-11)

    @pytest.mark.parametrize("a, beta, x", [(1.0, -300.0, 1.0), (1.0, -200.0, 100.0)])
    def test_integral_past_the_float_range(self, a, beta, x):
        # both used to raise a bare OverflowError; the first underflows to 0,
        # the second is about 6.3e24
        with mpmath.workdps(40):
            want = mpmath.gamma(a + 1) / mpmath.gamma(a + 1 - beta) * mpmath.mpf(x) ** (a - beta)
        assert fo.power_rule(a, beta, x) == pytest.approx(float(want), rel=1e-11, abs=0.0)

    @given(st.floats(1e-15, 1e-3), st.sampled_from([0.0, 1.0]), st.floats(0.1, 4.0))
    @example(1.192092896e-07, 1.0, 1.0)
    @example(1e-12, 1.0, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_next_to_a_pole(self, eps, m, x):
        # a = eps, beta = 1 + m: a + 1 - beta is eps away from the pole -m of
        # Gamma, and a + 1 rounds by up to ulp(1) / 2, which the quotient
        # would take as a relative error of ulp(1) / (2 eps)
        beta = 1.0 + m
        with mpmath.workdps(40):
            a1 = mpmath.mpf(eps) + 1
            want = mpmath.gamma(a1) / mpmath.gamma(a1 - beta) * mpmath.mpf(x) ** (a1 - 1 - beta)
        assert fo.power_rule(eps, beta, x) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a, beta, x", [(1e-16, 1.0, 1.0), (1e-16, 2.0, 1.5),
                                            (1e-16, 3.0, 2.0)])
    def test_rounded_onto_a_pole(self, a, beta, x):
        # a + 1 - beta rounds onto the pole 0, -1 or -2, but a + 1 lost
        # 1e-16: the values are about 1e-16, -4.444e-17 and 2.5e-17
        with mpmath.workdps(40):
            a1 = mpmath.mpf(a) + 1
            want = mpmath.gamma(a1) / mpmath.gamma(a1 - beta) * mpmath.mpf(x) ** (a1 - 1 - beta)
        assert fo.power_rule(a, beta, x) == pytest.approx(float(want), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("a, beta, x", [(0.5, 182.0, 100.0), (1e-16, 172.0, 100.0)])
    def test_denominator_gamma_past_the_float_range(self, a, beta, x):
        # Gamma(-180.5) underflows to -0.0, and next to the pole -171 the
        # factor 171! overflows: both quotients are taken in logs
        with mpmath.workdps(40):
            a1 = mpmath.mpf(a) + 1
            want = mpmath.gamma(a1) / mpmath.gamma(a1 - beta) * mpmath.mpf(x) ** (a1 - 1 - beta)
        assert fo.power_rule(a, beta, x) == pytest.approx(float(want), rel=1e-11, abs=0.0)


class TestFracConst:
    def test_delta_one_is_exact_identity(self):
        for x in (0.1, 1.0, 7.0, 123.0):
            assert fo.frac_const(1.0, 1.0, x) == 1.0
            assert fo.frac_const(-3.7, 1.0, x) == -3.7

    def test_linear_in_b(self):
        assert fo.frac_const(0.0, 0.3, 2.0) == 0.0

    def test_generic_value(self):
        assert fo.frac_const(-2.0, 0.5, 4.0) == pytest.approx(-4.513516668382050, rel=1e-12)

    def test_matches_rl_integral(self):
        for b in (1.0, -2.0):
            for delta in (0.25, 0.5, 0.9):
                for x in (0.5, 1.0, 4.0):
                    got = fo.rl_integral(fo.RealFunction.constant(b), 1.0 - delta, x)
                    assert got == pytest.approx(fo.frac_const(b, delta, x), rel=1e-8)


class TestLeibniz:
    def test_constant_left_factor_collapses(self):
        r = frac_leibniz(fo.RealFunction.constant(1.0), SIN, 0.5, 1.0, SeriesSpec(3), FAST_Q)
        assert r.value == pytest.approx(fo.rl_derivative(SIN, 0.5, 1.0, FAST_Q), rel=1e-12)

    def test_linear_times_one(self):
        r = frac_leibniz(
            fo.RealFunction.power(1.0), fo.RealFunction.constant(1.0), 0.5, 1.0,
            SeriesSpec(2), FAST_Q,
        )
        assert r.value == pytest.approx(2.0 / SQRT_PI, rel=1e-9)

    def test_linear_times_linear(self):
        r = frac_leibniz(
            fo.RealFunction.power(1.0), fo.RealFunction.power(1.0), 0.5, 1.0,
            SeriesSpec(2), FAST_Q,
        )
        assert r.value == pytest.approx(1.5045055561273501, rel=1e-9)
        assert r.last_term == 0.0  # series truncates exactly on polynomials


class TestChain:
    def test_constant_composite(self):
        r = frac_chain(fo.RealFunction.constant(1.0), 0.5, 1.0, SeriesSpec(3))
        assert r.value == pytest.approx(0.5641895835477563, rel=1e-13)

    def test_identity_composite(self):
        r = frac_chain(fo.RealFunction.power(1.0), 0.5, 1.0, SeriesSpec(3))
        assert r.value == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_square_composite(self):
        r = frac_chain(fo.RealFunction.power(2.0), 0.5, 1.0, SeriesSpec(3))
        assert r.value == pytest.approx(1.5045055561273501, rel=1e-13)

    def test_exact_truncation_on_polynomials(self):
        # once the truncation order passes the degree, the value is frozen
        p = fo.RealFunction.polynomial([1.0, -2.0, 0.5, 3.0])
        v3 = frac_chain(p, 0.7, 1.4, SeriesSpec(3)).value
        v9 = frac_chain(p, 0.7, 1.4, SeriesSpec(9)).value
        assert v3 == pytest.approx(v9, rel=1e-14)
        # and equals the power-rule combination
        want = sum(
            c * fo.power_rule(j, 0.7, 1.4) if j or True else 0.0
            for j, c in enumerate([1.0, -2.0, 0.5, 3.0])
            if not (j == 0 and False)
        )
        # j = 0 term: D^0.7 of 1 = x^-0.7/Gamma(0.3)
        want = (
            1.0 * 1.4 ** (-0.7) / math.gamma(0.3)
            + -2.0 * fo.power_rule(1.0, 0.7, 1.4)
            + 0.5 * fo.power_rule(2.0, 0.7, 1.4)
            + 3.0 * fo.power_rule(3.0, 0.7, 1.4)
        )
        assert v9 == pytest.approx(want, rel=1e-12)


class TestTruncationWarning:
    # e^x has undamped derivatives, so at x = 10 the k = 3 term outgrows the k = 2 one
    EXP = fo.RealFunction(math.exp, lambda k: math.exp)

    def test_growing_last_term_warns_at_the_caller(self):
        with pytest.warns(UserWarning, match="frac_chain: terms not decaying") as rec:
            frac_chain(self.EXP, 0.5, 10.0, SeriesSpec(3))
        assert rec[0].filename == __file__
        one = fo.RealFunction.constant(1.0)
        with pytest.warns(UserWarning, match="frac_leibniz: terms not decaying") as rec:
            frac_leibniz(self.EXP, one, 0.5, 10.0, SeriesSpec(3), FAST_Q)
        assert rec[0].filename == __file__

    def test_decaying_terms_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frac_chain(self.EXP, 0.5, 0.1, SeriesSpec(3))


class TestSolveLinear:
    def test_classical_limit(self):
        u = fo.solve_linear_fractional(
            fo.RealFunction.constant(0.0), fo.RealFunction.constant(2.0),
            1.0, GridSpec(0.5, 2.0, 7), 3.0, FAST_Q,
        )
        for x in u.xs:
            assert u(float(x)) == pytest.approx(2.0 * x + 3.0, abs=1e-10)

    def test_fractional_constant_forcing(self):
        b = 2.0
        u = fo.solve_linear_fractional(
            fo.RealFunction.constant(0.0), fo.RealFunction.constant(b),
            0.5, GridSpec(0.5, 2.0, 7), 0.0, FAST_Q,
        )
        for x in u.xs:
            want = b * x**1.5 / (1.5 * math.gamma(1.5))
            assert u(float(x)) == pytest.approx(want, rel=1e-7)

    def test_homogeneous_integrating_factor(self):
        u = fo.solve_linear_fractional(
            fo.RealFunction.constant(1.0), fo.RealFunction.constant(0.0),
            0.7, GridSpec(0.5, 2.0, 7), 1.0, FAST_Q,
        )
        for x in u.xs:
            assert u(float(x)) == pytest.approx(math.exp(-(x - 0.5)), rel=1e-9)

    def test_delta_one_matches_classical_formula(self):
        # u' + x u = x, u(0.5) known: compare against the classical solution
        # u = 1 + C exp(-x^2/2)
        p = fo.RealFunction(lambda t: t)
        g = fo.RealFunction(lambda t: t)
        u = fo.solve_linear_fractional(p, g, 1.0, GridSpec(0.5, 2.0, 7), 1.5, FAST_Q)
        # fix C from the computed value at the grid start
        x0 = 0.5
        c_val = (u(x0) - 1.0) / math.exp(-(x0**2) / 2.0)
        for x in u.xs:
            want = 1.0 + c_val * math.exp(-(x**2) / 2.0)
            assert u(float(x)) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("count", [2, 3])
    def test_two_and_three_point_grids(self, count):
        u = fo.solve_linear_fractional(
            fo.RealFunction.constant(0.0), fo.RealFunction.constant(2.0),
            0.5, GridSpec(0.5, 2.0, count), 0.0, FAST_Q,
        )
        assert u.xs.size == count
        for x in u.xs:
            want = 2.0 * x**1.5 / (1.5 * math.gamma(1.5))
            assert u(float(x)) == pytest.approx(want, rel=1e-7)

    def test_grid_must_start_positive(self):
        with pytest.raises(ValueError):
            fo.solve_linear_fractional(
                fo.RealFunction.constant(0.0), fo.RealFunction.constant(1.0),
                0.5, GridSpec(0.0, 1.0, 5), 0.0, FAST_Q,
            )

    @pytest.mark.parametrize("delta", [0.35, 0.7, 0.95])
    @pytest.mark.parametrize("a", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("p0", [-0.4, -0.85])
    def test_damped_power_forcing_closed_form(self, delta, a, p0):
        # u' + p0 u = D^(delta-1) t^a: with lam = -p0, xs the grid start and
        # v = Gamma(a+1)/Gamma(m) s^(m-1), m = a + 2 - delta,
        # u = e^(lam (x - xs)) [int_0^x e^(-lam (s - xs)) v ds + c], and
        # int_0^x e^(-lam s) s^(m-1) ds = lam^-m Gamma(m) P(m, lam x)
        grid, c = GridSpec(0.5, 2.5, 6), 0.3
        u = fo.solve_linear_fractional(
            fo.RealFunction.constant(p0), fo.RealFunction.power(a), delta, grid, c
        )
        x, xs, lam, m = grid.points(), 0.5, -p0, a + 2.0 - delta
        integral = math.gamma(a + 1.0) * lam**-m * special.gammainc(m, lam * x)
        want = np.exp(lam * (x - xs)) * (np.exp(lam * xs) * integral + c)
        np.testing.assert_allclose(u.ys, want, rtol=1e-12)

    @pytest.mark.parametrize("delta", [0.35, 0.5, 0.9])
    @pytest.mark.parametrize("a", [0.0, 1.5])
    def test_linear_p_against_mpmath(self, delta, a):
        # u' + t u = D^(delta-1) t^a: mu(s) = exp((s^2 - xs^2)/2) and
        # v = Gamma(a+1)/Gamma(m) s^(m-1), m = a + 2 - delta, integrated by
        # mpmath at 30 digits
        grid, c, xs, m = GridSpec(0.5, 2.0, 7), 0.4, 0.5, a + 2.0 - delta
        u = fo.solve_linear_fractional(fo.RealFunction(lambda t: t), fo.RealFunction.power(a),
                                       delta, grid, c)
        with mpmath.workdps(30):
            mu = lambda s: mpmath.exp((s * s - xs * xs) / 2)
            coef = mpmath.gamma(a + 1) / mpmath.gamma(m)
            want = np.array([float((coef * mpmath.quad(lambda s: mu(s) * s ** (m - 1), [0, x]) + c)
                                   / mu(x)) for x in grid.points()])
        assert np.all(np.abs(u.ys - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_one_integral_per_point_without_p(self, delta):
        # with p = 0 the integrating factor is 1: int_0^x p on the grid, one
        # correction call per point whose integrand is 0 without a call, and
        # one profile call of g, W = I^(2-delta) g on the whole grid
        grid, g = GridSpec(0.5, 2.0, 7), fo.RealFunction.power(1.0)
        with mock.patch.object(fo, "rl_integral", wraps=fo.rl_integral) as spy:
            fo.solve_linear_fractional(fo.RealFunction.constant(0.0), g, delta, grid, 1.0, FAST_Q)
        assert spy.call_count == 2 + grid.count
        (on_g,) = [call.args for call in spy.call_args_list if call.args[0] is g]
        np.testing.assert_array_equal(on_g[2], grid.points())


class TestRealFunction:
    def test_power_derivatives(self):
        f = fo.RealFunction.power(2.5)
        assert f.derivative(1)(2.0) == pytest.approx(2.5 * 2.0**1.5, rel=1e-13)
        assert f.derivative(2)(2.0) == pytest.approx(2.5 * 1.5 * 2.0**0.5, rel=1e-13)

    def test_polynomial_derivatives(self):
        p = fo.RealFunction.polynomial([1.0, 0.0, 3.0])  # 1 + 3 t^2
        assert p(2.0) == 13.0
        assert p.derivative(1)(2.0) == 12.0
        assert p.derivative(2)(2.0) == 6.0
        assert p.derivative(5)(2.0) == 0.0

    def test_fd_fallback(self):
        # there is none: a derivative without a closed form is refused
        f = fo.RealFunction(np.sin)
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match=f"derivative of order {k}"):
                f.derivative(k)

    @pytest.mark.parametrize("xs, ys, match", [
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0], "finite"),
        ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0], "finite"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], "one value per knot"),
        ([0.0, 1.0], [[0.0, 1.0]], "one value per knot"),
    ])
    def test_bad_samples_are_refused(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            fo.SampledFunction(xs, ys)

    def test_from_samples_roundtrip(self):
        xs = np.linspace(0.0, 2.0, 50)
        f = fo.RealFunction.from_samples(xs, np.exp(xs))
        # natural end conditions cost accuracy near the boundary knots
        for x in (0.5, 0.77, 1.5):
            assert f(x) == pytest.approx(math.exp(x), rel=1e-6)
            assert f.derivative(1)(x) == pytest.approx(math.exp(x), rel=1e-4)
        for x in (0.1, 1.9):
            assert f(x) == pytest.approx(math.exp(x), rel=1e-4)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        g = GridSpec(0.0, 1.0, 5)
        assert g.points().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestQuadratureSpecValidation:
    def test_bad_mesh(self):
        with pytest.raises(ValueError):
            fo.QuadratureSpec(n_base=8)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            fo.QuadratureSpec(tol=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_doublings": -3},  # no mesh fits the budget
            {"max_doublings": 2.5},
            {"n_base": 100.5},  # the budget counts whole evaluations
            {"tol": math.inf},  # any first value would pass
        ],
    )
    def test_unusable_values_are_refused(self, kw):
        with pytest.raises(ValueError):
            fo.QuadratureSpec(**kw)

    def test_bad_series(self):
        with pytest.raises(ValueError):
            SeriesSpec(-1)
