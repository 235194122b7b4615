import math

import numpy as np
import pytest

from fracriccati import odeverify as ov
from fracriccati import riccati as rc
from fracriccati.errors import MaxStepsError, StepUnderflowError
from riccati_points import eval_u1, eval_y_branch


class TestIntegrateRiccati:
    def test_coth_propagation(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        got = ov.integrate(ov.riccati_rhs(rp), [0.5, 1.0], 1.0 / math.tanh(0.5))[1, 0]
        assert got == pytest.approx(1.3130352854993313, abs=1e-8)

    def test_equilibrium_is_fixed(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        got = ov.integrate(ov.riccati_rhs(rp), [0.5, 5.0], 1.0)[1, 0]
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_cross_oracle_fractional(self):
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        u0 = eval_u1(rp, 0.5)
        got = ov.integrate(ov.riccati_rhs(rp), [0.5, 1.2], u0)[1, 0]
        want = eval_u1(rp, 1.2)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_underflow_through_pole(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)  # cot: pole at pi
        u0 = eval_u1(rp, 2.0)
        with pytest.raises(StepUnderflowError):
            ov.integrate(ov.riccati_rhs(rp), [2.0, 4.0], u0)

    def test_max_steps(self, monkeypatch):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        monkeypatch.setattr(ov, "_MAX_STEPS", 3)
        with pytest.raises(MaxStepsError, match="exceeded 3 steps"):
            ov.integrate(ov.riccati_rhs(rp), [0.5, 100.0], 1.0)


def refused_before_any_step(xs, y0, bad):
    """integrate(rhs, xs, y0) raises ValueError matching bad with no rhs call."""
    calls = []
    rhs = ov.riccati_rhs(rc.RiccatiParams(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match=bad):
        ov.integrate(lambda x, u: calls.append(x) or rhs(x, u), xs, y0)
    assert calls == []


class TestIvpSpec:
    # the end checks of the old (x0, u0, x1) spec, now made by integrate on [x0, x1]
    @pytest.mark.parametrize("x0, x1", [(0.5, math.inf), (0.5, math.nan), (math.inf, 2.0)])
    def test_non_finite_ends(self, x0, x1):
        # an infinite x1 used to run into the step bound after 0.8 s
        bad = x1 if math.isfinite(x0) else x0
        refused_before_any_step([x0, x1], 2.0, f"xs must be finite, got {bad!r}")


class TestPoints:
    @pytest.mark.parametrize("xs, bad", [
        ([0.5, 1.0, 0.8, 2.0], "0.8 after 1.0"),
        ([0.5, 0.5, 1.0], "0.5 after 0.5"),
        ([2.0, 1.0, 1.5], "1.5 after 1.0"),
        ([0.5, math.nan, 1.0], "finite, got nan"),
        ([0.5, math.inf], "finite, got inf"),
        ([-math.inf, 1.0], "finite, got -inf"),
        ([], "non-empty"),
        ([[0.5, 1.0]], "non-empty"),
        ([-1.0, 1.0], "positive, got -1.0"),
        ([0.0, 1.0], "positive, got 0.0"),
        ([2.0, 1.0, -0.0], "positive, got -0.0"),
    ])
    def test_malformed_points_are_refused_before_any_step(self, xs, bad):
        # these used to read as a pole (StepUnderflowError) or run into the
        # step bound (MaxStepsError); x <= 0 is outside every rhs's x**e
        refused_before_any_step(xs, 1.0, bad)

    @pytest.mark.parametrize("y0", [math.nan, math.inf, (math.nan, 1.0), (0.3, -math.inf)])
    def test_non_finite_start_value_is_refused_before_any_step(self, y0):
        # a non-finite y0 used to end in "step size underflow ... likely a pole"
        refused_before_any_step([0.5, 2.0], y0, r"y0 must be finite, got \S+")

    def test_one_point(self):
        got = ov.integrate(ov.riccati_rhs(rc.RiccatiParams(1.0, 1.0, 1.0)), [0.5], 2.0)
        assert got.shape == (1, 1) and got[0, 0] == 2.0


def spy_rhs(monkeypatch, name, record):
    """Make ov.<name> build right-hand sides that pass (x, state, result) of
    every call to record."""
    make = getattr(ov, name)

    def spied(rp):
        rhs = make(rp)

        def f(x, state):
            out = rhs(x, state)
            record(x, state, out)
            return out
        return f

    monkeypatch.setattr(ov, name, spied)


class TestStateKind:
    # one component is carried as a float, two as an ndarray; the pinned
    # bits below hold for both
    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0), (1.0, -1.0, 0.5), (2, 3, 0.3)])
    def test_riccati_rhs_sees_only_floats(self, monkeypatch, params):
        kinds = set()
        spy_rhs(monkeypatch, "riccati_rhs", lambda *args: kinds.add(tuple(map(type, args))))
        rp = rc.RiccatiParams(*params)
        ov.integrate(ov.riccati_rhs(rp), [0.5, 1.5], 0.25)
        xs = np.linspace(0.5, 1.5, 9)
        ov.riccati_trajectory(rp, xs, np.tanh(xs))
        assert kinds == {(float, float, float)}

    def test_linear_rhs_sees_only_arrays(self, monkeypatch):
        kinds = set()
        spy_rhs(monkeypatch, "linear_rhs", lambda x, state, out: kinds.add(
            (type(x), type(state), state.shape, state.dtype, type(out), out.shape, out.dtype)))
        ov.integrate(ov.linear_rhs(rc.RiccatiParams(1.0, -1.0, 0.6)), [0.5, 1.5], (0.3, 0.8))
        f8 = np.dtype(float)
        assert kinds == {(float, np.ndarray, (2,), f8, np.ndarray, (2,), f8)}

    @pytest.mark.parametrize("params, u0", [((1.0, 1.0, 1.0), 1.0 / math.tanh(0.5)),
                                            ((1.0, -1.0, 0.5), 1.7), ((2.0, 0.5, 0.3), -0.0)])
    def test_one_component_forms_have_the_same_bits(self, params, u0):
        rhs = ov.riccati_rhs(rc.RiccatiParams(*params))
        xs = np.linspace(0.5, 1.2, 6)
        got = [ov.integrate(rhs, xs, y0) for y0 in (u0, [u0], np.array([u0]), np.float64(u0))]
        assert all(g.shape == (6, 1) for g in got)
        assert len({g.tobytes() for g in got}) == 1


class TestIntegrateLinear:
    def test_trig_case(self):
        rp = rc.RiccatiParams(1.0, -1.0, 1.0)  # y'' + y = 0
        y1, yp1 = ov.integrate(ov.linear_rhs(rp), [0.5, 2.0], (math.sin(0.5), math.cos(0.5)))[1]
        assert y1 == pytest.approx(math.sin(2.0), abs=1e-9)
        assert yp1 == pytest.approx(math.cos(2.0), abs=1e-9)

    def test_hyperbolic_case(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)  # y'' - y = 0
        y1, yp1 = ov.integrate(ov.linear_rhs(rp), [0.5, 2.0], (math.sinh(0.5), math.cosh(0.5)))[1]
        assert y1 == pytest.approx(math.sinh(2.0), rel=1e-9)
        assert yp1 == pytest.approx(math.cosh(2.0), rel=1e-9)

    def test_matches_closed_branch_generic_delta(self):
        rp = rc.RiccatiParams(1.0, -1.0, 0.6)
        y0, yp0 = eval_y_branch(rp, 1, 0.5)
        y1, yp1 = ov.integrate(ov.linear_rhs(rp), [0.5, 1.5], (y0, yp0))[1]
        yw, ypw = eval_y_branch(rp, 1, 1.5)
        assert y1 == pytest.approx(yw, rel=1e-7)
        assert yp1 == pytest.approx(ypw, rel=1e-7)

    def test_riccati_linear_consistency(self):
        rp = rc.RiccatiParams(1.5, -1.0, 0.45)
        x0, x1 = 0.4, 1.3
        y0, yp0 = eval_y_branch(rp, 1, x0)
        y1, yp1 = ov.integrate(ov.linear_rhs(rp), [x0, x1], (y0, yp0))[1]
        u_lin = yp1 / (rp.a * y1)
        u0 = eval_u1(rp, x0)
        u_ric = ov.integrate(ov.riccati_rhs(rp), [x0, x1], u0)[1, 0]
        assert abs(u_lin - u_ric) <= 1e-7 * (1.0 + abs(u_ric))


class TestTrajectory:
    # u = -coth(5 - x) solves u' = 1 - u^2; it leaves the repelling
    # equilibrium -1 forward, so it is followed backward from x = 3
    XS = np.linspace(3.0, 0.5, 11)

    def test_backward_through_output_points(self):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        got = ov.integrate(ov.riccati_rhs(rp), self.XS, -1.0 / math.tanh(2.0))
        assert got.shape == (11, 1)
        assert got[0, 0] == -1.0 / math.tanh(2.0)
        np.testing.assert_allclose(got[:, 0], -1.0 / np.tanh(5.0 - self.XS), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("xs, u0", [
        (XS, -1.0 / math.tanh(2.0)),
        (np.linspace(0.5, 8.0, 33), 1.0 / math.tanh(0.5)),
        ([0.5, 8.0], 1.0 / math.tanh(0.5)),
    ])
    def test_six_rhs_calls_per_attempted_step(self, monkeypatch, xs, u0):
        # stage 7 of a step is the next step's first, and _initial_step's
        # f0 the first step's: two calls there, six per step
        steps = []
        step = ov._step
        monkeypatch.setattr(ov, "_step", lambda *args: steps.append(args[3]) or step(*args))
        rhs = ov.riccati_rhs(rc.RiccatiParams(1.0, 1.0, 1.0))
        calls = []

        def counted(x, u):
            calls.append(x)
            return rhs(x, u)

        ov.integrate(counted, xs, u0)
        assert len(calls) == 6 * len(steps) + 2


def integrate_fixed(rhs, x0: float, u0, x1: float, n_steps: int) -> np.ndarray:
    """Fixed-step integration with the 5th-order weights of the DP5 pair."""
    y = np.atleast_1d(np.asarray(u0, dtype=float))
    h = (x1 - x0) / n_steps
    x = x0
    k0 = rhs(x, y)
    for _ in range(n_steps):
        y, _err, k0 = ov._step(rhs, x, y, h, k0)
        x += h
    return y


class TestStepControl:
    def test_order_study_fixed_step(self):
        # halving the step must cut the error at least 8x (5th-order pair)
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        rhs = ov.riccati_rhs(rp)
        want = 1.0 / math.tanh(1.0)
        errs = []
        for n in (20, 40, 80):
            got = integrate_fixed(rhs, 0.5, 1.0 / math.tanh(0.5), 1.0, n)[0]
            errs.append(abs(got - want))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_tightening_tolerance_reduces_error(self, monkeypatch):
        rp = rc.RiccatiParams(1.0, 1.0, 1.0)
        want = 1.0 / math.tanh(2.0)
        rhs = ov.riccati_rhs(rp)
        errs = []
        for rel_tol, abs_tol in ((1e-5, 1e-8), (1e-11, 1e-13)):
            monkeypatch.setattr(ov, "_REL_TOL", rel_tol)
            monkeypatch.setattr(ov, "_ABS_TOL", abs_tol)
            errs.append(abs(ov.integrate(rhs, [0.5, 2.0], 1.0 / math.tanh(0.5))[1, 0] - want))
        assert errs[1] < errs[0]


def rule_d1_on_array(f, x):
    """f' at x > 0, a float or an ndarray, by the residuals' difference rule:
    one call of f on the stencils."""
    return ov._richardson_d1(f(ov.stencils(x)), ov._fd_step(x))


class TestFdDerivative:
    def test_square(self):
        assert rule_d1_on_array(lambda t: t * t, 3.0) == pytest.approx(6.0, abs=1e-8)

    def test_exp(self):
        assert rule_d1_on_array(np.exp, 1.0) == pytest.approx(math.e, abs=1e-8)

    @pytest.mark.parametrize("f", [np.sin, np.sqrt, np.exp, lambda t: t**3 - 2.0 * t],
                             ids=["sin", "sqrt", "exp", "cubic"])
    def test_array_equals_points(self, f):
        xs = np.geomspace(1e-9, 10.0, 200)
        lowest = []

        def spy(t):
            lowest.append(np.min(t))
            return f(t)

        got = rule_d1_on_array(spy, xs)
        assert got.shape == xs.shape
        assert min(lowest) > 0.0
        assert np.array_equal(got, [rule_d1_on_array(f, float(x)) for x in xs])


class TestResiduals:
    def test_scaled_by_the_terms(self):
        # u' and a u^2 grow like 1/x^2 towards 0; their round-off is not a defect
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        xs = np.geomspace(1e-9, 1.0, 40)
        assert np.all(ov.residuals(rp, 1, xs) <= 1e-9)

    def test_defect_is_seen(self, monkeypatch):
        # a closed form off by 1e-4 x reads as a defect of about that size
        rp = rc.RiccatiParams(1.0, -1.0, 0.5)
        xs = np.linspace(0.5, 1.5, 5)
        assert np.all(ov.residuals(rp, 1, xs) <= 1e-9)
        table = rc.branch_table
        monkeypatch.setattr(ov, "branch_table",
                            lambda rps, branch, pts: (table(rps, branch, pts)[0] + 1e-4 * pts, None))
        assert np.all(ov.residuals(rp, 1, xs) > 1e-6)


# (a, b, delta), the start point, start value and end point (optionally
# followed by the relative and absolute tolerance in place of the module's)
# and the repr of the end state, a float or a tuple of floats, of a DP5 that
# carried its state in numpy arrays; the float state must repeat them
PINNED_RICCATI = [
    ((1.0, 1.0, 1.0), (0.5, 1.0 / math.tanh(0.5), 2.0), "1.0373147207801316"),
    ((1.0, 1.0, 1.0), (0.5, 1.0, 5.0), "1.0"),
    ((1, -1, 1), (0.2, 4.9, 3.0), "-7.082006348315342"),
    ((1.0, -1.0, 0.5), (0.5, 1.7, 1.2), "0.31877729208936884"),
    ((2.0, 0.5, 0.3), (0.2, 3.0, 3.0), "0.7369838004553614"),
    ((-1.5, 0.7, 0.8), (0.3, -2.0, 2.0), "0.5369881312784283"),
    ((0.5, -2.0, 0.25), (0.1, 10.0, 0.9), "1.4600133455224917"),
    ((1.0, -1.0, 0.5), (5e-7, 2e6, 1.0), "0.658855496920983"),
    ((3.0, 3.0, 0.6), (1.0, 0.0, 4.0), "1.3922026356822281"),
    ((1.0, 1.0, 0.9), (0.01, 0.0, 50.0), "1.2462423340474582"),
    ((1.0, 1.0, 1.0), (0.5, 1.0 / math.tanh(0.5), 2.0, 1e-5, 1e-8), "1.0373149833648379"),
    ((1.2, -0.8, 0.4), (0.3, 1.0, 2.5, 1e-11, 1e-13), "-26.520740943507136"),
]
PINNED_LINEAR = [
    ((1.0, -1.0, 1.0), (0.5, (math.sin(0.5), math.cos(0.5)), 2.0),
     "(0.9092974267922368, -0.4161468365345504)"),
    ((1.0, 1.0, 1.0), (0.5, (math.sinh(0.5), math.cosh(0.5)), 2.0),
     "(3.6268604080788527, 3.7621956913256005)"),
    ((1.0, -1.0, 0.6), (0.5, (0.3, 0.8), 1.5), "(0.8167515581804401, 0.089795699710804)"),
    ((1.5, -1.0, 0.45), (0.4, (1.0, -0.5), 1.3), "(0.1352316182486507, -1.306822045428704)"),
    ((2.0, 3.0, 0.2), (0.1, (1.0, 0.0), 2.0), "(40.79661829105653, 132.04182179878933)"),
    ((-1.0, 2.0, 0.7), (1.0, (0.0, 1.0), 6.0), "(0.28704734344856025, -0.9928235674194598)"),
    ((1.0, -4.0, 0.35), (0.05, (1.0, 1.0), 8.0), "(0.572630207189321, 2.5417596782892997)"),
    ((1.0, -1.0, 0.9), (0.5, (1.0, 0.0), 30.0, 1e-6, 1e-9),
     "(-0.8639963632283738, -0.34960794235497206)"),
]


def pinned_end_state(monkeypatch, make_rhs, params, ivp) -> tuple:
    """The end state of a pinned case as a tuple of floats, with its
    tolerances, if any, set in ov."""
    if len(ivp) > 3:
        monkeypatch.setattr(ov, "_REL_TOL", ivp[3])
        monkeypatch.setattr(ov, "_ABS_TOL", ivp[4])
    x0, y0, x1 = ivp[:3]
    return tuple(ov.integrate(make_rhs(rc.RiccatiParams(*params)), [x0, x1], y0)[1].tolist())


class TestPinnedBits:
    @pytest.mark.parametrize("params, ivp, want", PINNED_RICCATI)
    def test_riccati(self, monkeypatch, params, ivp, want):
        (u1,) = pinned_end_state(monkeypatch, ov.riccati_rhs, params, ivp)
        assert repr(u1) == want

    @pytest.mark.parametrize("params, ivp, want", PINNED_LINEAR)
    def test_linear(self, monkeypatch, params, ivp, want):
        assert repr(pinned_end_state(monkeypatch, ov.linear_rhs, params, ivp)) == want
