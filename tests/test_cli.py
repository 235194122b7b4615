import contextlib
import io
import math
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special as sp
from scipy.optimize import brentq

from fracriccati import cli, cosmo, odeverify, riccati, specfun
from fracriccati import fracops as fo
from fracriccati.errors import MaxStepsError, StepUnderflowError
from fracriccati.grids import GridSpec
from test_golden import TABLES as golden_tables


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def parse_table(text):
    lines = [ln for ln in text.strip().split("\n")]
    assert lines[0].startswith("# ")
    header = lines[0][2:].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestGridParsing:
    def test_bad_grid_exits_2(self, capsys):
        rc, _, _ = run(capsys, ["fracderiv", "--beta", "0.5", "--power", "1",
                                "--grid", "nope"])
        assert rc == 2

    def test_missing_function_exits_2(self, capsys):
        rc, _, _ = run(capsys, ["fracderiv", "--beta", "0.5", "--grid", "1:2:4"])
        assert rc == 2

    def test_bad_beta_exits_2(self, capsys):
        rc, _, err = run(capsys, ["fracderiv", "--beta", "2.5", "--power", "1",
                                  "--grid", "1:2:4"])
        assert rc == 2 and "beta" in err


    @pytest.mark.parametrize("count", [2.5, 3.0, math.nan, 1, "3"])
    def test_grid_count_must_be_an_integer_of_at_least_2(self, count):
        with pytest.raises(ValueError, match="grid count must be an integer >= 2"):
            GridSpec(0.5, 1.0, count)
        assert GridSpec(0.5, 1.0, np.int64(3)).points().tolist() == [0.5, 0.75, 1.0]

    def test_grid_to_float_max_warns_nothing(self, capsys):
        # linspace's k * step overflows at the last point, which is stop itself
        argv = ["riccati", "eval", "--a", "-0.5", "--b", "-0.5", "--delta", "0.333",
                "--branch", "2", "--grid", "0.05:1.7976931348623157e308:13"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, argv)
            pts = GridSpec(0.05, 1.7976931348623157e308, 13).points()
        assert rc == 2 and out == ""
        assert err == ("error: --grid: x = 1.7976931348623157e+308 is too large: "
                       "the Bessel argument q x^r overflows\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = np.linspace(0.05, 1.7976931348623157e308, 13)
        assert pts.tobytes() == want.tobytes()


class TestFracderiv:
    def test_lacroix_oracle_column(self, capsys):
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0.5", "--power", "1",
                                  "--grid", "0.25:4:4"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["x", "numeric", "oracle", "abs_err"]
        assert len(rows) == 4
        for row in rows:
            x = float(row[0])
            assert float(row[2]) == pytest.approx(2.0 * math.sqrt(x) / math.sqrt(math.pi), rel=1e-12)
            assert float(row[3]) < 1e-6

    def test_identity_operator(self, capsys):
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0", "--builtin", "sin",
                                  "--grid", "1:2:2"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["x", "numeric"]
        for row in rows:
            assert float(row[1]) == pytest.approx(math.sin(float(row[0])), rel=1e-12)

    def test_error_column_small(self, capsys):
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0.3", "--power", "2.5",
                                  "--grid", "1:2:8"])
        assert rc == 0
        _, rows = parse_table(out)
        assert all(float(row[3]) < 1e-6 for row in rows)

    @pytest.mark.parametrize("builtin", ["exp", "sin"])
    @pytest.mark.parametrize("beta", ["1.3", "1.7", "1.95"])
    def test_builtin_against_series(self, capsys, builtin, beta):
        # the Taylor series differentiated term by term, D^beta t^j / j! =
        # t^(j-beta) / Gamma(j+1-beta)
        rc, out, _ = run(capsys, ["fracderiv", "--beta", beta, "--builtin", builtin,
                                  "--grid", "0.25:2:4"])
        assert rc == 0
        _, rows = parse_table(out)
        assert len(rows) == 4
        b = mpmath.mpf(beta)
        for xs, numeric in rows:
            x = mpmath.mpf(xs)
            if builtin == "exp":
                terms = (x ** (j - b) * mpmath.rgamma(j + 1 - b) for j in range(60))
            else:
                terms = ((-1) ** (j // 2) * x ** (j - b) * mpmath.rgamma(j + 1 - b)
                         for j in range(1, 60, 2))
            assert float(numeric) == pytest.approx(float(mpmath.fsum(terms)), rel=1e-9)

    def test_sqrt_rows_within_relative_target(self, capsys):
        # t^0.5 is not smooth at 0; each row must still hold 1e-6 relative
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "1.46", "--power", "0.5",
                                  "--grid", "0.92:1.6:5"])
        assert rc == 0
        _, rows = parse_table(out)
        assert len(rows) == 5
        for row in rows:
            assert float(row[3]) <= 1e-6 * abs(float(row[2])), row

    @pytest.mark.parametrize("beta", ["0.5", "1.5", "1e-9"])
    def test_negative_power_needs_integer_beta(self, capsys, beta):
        # t^a at a fractional order samples t = 0, where a < 0 is infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, ["fracderiv", "--beta", beta, "--power", "-0.3",
                                        "--grid", "1:2:2"])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--power" in err and "--beta" in err

    @pytest.mark.parametrize("beta", ["0", "1"])
    def test_negative_power_at_integer_beta(self, capsys, beta):
        rc, out, _ = run(capsys, ["fracderiv", "--beta", beta, "--power", "-0.3",
                                  "--grid", "1:2:2"])
        assert rc == 0
        _, rows = parse_table(out)
        assert all(float(row[3]) <= 1e-15 for row in rows)

    def test_x_squared_underflow_is_refused(self, capsys):
        # 1 < beta < 2 divides the integral by x^2, which is 0 at x = 1e-300
        rc, out, err = run(capsys, ["fracderiv", "--beta", "1.0000001", "--builtin", "poly:1,2",
                                    "--grid", "1e-300:3:3"])
        assert rc == 2 and out == ""
        assert err == "error: x = 1e-300 is too close to 0: x^2 underflows to 0\n"

    def test_overflowing_integrand_prints_only_the_error_line(self, capsys):
        # exp(1e5) overflows, and so do the quadrature's sums: the first
        # level of the table's one profile, which holds x = 1e5, is not
        # finite and raises, with no doubling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(fo, "_gauss_level", wraps=fo._gauss_level) as spy:
                rc, out, err = run(capsys, ["fracderiv", "--beta", "1.0000001", "--builtin",
                                            "exp", "--grid", "7:1e5:2"])
        assert rc == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: numeric non-convergence: ")
        assert [c.args[3] for c in spy.call_args_list if 1e5 in c.args[2]] == [8]

    def test_low_power_table_matches_the_power_rule(self, capsys):
        # t^0.1 is far from smooth at 0; the graded cells resolve it
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0.5", "--power", "0.1",
                                  "--grid", "0.5:2:3"])
        assert rc == 0
        _, rows = parse_table(out)
        assert len(rows) == 3
        for x, numeric, oracle, abs_err in rows:
            assert float(oracle) == fo.power_rule(0.1, 0.5, float(x))
            assert abs(float(numeric) - float(oracle)) <= 1e-12 * abs(float(oracle))

    @pytest.mark.parametrize("beta, flags, f, oracle", [
        ("0.7", ["--power", "1.5"], fo.RealFunction.power(1.5),
         lambda x: fo.power_rule(1.5, 0.7, x)),
        ("1.3", ["--builtin", "poly:1,-2,0.5"], fo.RealFunction.polynomial([1.0, -2.0, 0.5]),
         lambda x: sum(c * specfun.gamma(j + 1.0) * specfun.recip_gamma(j + 1.0 - 1.3)
                       * x ** (j - 1.3) for j, c in enumerate((1.0, -2.0, 0.5)))),
        ("1.3", ["--builtin", "sin"], fo.RealFunction(np.sin, lambda k: cli._SIN_DERIVS[k % 4]),
         None),
        ("0.4", ["--builtin", "exp"], fo.RealFunction(np.exp, lambda k: np.exp), None),
    ])
    def test_table_renders_each_point(self, capsys, beta, flags, f, oracle):
        # each row is the '%.17g' rendering of rl_derivative and its oracle at x
        rc, out, _ = run(capsys, ["fracderiv", "--beta", beta, *flags, "--grid", "0.25:2:4"])
        assert rc == 0
        lines = ["# x,numeric" + (",oracle,abs_err" if oracle else "")]
        for x in np.linspace(0.25, 2.0, 4).tolist():
            row = [x, fo.rl_derivative(f, float(beta), x)]
            if oracle is not None:
                want = oracle(x)
                row += [want, abs(row[1] - want)]
            lines.append(",".join("%.17g" % v for v in row))
        assert out == "\n".join(lines) + "\n"

    def test_power_oracle_past_the_float_range_of_gamma(self, capsys):
        # Gamma(201) is inf and gamma(401) overflows float pow, but the
        # oracles x^200 and 400 x^399 are finite
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0", "--power", "200",
                                  "--grid", "1:2:3"])
        assert rc == 0
        _, rows = parse_table(out)
        assert [float(row[2]) for row in rows] == [x**200 for x in (1.0, 1.5, 2.0)]
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "1", "--power", "400",
                                  "--grid", "1:2:3"])
        assert rc == 0
        _, rows = parse_table(out)
        for row in rows:
            assert float(row[2]) == pytest.approx(400.0 * float(row[0]) ** 399, rel=1e-11)

    def test_poly_oracle(self, capsys):
        rc, out, _ = run(capsys, ["fracderiv", "--beta", "0.5",
                                  "--builtin", "poly:0,1", "--grid", "1:1.5:3"])
        assert rc == 0
        _, rows = parse_table(out)
        for row in rows:
            x = float(row[0])
            assert float(row[2]) == pytest.approx(2.0 * math.sqrt(x / math.pi), rel=1e-12)


class TestRiccatiCommand:
    def test_eval_cot(self, capsys):
        rc, out, _ = run(capsys, ["riccati", "eval", "--a", "1", "--b", "-1",
                                  "--delta", "1", "--branch", "1", "--grid", "0.2:3:20"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["x", "u", "pole"]
        assert len(rows) == 20
        for row in rows:
            x = float(row[0])
            assert row[2] == "0"
            assert float(row[1]) == pytest.approx(math.cos(x) / math.sin(x), rel=1e-8)

    def test_eval_marks_pole_rows(self, capsys):
        # branch 2 is -tan: pole at pi/2 inside the grid
        rc, out, _ = run(capsys, ["riccati", "eval", "--a", "1", "--b", "-1",
                                  "--delta", "1", "--branch", "2", "--grid", "0.2:3:20"])
        assert rc == 0
        _, rows = parse_table(out)
        flagged = [row for row in rows if row[2] == "1"]
        assert len(flagged) == 1
        assert flagged[0][1] == "nan"
        assert abs(float(flagged[0][0]) - math.pi / 2.0) <= 0.5 * (2.8 / 19) * 1.001

    @pytest.mark.parametrize("branch, grid, x_pole", [
        # J_(1/2)(x) = 0 at x = pi; Y_(1/2)(x) = 0 at x = pi/2
        ("1", "1.5707963267948966:4.71238898038469:3", math.pi),
        ("2", "0.5:2.641592653589793:3", math.pi / 2.0),
    ], ids=["u1", "u2"])
    def test_pole_flag_at_denominator_zero(self, capsys, branch, grid, x_pole):
        rc, out, _ = run(capsys, ["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1",
                                  "--branch", branch, "--grid", grid])
        assert rc == 0
        _, rows = parse_table(out)
        assert float(rows[1][0]) == x_pole
        assert [row[2] for row in rows] == ["0", "1", "0"] and rows[1][1] == "nan"

    def test_poles_output(self, capsys):
        rc, out, _ = run(capsys, ["riccati", "poles", "--a", "1", "--b", "-1",
                                  "--delta", "1", "--branch", "1", "--grid", "0.5:7:2"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["x_pole"]
        got = [float(r[0]) for r in rows]
        assert got == [pytest.approx(math.pi, rel=1e-10),
                       pytest.approx(2.0 * math.pi, rel=1e-10)]

    def test_verify_reports_small_deviation(self, capsys):
        rc, out, _ = run(capsys, ["riccati", "verify", "--a", "1", "--b", "1",
                                  "--delta", "0.5", "--x0", "0.5", "--x1", "1.5",
                                  "--branch", "1"])
        assert rc == 0
        header, rows = parse_table(out)
        vals = dict(zip(header, rows[0]))
        assert float(vals["max_deviation"]) < 1e-6
        assert float(vals["max_residual"]) < 1e-6

    def test_verify_pole_interval_exits_4(self, capsys):
        rc, _, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "-1",
                                  "--delta", "1", "--x0", "2.5", "--x1", "4.0"])
        assert rc == 4 and "pole" in err

    def test_past_700_prints_rows(self, capsys):
        # the I ratio comes from e^-x I, which has no upper limit on x
        rc, out, err = run(capsys, ["riccati", "eval", "--a", "1", "--b", "1",
                                    "--delta", "1", "--branch", "1", "--grid", "600:710:3"])
        assert rc == 0 and err == ""
        _, rows = parse_table(out)
        assert rows == [["600", "1", "0"], ["655", "1", "0"], ["710", "1", "0"]]

    def test_modified_branch2_has_no_pole_rows(self, capsys):
        # K_n(z) falls below 1e-12 from z ~ 27 on; u2 = -sqrt(b/a) at delta = 1
        rc, out, _ = run(capsys, ["riccati", "eval", "--a", "1", "--b", "1",
                                  "--delta", "1", "--branch", "2", "--grid", "20:40:5"])
        assert rc == 0
        _, rows = parse_table(out)
        assert [r[1:] for r in rows] == [["-1", "0"]] * 5

    @pytest.mark.parametrize("first_bad", [0, 7])
    def test_nonfinite_closed_form_exits_3_naming_x(self, capsys, monkeypatch, first_bad):
        pts = np.linspace(20.0, 31.0, 33)

        def table(rps, branch, xs):
            xs = np.asarray(xs)
            return np.where(xs >= pts[first_bad], math.nan, -1.0)[None, :], np.ones((1, xs.size))

        monkeypatch.setattr(riccati, "branch_table", table)
        rc, out, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "1",
                                    "--delta", "1", "--x0", "20", "--x1", "31", "--branch", "2"])
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "nan" in err and f"x = {float(pts[first_bad])!r}" in err

    @pytest.mark.parametrize("error", [MaxStepsError, StepUnderflowError])
    def test_integrator_failure_exits_3_with_one_error_line(self, capsys, monkeypatch, error):
        # e.g. --x1 1e300 exhausts the step budget, but takes about 2 s to get there
        def fail(*args):
            raise error("integrator gave up")

        monkeypatch.setattr(odeverify, "riccati_trajectory", fail)
        rc, out, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "1",
                                    "--delta", "1", "--x0", "0.1", "--x1", "1"])
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "gave up" in err

    @pytest.mark.parametrize("x0", ["1e-100", "1e-160", "1e-200"])
    def test_huge_initial_value_is_a_step_underflow(self, capsys, x0):
        # u(x0) is about 1/x0; past 1e-154 the first slope a u^2 overflows
        rc, out, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "-1", "--delta",
                                    "0.5", "--x0", x0, "--x1", "1", "--branch", "1"])
        assert rc == 3 and out == ""
        assert err == (f"error: numeric non-convergence: step size underflow at x={float(x0)}; "
                       "likely a pole or stiffness\n")

    def test_degenerate_b_exits_2(self, capsys):
        rc, _, err = run(capsys, ["riccati", "eval", "--a", "1", "--b", "0",
                                  "--delta", "1", "--grid", "1:2:4"])
        assert rc == 2 and "degenerate" in err


class TestCosmoCommand:
    def test_hubble_closed(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "hubble", "--k", "1", "--c", "1",
                                  "--delta", "1", "--grid", "0.1:1.5:15"])
        assert rc == 0
        _, rows = parse_table(out)
        for row in rows:
            eta = float(row[0])
            assert float(row[1]) == pytest.approx(math.cos(eta) / math.sin(eta), rel=1e-8)

    def test_hubble_flat(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "hubble", "--k", "0", "--c", "1",
                                  "--grid", "1:4:4"])
        assert rc == 0
        _, rows = parse_table(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0 / float(row[0]), rel=1e-12)

    def test_scale_rows(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "scale", "--k", "1", "--c", "1",
                                  "--delta", "1", "--grid", "0.5:1.5:5",
                                  "--eta-ref", "0.5"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["eta", "R_ratio"]
        for row in rows:
            eta = float(row[0])
            assert float(row[1]) == pytest.approx(math.sin(eta) / math.sin(0.5), rel=1e-9)

    @pytest.mark.parametrize("branch, sign", [(1, 1.0), (2, -1.0)])
    def test_open_scale_past_700(self, capsys, branch, sign):
        # at delta = 1, y is sinh(eta) on branch 1 and e^-eta on branch 2 (up
        # to constants): I_n past 700 overflows and K_n there underflows, the
        # ratios do neither
        rc, out, _ = run(capsys, ["cosmo", "scale", "--k", "-1", "--c", "1", "--delta", "1",
                                  "--branch", str(branch), "--eta-ref", "700",
                                  "--grid", "650:760:3"])
        assert rc == 0
        _, rows = parse_table(out)
        assert [float(r[0]) for r in rows] == [650.0, 705.0, 760.0]
        for eta, ratio in rows:
            assert float(ratio) == pytest.approx(math.exp(sign * (float(eta) - 700.0)), rel=1e-12)

    @pytest.mark.parametrize("argv, want", [
        # z = c eta; eta_ref sits below the cutovers, the grid runs past them.
        # Branch 1: (sinh z / sinh z_ref)^25 with z_ref = 29.6 < 30 < 30.4,
        # where exp(z/c) = exp(760) alone overflows
        (["--c", "0.04", "--eta-ref", "740", "--grid", "740:760:3"],
         [1.0, 22026.465794807795, 485165195.4097966]),
        # Branch 2: e^-(eta - eta_ref) with z_ref = 19.5 < 20, where
        # (s/s_ref)^40 alone overflows
        (["--c", "0.025", "--branch", "2", "--eta-ref", "780", "--grid", "780:820:3"],
         [1.0, 2.061153622438543e-09, 4.248354255291518e-18]),
    ])
    def test_open_scale_across_cutover(self, capsys, argv, want):
        rc, out, _ = run(capsys, ["cosmo", "scale", "--k", "-1", "--delta", "1", *argv])
        assert rc == 0
        _, rows = parse_table(out)
        assert [float(r[1]) for r in rows] == pytest.approx(want, rel=1e-12)

    def test_open_hubble_branch2_has_no_pole_rows(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "hubble", "--k", "-1", "--c", "1", "--branch", "2",
                                  "--delta", "0.7", "--grid", "5:40:6"])
        assert rc == 0
        _, rows = parse_table(out)
        assert [r[2] for r in rows] == ["0"] * 6
        # H = -(q r eta^(r-1) / c) K_(n-1)(z)/K_n(z), z = q eta^r
        d = 0.7
        r, n = 0.5 * (3.0 - d), 1.0 / (3.0 - d)
        q = (2.0 / (3.0 - d)) / math.sqrt(sp.gamma(2.0 - d))
        for eta_s, h_s, _ in rows:
            eta = float(eta_s)
            z = q * eta**r
            want = -q * r * eta ** (r - 1.0) * sp.kve(n - 1.0, z) / sp.kve(n, z)
            assert float(h_s) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("argv, eta", [
        # ((sin 0.00055)/(sin 0.0001))^1000 by the plain power
        (["--k", "1", "--c", "0.001", "--delta", "1", "--grid", "0.1:1:3", "--eta-ref", "0.1"],
         "0.55"),
        # (y(1000.5)/y(1))^2 by the exponential of the log ratio
        (["--k", "-1", "--c", "0.5", "--delta", "0.5", "--grid", "1:2000:3", "--branch", "1"],
         "1000.5"),
    ])
    def test_scale_overflow_names_eta(self, capsys, argv, eta):
        rc, out, err = run(capsys, ["cosmo", "scale", *argv])
        assert rc == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: numeric overflow")
        assert f"eta = {eta} " in err

    @pytest.mark.parametrize("argv, eta", [
        # H = 1/(c eta) and the ratio (eta/eta_ref)^(1/c) overflow; a check on
        # c alone would miss the second, where c eta is 1e-310 as well
        (["hubble", "--c", "1e-310", "--grid", "1:2:3"], "1.0"),
        (["hubble", "--c", "1e-300", "--grid", "1e-10:2e-10:3"], "1e-10"),
        (["scale", "--c", "1e-310", "--grid", "1:2:3"], "1.5"),
    ])
    def test_flat_overflow_names_eta(self, capsys, argv, eta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, ["cosmo", argv[0], "--k", "0", *argv[1:]])
        assert rc == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: numeric overflow")
        assert f"eta = {eta} " in err

    def test_scale_pole_exits_4(self, capsys):
        rc, _, _ = run(capsys, ["cosmo", "scale", "--k", "1", "--c", "1",
                                "--delta", "1", "--grid", "0.5:3.5:5"])
        assert rc == 4

    def test_figure_open_surface(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "figure", "--k", "-1", "--c", "1",
                                  "--grid", "0.1:3:30", "--delta-grid", "0.2:1:5"])
        assert rc == 0
        header, rows = parse_table(out)
        assert header == ["eta", "delta", "H", "pole"]
        assert len(rows) == 150
        assert all(row[3] == "0" for row in rows)
        assert all(float(row[2]) > 0.0 for row in rows)

    def test_figure_accepts_second_axis_grid(self, capsys):
        rc, out, _ = run(capsys, ["cosmo", "figure", "--k", "-1", "--c", "1",
                                  "--grid", "0.1:2:8", "--delta-grid", "0.3:1:4"])
        assert rc == 0
        assert len(parse_table(out)[1]) == 32

    def test_c_zero_exits_5(self, capsys):
        rc, _, _ = run(capsys, ["cosmo", "hubble", "--k", "1", "--gamma",
                                str(2.0 / 3.0), "--grid", "1:2:3"])
        assert rc == 5

    def test_needs_c_or_gamma(self, capsys):
        rc, _, _ = run(capsys, ["cosmo", "hubble", "--k", "1", "--grid", "1:2:3"])
        assert rc == 2

    def test_gamma_consistent_with_c_changes_nothing(self, capsys):
        argv = ["cosmo", "hubble", "--k", "1", "--c", "1", "--delta", "0.5", "--grid", "0.2:3:5"]
        alone = run(capsys, argv)
        assert alone[0] == 0
        assert run(capsys, argv + ["--gamma", "1.3333333333333333"]) == alone

    def test_gamma_inconsistent_with_c_exits_2(self, capsys):
        rc, out, err = run(capsys, ["cosmo", "hubble", "--k", "1", "--c", "1.1",
                                    "--gamma", "1.3333333333333333", "--grid", "0.2:3:5"])
        assert rc == 2 and out == ""
        assert err == "error: inconsistent inputs: c=1.1 but gamma implies 1.0\n"

    # c eta overflows from eta = 2 (c = 1e308) and from eta = 1.25 (gamma =
    # 1e308, c = 1.5e308); H = 1/(c eta) is subnormal there, not 0
    @pytest.mark.parametrize("flag", [["--c", "1e308"], ["--gamma", "1e308"]])
    def test_flat_hubble_where_c_eta_overflows(self, capsys, flag):
        rc, out, _ = run(capsys, ["cosmo", "hubble", "--k", "0", *flag, "--grid", "1:2:3"])
        assert rc == 0
        c = Fraction(cosmo.c_of_gamma(1e308) if flag[0] == "--gamma" else 1e308)
        _, rows = parse_table(out)
        assert len(rows) == 3
        for eta, h, _ in rows:
            assert abs(Fraction(float(h)) - 1 / (c * Fraction(float(eta)))) <= Fraction(2) ** -1074


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv, reason", [
        (["riccati", "poles", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:inf:3"],
         "must be finite"),
        (["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:inf:3"],
         "must be finite"),
        (["fracderiv", "--beta", "0.5", "--power", "1", "--grid", "0.1:inf:3"],
         "must be finite"),
        (["riccati", "verify", "--a", "1", "--b", "1", "--delta", "1", "--x0", "0.1",
          "--x1", "inf"], "x1 < inf"),
        (["cosmo", "scale", "--k", "1", "--c", "1", "--grid", "0.5:2:4", "--eta-ref", "inf"],
         "positive and finite"),
        (["cosmo", "scale", "--k", "-1", "--c", "1", "--grid", "0.5:2:4", "--eta-ref", "nan"],
         "positive and finite"),
        (["riccati", "eval", "--a", "inf", "--b", "-1", "--delta", "1", "--grid", "0.2:3:5"],
         "--a: must be finite"),
        (["riccati", "verify", "--a", "1", "--b", "nan", "--delta", "1", "--x0", "0.1",
          "--x1", "1"], "--b: must be finite"),
        (["cosmo", "hubble", "--k", "1", "--c", "nan", "--grid", "0.2:3:5"],
         "--c: must be finite"),
        (["cosmo", "hubble", "--k", "-1", "--gamma", "inf", "--grid", "0.2:3:5"],
         "--gamma: must be finite"),
        (["fracderiv", "--beta", "0.5", "--power", "inf", "--grid", "0.2:3:5"],
         "--power: must be finite"),
        # a*b overflows or underflows to 0: the coefficients are at fault,
        # whatever the grid (-0.0 would read as the modified regime)
        (["riccati", "eval", "--a", "1e200", "--b", "1e200", "--delta", "0.5", "--grid", "1:2:3"],
         "error: coefficients a = 1e+200, b = 1e+200: the product a*b = inf"),
        (["riccati", "eval", "--a", "1e-200", "--b", "1e-200", "--delta", "0.5", "--grid", "1:2:3"],
         "error: coefficients a = 1e-200, b = 1e-200: the product a*b = 0.0"),
        (["riccati", "eval", "--a", "1e-200", "--b=-1e-200", "--delta", "0.5", "--grid", "1:2:3"],
         "error: coefficients a = 1e-200, b = -1e-200: the product a*b = -0.0"),
        (["riccati", "verify", "--a", "1e200", "--b", "1e200", "--delta", "0.5",
          "--x0", "1", "--x1", "2"], "error: coefficients a = 1e+200, b = 1e+200"),
        (["cosmo", "hubble", "--k", "1", "--c", "1e200", "--grid", "1:2:3"],
         "error: c = 1e+200: the product a*b = -k c^2"),
        (["cosmo", "scale", "--k", "-1", "--c", "1e-200", "--grid", "1:2:3"],
         "error: c = 1e-200: the product a*b = -k c^2"),
        (["fracderiv", "--beta", "0.5", "--builtin", "poly:1,nan", "--grid", "1:2:2"],
         "bad poly coefficients in 'poly:1,nan'"),
        (["fracderiv", "--beta", "0.5", "--builtin", "poly:1,inf", "--grid", "1:2:2"],
         "bad poly coefficients in 'poly:1,inf'"),
        # negative values past argparse's -1 and -0.5 shapes reach the checks
        (["riccati", "eval", "--a", "-inf", "--b", "1", "--delta", "1", "--grid", "0.2:3:5"],
         "--a: must be finite"),
        (["cosmo", "hubble", "--k", "1", "--c", "-nan", "--grid", "0.2:3:5"],
         "--c: must be finite"),
        (["cosmo", "scale", "--k", "0", "--c", "1.3", "--grid", "0.5:4:8", "--eta-ref", "-1e-3"],
         "positive and finite"),
        (["riccati", "verify", "--a", "1", "--b", "-1", "--delta", "0.5", "--x0", "-1e-3",
          "--x1", "1"], "need 0 < x0 < x1 < inf, got -0.001, 1.0"),
    ])
    def test_rejected_as_flag_error(self, capsys, argv, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and reason in errors[0]


class TestPoleScanBudget:
    # the scan's cell count is checked before anything is allocated
    @pytest.mark.parametrize("argv, flag", [
        (["riccati", "poles", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:1e300:3"],
         "--grid"),
        (["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:1e300:3"],
         "--grid"),
        (["riccati", "poles", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:1e6:3"],
         "--grid"),
        (["cosmo", "hubble", "--k", "1", "--c", "1", "--grid", "0.1:1e300:3"], "--grid"),
        (["riccati", "verify", "--a", "1", "--b", "-1", "--delta", "1", "--x0", "0.1",
          "--x1", "1e300"], "--x0/--x1"),
    ])
    def test_over_budget_is_a_flag_error(self, capsys, argv, flag):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} too wide")
        assert "scan cells" in err

    @pytest.mark.parametrize("argv", [
        ["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.1:1e300:3"],
        ["cosmo", "figure", "--k", "1", "--c", "1", "--grid", "0.1:1e300:3",
         "--delta-grid", "0.98:1:3"],
    ])
    def test_over_budget_table_evaluates_nothing(self, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("a Bessel function was evaluated")

        monkeypatch.setattr(specfun, "bessel_scaled", fail)
        monkeypatch.setattr(specfun, "bessel", fail)
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: --grid too wide") and "scan cells" in err


class TestBesselArgumentUnderflow:
    # q x^r rounds to 0 for x = 1e-300 at every delta < 1
    @pytest.mark.parametrize("argv", [
        ["riccati", "eval", "--a", "1", "--b", "1", "--delta", "0.3", "--branch", "1"],
        ["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "0.3", "--branch", "1"],
        ["riccati", "poles", "--a", "1", "--b", "-1", "--delta", "0.3"],
        ["cosmo", "hubble", "--k", "1", "--c", "1", "--delta", "0.5"],
        ["cosmo", "figure", "--k", "1", "--c", "1"],
        ["cosmo", "figure", "--k", "-1", "--c", "1"],
    ])
    def test_names_grid(self, capsys, argv):
        rc, out, err = run(capsys, argv + ["--grid", "1e-300:1e-290:2"])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: --grid: x = 1e-300 ")
        assert "underflows" in err


    # q x^r is the smallest subnormal, whose half rounds to 0: the series
    # would take (z/2)^nu at nu < 0, and J_n(z) reads as an exact zero
    @pytest.mark.parametrize("argv, flags", [
        (["cosmo", "hubble", "--k", "-1", "--gamma", "0.1", "--delta", "1", "--branch", "2",
          "--grid", "5e-324:3:14"], "--grid"),
        (["riccati", "verify", "--a", "3", "--b", "0.1", "--delta", "0.999999999",
          "--x0", "5e-324", "--x1", "1.0000001"], "--x0/--x1"),
        (["riccati", "poles", "--a", "3", "--b", "-0.1", "--delta", "1", "--branch", "1",
          "--grid", "5e-324:3:3"], "--grid"),
        (["cosmo", "scale", "--k", "1", "--gamma", "0.1", "--delta", "1",
          "--grid", "5e-324:3:14"], "--grid/--eta-ref"),
    ])
    def test_half_of_argument_underflows(self, capsys, argv, flags):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == (f"error: {flags}: x = 5e-324 is too close to 0: "
                       "the Bessel argument q x^r underflows to 0\n")


class TestInfiniteTableValue:
    # one rule for every table: a value past the float range exits 3 naming
    # its row's first column, and nothing is printed
    @pytest.mark.parametrize("argv, err", [
        (["riccati", "eval", "--a", "5e-324", "--b", "7", "--delta", "0.333",
          "--grid", "0.05:3:3"], "u is inf at x = 0.05"),
        (["fracderiv", "--beta", "0", "--builtin", "poly:1,2",
          "--grid", "3:1.7976931348623157e308:3"], "numeric is inf at x = 1.7976931348623157e+308"),
        (["cosmo", "hubble", "--k", "1", "--c", "1", "--delta", "1", "--grid", "1e-310:1:3"],
         "H is inf at eta = 1e-310"),
    ])
    def test_exits_3_naming_x(self, capsys, argv, err):
        rc, out, got = run(capsys, argv)
        assert rc == 3 and out == ""
        assert got == f"error: numeric overflow: {err}\n"


class TestBesselArgumentOverflow:
    # x^r leaves the float range for x = 1e300 at delta = 0.5 (r = 1.25)
    GRID = ["--delta", "0.5", "--grid", "1:1e300:3"]

    @pytest.mark.parametrize("argv, flags", [
        (["riccati", "eval", "--a", "1", "--b", "1"] + GRID, "--grid"),
        (["riccati", "eval", "--a", "1", "--b", "-1"] + GRID, "--grid"),
        (["riccati", "poles", "--a", "1", "--b", "-1"] + GRID, "--grid"),
        (["riccati", "verify", "--a", "1", "--b", "1", "--delta", "0.5",
          "--x0", "1", "--x1", "1e300"], "--x0/--x1"),
        (["cosmo", "hubble", "--k", "-1", "--c", "1"] + GRID, "--grid"),
        (["cosmo", "scale", "--k", "-1", "--c", "1"] + GRID, "--grid/--eta-ref"),
        (["cosmo", "figure", "--k", "-1", "--c", "1", "--grid", "1:1e300:3",
          "--delta-grid", "0.5:1:2"], "--grid"),
    ])
    def test_names_lattice_flags(self, capsys, argv, flags):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == f"error: {flags}: x = 1e+300 is too large: the Bessel argument q x^r overflows\n"

    @pytest.mark.parametrize("argv, x", [
        # x^r = 1e300 is finite here, q x^r is not
        (["riccati", "eval", "--a", "1e100", "--b", "1e100", "--grid", "1:1e240:3"], "1e+240"),
        # both ends of the pole scan overflow
        (["riccati", "poles", "--a", "1", "--b", "-1", "--grid", "1e250:1e260:3"], "1e+260"),
        # oscillatory verify and scale evaluate their lattice before the pole scan
        (["riccati", "verify", "--a", "1e100", "--b=-1e100", "--x0", "1", "--x1", "1e240"],
         "1e+240"),
        (["cosmo", "scale", "--k", "1", "--c", "1e150", "--grid", "1:1e200:3"], "1e+200"),
    ])
    def test_names_largest_x(self, capsys, argv, x):
        flags = {"verify": "--x0/--x1", "scale": "--grid/--eta-ref"}.get(argv[1], "--grid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, argv + ["--delta", "0.5"])
        assert rc == 2 and out == ""
        assert err == f"error: {flags}: x = {x} is too large: the Bessel argument q x^r overflows\n"


class TestPoleChecksCallNoFindPoles:
    # riccati verify and cosmo scale ask sign_scan whether their own lattice
    # holds a pole; only the zero positions need find_poles' bisection
    @pytest.fixture(autouse=True)
    def no_find_poles(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("find_poles called")

        monkeypatch.setattr(riccati, "find_poles", fail)

    def test_verify_pole_free(self, capsys):
        rc, out, err = run(capsys, "riccati verify --a 1 --b -1 --delta 0.7 --x0 0.3 --x1 1.2 "
                                   "--branch 2".split())
        assert rc == 0 and err == ""
        assert out.splitlines()[1] == ("1,-1,0.69999999999999996,2,0.29999999999999999,1.2,"
                                       "4.348652304484016e-10,1.7187584688826973e-11")

    def test_verify_pole_exits_4(self, capsys):
        rc, out, err = run(capsys, "riccati verify --a 1 --b -1 --delta 1 --x0 2.5 --x1 4.0".split())
        assert rc == 4 and out == ""
        assert err == "error: verification interval [2.5, 4.0] contains a pole\n"

    @pytest.mark.parametrize(
        "name, argv", [t for t in golden_tables if t[0].startswith("scale_")])
    def test_scale_matches_golden(self, capsys, name, argv):
        rc, out, err = run(capsys, argv.split())
        assert rc == 0 and err == ""
        assert out == (Path(__file__).parent / "golden" / name).read_text()

    def test_scale_pole_exits_4(self, capsys):
        rc, out, err = run(capsys, "cosmo scale --k 1 --c 1 --delta 1 --grid 0.5:3.5:5".split())
        assert rc == 4 and out == ""
        assert err == "error: branch-1 linear solution crosses zero inside [0.5, 3.5]\n"


class TestGridBelowSearchFloor:
    # the pole-search window starts below the grid, not at 1e-12 above it;
    # at delta = 1 the modified branch 1 is coth x, 1/x to double precision
    @pytest.mark.parametrize("argv", [
        ["riccati", "eval", "--a", "1", "--b", "1", "--delta", "1"],
        ["cosmo", "hubble", "--k", "-1", "--c", "1"],
    ])
    def test_modified_table(self, capsys, argv):
        rc, out, err = run(capsys, argv + ["--grid", "1e-30:1e-29:3"])
        assert rc == 0 and err == ""
        _, rows = parse_table(out)
        assert [float(r[0]) for r in rows] == [1e-30, 5.5e-30, 1e-29]
        for x, u, pole in rows:
            assert pole == "0" and float(u) == pytest.approx(1.0 / float(x), rel=1e-12)

    def test_figure(self, capsys):
        rc, out, err = run(capsys, ["cosmo", "figure", "--k", "1", "--c", "1",
                                    "--grid", "1e-20:1e-19:3", "--delta-grid", "0.5:1:2"])
        assert rc == 0 and err == ""
        assert len(parse_table(out)[1]) == 6

    def test_window_end_below_the_smallest_argument(self, capsys):
        # the window's lower end 5e-324 has a Bessel argument whose half
        # underflows; below z = 1.35 there is no zero, so the scan starts at
        # the grid's first point and evaluates no such end
        rc, out, err = run(capsys, ["riccati", "eval", "--a", "1e300", "--b", "-1e-300",
                                    "--delta", "1", "--grid", "1e-323:3:3"])
        assert rc == 0 and err == ""
        _, rows = parse_table(out)
        assert [(float(r[0]), r[2]) for r in rows] == [(1e-323, "0"), (1.5, "0"), (3.0, "1")]

    def test_denominator_product_overflow_warns_nothing(self, capsys):
        # Y_n(z) near z = 1e-323 is about -1e161: two neighbours' product
        # overflows, and the sign scan still reads it as no sign change
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, ["riccati", "eval", "--a", "1e300", "--b", "-1e-300",
                                        "--delta", "1", "--branch", "2", "--grid", "2e-323:5:7"])
        assert rc == 0 and err == ""
        assert [r[2] for r in parse_table(out)[1]] == ["0", "0", "1", "0", "0", "0", "1"]


class TestOutputContract:
    def test_determinism_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["cosmo", "figure", "--k", "1", "--c", "1", "--grid", "0.1:3:40",
                "--delta-grid", "0.1:1:6"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_17_digit_round_trip(self, capsys):
        rc, out, _ = run(capsys, ["riccati", "eval", "--a", "1", "--b", "-1",
                                  "--delta", "0.7", "--grid", "0.3:2.7:9"])
        assert rc == 0
        _, rows = parse_table(out)
        for row in rows:
            for tok in row[:2]:
                if tok == "nan":
                    continue
                v = float(tok)
                assert f"{v:.17g}" == tok  # serialization is bit-faithful

    def test_unwritable_out_exits_2_with_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        rc, out, err = run(capsys, ["riccati", "eval", "--a", "1", "--b", "-1",
                                    "--delta", "1", "--grid", "0.2:3:5", "--out", str(path)])
        assert rc == 2
        assert out == "" and not path.exists()
        assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err

    def test_out_file_newlines(self, tmp_path):
        path = tmp_path / "t.csv"
        assert cli.main(["cosmo", "hubble", "--k", "0", "--c", "2",
                         "--grid", "1:2:3", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("\n") and "\r" not in text
        assert text.splitlines()[0] == "# eta,H,pole"


class TestVerifyPinned:
    # stdout and exit codes: max_residual as a point-by-point eval_u1/eval_u2
    # evaluation gave it, which the table evaluation must repeat, and
    # max_deviation as one DP5 trajectory in the contracting direction gives it
    @pytest.mark.parametrize("argv, code, stdout", [
        ("riccati verify --a 1 --b 1 --delta 0.5 --x0 0.5 --x1 1.5 --branch 1", 0,
         "1,1,0.5,1,0.5,1.5,3.2249755154586834e-10,1.2720935416155044e-11"),
        ("riccati verify --a 2 --b 0.5 --delta 0.3 --x0 0.2 --x1 3 --branch 1", 0,
         "2,0.5,0.29999999999999999,1,0.20000000000000001,3,"
         "4.5149523929063212e-10,4.3480108402604856e-11"),
        ("riccati verify --a 1 --b -1 --delta 0.7 --x0 0.3 --x1 1.2 --branch 2", 0,
         "1,-1,0.69999999999999996,2,0.29999999999999999,1.2,"
         "4.348652304484016e-10,1.7187584688826973e-11"),
        ("riccati verify --a -1.5 --b 0.7 --delta 0.8 --x0 0.4 --x1 2.5 --branch 1", 0,
         "-1.5,0.69999999999999996,0.80000000000000004,1,0.40000000000000002,2.5,"
         "2.5771258552710137e-10,1.3005219123840561e-10"),
        # below x = 1e-3 the difference step is 1e-3 x; u' and a u^2 are
        # about 1/x0^2 (2.5e11 and 4e12), and the residual is scaled by them
        ("riccati verify --a 1 --b -1 --delta 0.5 --x0 2e-6 --x1 1 --branch 1", 0,
         "1,-1,0.5,1,1.9999999999999999e-06,1,2.0021534062232414e-10,3.2995544074765348e-09"),
        ("riccati verify --a 1 --b -1 --delta 0.5 --x0 5e-7 --x1 1 --branch 1", 0,
         "1,-1,0.5,1,4.9999999999999998e-07,1,3.3467242437788195e-10,3.2634517310725641e-09"),
        # the integrator runs out of steps on the way to 1e300; the oscillatory
        # scan is over budget
        ("riccati verify --a 1 --b 1 --delta 1 --x0 0.1 --x1 1e300", 3, None),
        ("riccati verify --a 1 --b -1 --delta 1 --x0 0.1 --x1 1e300", 2, None),
        ("riccati verify --a 1 --b -1 --delta 1 --x0 2.5 --x1 4.0", 4, None),
    ])
    def test_stdout_and_exit_code(self, capsys, argv, code, stdout):
        rc, out, _ = run(capsys, argv.split())
        assert rc == code
        if stdout is None:
            assert out == ""
        else:
            assert out == "# a,b,delta,branch,x0,x1,max_residual,max_deviation\n" + stdout + "\n"

    def test_residual_near_zero_is_scaled(self, capsys):
        # u' and a u^2 are about 1e18 at x0 = 1e-9, where an absolute residual
        # read 1.4e5 of round-off
        argv = "riccati verify --a 1 --b -1 --delta 0.5 --x0 1e-9 --x1 1 --branch 1"
        rc, out, _ = run(capsys, argv.split())
        assert rc == 0
        header, rows = parse_table(out)
        vals = dict(zip(header, rows[0]))
        assert float(vals["max_residual"]) <= 1e-9


class TestVerifyOneTrajectory:
    # forward integration drifts off the modified regime's branch 2 (a u < 0)
    # like e^(-2 int a u): from x0 these read deviations of 4.97, 9.50 and
    # 53.8, and the last one's step size underflowed (exit 3)
    @pytest.mark.parametrize("argv", [
        "--a 1 --b 1 --delta 0.5 --x0 0.5 --x1 30 --branch 2",
        "--a 1 --b 1 --delta 0.5 --x0 5 --x1 400 --branch 2",
        "--a 1 --b 1 --delta 0.05 --x0 1 --x1 1000 --branch 2",
        "--a 2 --b 3 --delta 1 --x0 0.1 --x1 300 --branch 2",
    ])
    def test_modified_branch2_is_integrated_backward(self, capsys, argv):
        rc, out, err = run(capsys, ["riccati", "verify", *argv.split()])
        assert rc == 0 and err == ""
        header, rows = parse_table(out)
        assert float(dict(zip(header, rows[0]))["max_deviation"]) <= 1e-8

    @pytest.mark.parametrize("argv", [
        "--a 1 --b -1 --delta 0.7 --x0 0.3 --x1 1.2 --branch 2",
        "--a 1.5 --b 0.8 --delta 0.7 --branch 1 --x0 1 --x1 8",
        "--a 1.5 --b 0.8 --delta 0.7 --branch 2 --x0 1 --x1 8",
    ])
    def test_one_initial_step_and_one_table(self, capsys, monkeypatch, argv):
        calls = {"_initial_step": 0, "branch_table": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(odeverify, "_initial_step",
                            counted("_initial_step", odeverify._initial_step))
        table = counted("branch_table", riccati.branch_table)
        monkeypatch.setattr(riccati, "branch_table", table)
        monkeypatch.setattr(odeverify, "branch_table", table)
        rc, _, err = run(capsys, ["riccati", "verify", *argv.split()])
        assert rc == 0 and err == ""
        assert calls == {"_initial_step": 1, "branch_table": 1}

    def test_step_budget_covers_the_whole_trajectory(self, capsys):
        # stiff (2 a |u| is about 530): with a budget per gap of the 33
        # points this ran for 24 s and printed a deviation of 20
        argv = "riccati verify --a 700 --b 100 --delta 1e-300 --branch 2 --x0 0.05 --x1 700"
        rc, out, err = run(capsys, argv.split())
        assert rc == 3 and out == ""
        assert err == "error: numeric non-convergence: integration exceeded 100000 steps\n"


def test_fracderiv_bits_do_not_depend_on_blas_threads():
    # a BLAS-threaded dot product sums in an order that depends on the thread
    # count; the operator tables must not
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; from fracriccati.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = "fracderiv --beta 1.3 --builtin exp --grid 0.25:2:4".split()
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0].count(b"\n") == 5
    assert outs[0] == outs[1]


class TestNoPoleNearZero:
    # no J_n or Y_n of a Riccati order has a zero below z = 1.35, so no zero
    # bracket flags these rows, though J_n(z) ~ z^n is small there
    def test_cot_rows(self, capsys):
        argv = "riccati eval --a 1 --b -1 --delta 1 --grid 1e-12:1e-11:3".split()
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        _, rows = parse_table(out)
        assert len(rows) == 3
        for x, u, pole in rows:
            assert pole == "0"
            assert float(u) == pytest.approx(1.0 / math.tan(float(x)), rel=1e-13)

    def test_closed_figure_rows(self, capsys):
        argv = "cosmo figure --k 1 --c 1 --grid 1e-20:1e-19:3 --delta-grid 0.5:1:2".split()
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        _, rows = parse_table(out)
        assert len(rows) == 6
        for eta, _, h, pole in rows:
            assert pole == "0"
            assert float(h) == pytest.approx(1.0 / float(eta), rel=1e-13)


class TestPoleRowsAtBesselZeros:
    """The pole column of riccati eval is the set of grid indices within
    riccati.pole_window's half of a zero of B_n(q x^r), with the zeros
    taken from scipy."""

    @staticmethod
    def scipy_zeros(f, n, z_lo, z_hi):
        """Zeros of f(n, z) in [z_lo, z_hi]: a sign scan in steps of at most
        pi/16, each bracket refined by brentq."""
        zs = np.linspace(z_lo, z_hi, int((z_hi - z_lo) / (math.pi / 16.0)) + 2)
        fs = f(n, zs)
        return [
            brentq(lambda z: f(n, z), lo, hi, xtol=1e-13)
            for lo, hi, f_lo, f_hi in zip(zs[:-1], zs[1:], fs[:-1], fs[1:])
            if f_lo * f_hi < 0.0
        ]

    @given(
        a=st.floats(0.2, 3.0),
        b=st.floats(0.2, 3.0),
        negative=st.booleans(),
        delta=st.floats(0.05, 1.0),
        branch=st.sampled_from([1, 2]),
        z_stop=st.floats(2.0, 60.0),
        start_frac=st.floats(1e-3, 0.9),
        count=st.integers(2, 120),
    )
    @settings(max_examples=30, deadline=None)
    def test_pole_column_is_the_scipy_zero_set(
        self, a, b, negative, delta, branch, z_stop, start_frac, count
    ):
        # oscillatory a*b < 0; q, r and n of the Bessel template from scipy's gamma
        a, b = (-a, b) if negative else (a, -b)
        r, n = 0.5 * (3.0 - delta), 1.0 / (3.0 - delta)
        q = 2.0 / (3.0 - delta) * math.sqrt(abs(a * b) / sp.gamma(2.0 - delta))
        stop = (z_stop / q) ** (1.0 / r)
        start = start_frac * stop
        grid = cli._parse_grid(f"{start!r}:{stop!r}:{count}")
        xs = grid.points().tolist()
        half = riccati.pole_window(grid.points())[2]
        f = sp.jv if branch == 1 else sp.yv
        zeros = [(z / q) ** (1.0 / r) for z in self.scipy_zeros(f, n, 1e-3, q * (stop + half) ** r)]
        assume(all(abs(abs(x - x0) - half) > 1e-9 * x0 for x0 in zeros for x in xs))
        want = sorted({i for x0 in zeros for i, x in enumerate(xs) if abs(x - x0) <= half})

        argv = ["riccati", "eval", "--a", repr(a), "--b", repr(b), "--delta", repr(delta),
                "--branch", str(branch), "--grid", f"{start!r}:{stop!r}:{count}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        _, rows = parse_table(out.getvalue())
        assert [i for i, row in enumerate(rows) if row[2] == "1"] == want


class TestExponentNegatives:
    # a negative flag value in exponent form is a value, not an option
    @pytest.mark.parametrize("flag, value, argv", [
        ("--b", "-1e-3", ["riccati", "eval", "--a", "1", "--delta", "0.5", "--grid", "1:2:2"]),
        ("--a", "-2.5E+0", ["riccati", "eval", "--b", "1", "--delta", "0.5", "--grid", "1:2:2"]),
        ("--b", "-1E0", ["riccati", "poles", "--a", "1", "--delta", "0.5", "--grid", "0.5:9:2"]),
        ("--c", "-1e0", ["cosmo", "hubble", "--k", "1", "--delta", "0.5", "--grid", "1:2:3"]),
    ])
    def test_same_bytes_as_equals_form(self, capsys, flag, value, argv):
        joined = run(capsys, argv + [f"{flag}={value}"])
        assert joined[0] == 0
        assert run(capsys, argv + [flag, value]) == joined


class TestParser:
    def test_built_once_and_not_mutated_by_parsing(self, capsys, tmp_path):
        assert cli._parser() is cli._parser()
        argv = ["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "0.2:3:5"]
        before = vars(cli._parser().parse_args(argv))
        # values, an --out path and a rejected flag must leave no trace
        assert run(capsys, argv + ["--branch", "2", "--out", str(tmp_path / "t.csv")])[0] == 0
        assert run(capsys, ["cosmo", "figure", "--k", "1", "--c", "1", "--grid", "0.2:1:3",
                            "--delta-grid", "0.5:1:2"])[0] == 0
        assert run(capsys, argv + ["--a", "nan"])[0] == 2
        assert vars(cli._parser().parse_args(argv)) == before
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and out.startswith("# x,u,pole\n")


def test_readme_cli_commands_exit_0(monkeypatch, tmp_path):
    # every warning is an error; selftest is tests/test_acceptance.py's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    commands = [argv[1:] for argv in commands
                if argv[:1] == ["fracriccati"] and argv[1:] != ["selftest"]]
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)  # the figure command writes open.csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in commands:
            assert cli.main(argv) == 0, argv


class TestGridTooLargeToAllocate:
    # 1e17 float points take 711 PiB, past any user address space, so numpy
    # refuses them without touching memory; past 1.15e18 points numpy
    # refuses the byte size before asking for it
    @pytest.mark.parametrize("argv, flag", [
        (["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1",
          "--grid", "1:2:100000000000000000"], "--grid"),
        (["fracderiv", "--beta", "0.5", "--power", "1", "--grid", "1:2:100000000000000000"],
         "--grid"),
        (["cosmo", "figure", "--k", "1", "--c", "1", "--grid", "1:2:3",
          "--delta-grid", "0.5:1:100000000000000000"], "--delta-grid"),
        (["cosmo", "scale", "--k", "0", "--c", "1", "--grid", "1:2:100000000000000000"],
         "--grid"),
        (["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1",
          "--grid", "1:2:10000000000000000000"], "--grid"),
        (["fracderiv", "--beta", "0.5", "--power", "1", "--grid", "1:2:10000000000000000000"],
         "--grid"),
    ])
    def test_grid_count_too_large_is_a_flag_error(self, capsys, argv, flag):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag}: ")
        assert "do not fit in memory" in err

    # a table whose grids were allocated may still run out of memory later:
    # the step that would raise is stubbed, so nothing large is allocated
    @pytest.mark.parametrize("argv, target, flag", [
        (["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "1", "--grid", "1:2:3"],
         (riccati, "scanned_table"), "--grid"),
        (["fracderiv", "--beta", "0.5", "--power", "1", "--grid", "1:2:3"],
         (cli.fo, "rl_derivative"), "--grid"),
        (["cosmo", "figure", "--k", "1", "--c", "1", "--grid", "1:2:3",
          "--delta-grid", "0.5:1:3"], (riccati, "scanned_table"), "--grid/--delta-grid"),
    ])
    def test_table_out_of_memory_is_a_flag_error(self, capsys, monkeypatch, argv, target, flag):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(*target, out_of_memory)
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == f"error: {flag}: the table does not fit in memory\n"


# flag values of the argv fuzz: signed zeros, the float range's ends, a
# non-number, non-finite values and ordinary magnitudes
FUZZ_VALUES = [
    "0", "-0", "5e-324", "1e-300", "1e-15", "0.05", "0.1", "0.333", "0.5", "0.999999999",
    "1", "1.0000001", "1.5", "2", "2.5", "3", "7", "12", "1e5", "1e300",
    "1.7976931348623157e308", "-1e-300", "-0.5", "-1", "-2", "-7", "-1e5",
    "-1.7976931348623157e308", "nan", "inf", "-inf", "x", "0.2", "0.75",
]
# half of the draws come from these, so that some argv pass every check
FUZZ_ORDINARY = ["0.05", "0.1", "0.2", "0.333", "0.5", "0.75", "0.999999999", "1", "1.5",
                 "2", "2.5", "3", "7", "12"]
# verify integrates its whole span: its ends stay short or are refused early
VERIFY_ENDS = ["0", "-1", "5e-324", "1e-300", "0.5", "1", "1.0000001", "2.5", "3", "nan",
               "inf", "1e300", "1.7976931348623157e308"]


@st.composite
def fuzz_argv(draw):
    """An argv of fracderiv, riccati or cosmo with every flag drawn from
    FUZZ_VALUES or FUZZ_ORDINARY, the Riccati coefficients of either sign
    (grid counts up to 40, 3 for fracderiv, the ends mostly ascending); a
    flag is left out now and then, so required ones go missing too."""
    value = st.sampled_from(FUZZ_ORDINARY) | st.sampled_from(FUZZ_VALUES)

    def signed():
        v = draw(value)
        return v if v.startswith("-") else draw(st.sampled_from(["", "-"])) + v

    def grid(max_count):
        ends = draw(st.lists(value, min_size=2, max_size=2, unique=draw(st.integers(0, 3)) > 0))
        if draw(st.integers(0, 3)) and "x" not in ends:
            ends.sort(key=float)
        count = draw(st.integers(2, max_count) | st.integers(0, max_count))
        return f"{ends[0]}:{ends[1]}:{count}"

    def flags(*pairs):
        return [t for name, v in pairs if draw(st.integers(0, 19)) > 0 for t in (name, v)]

    command = draw(st.sampled_from(["fracderiv", "riccati", "cosmo"]))
    if command == "fracderiv":
        f = draw(st.sampled_from(["--power", "--builtin"]))
        fv = draw(value) if f == "--power" else draw(st.sampled_from(
            ["sin", "exp", f"poly:{draw(value)},{draw(value)}", "cos"]))
        return [command] + flags(("--beta", draw(value)), (f, fv), ("--grid", grid(3)))
    branch = ("--branch", draw(st.sampled_from(["1", "2", "1", "2", "0"])))
    if command == "riccati":
        action = draw(st.sampled_from(["eval", "poles", "verify"]))
        ends = st.sampled_from(VERIFY_ENDS)
        rest = [("--x0", draw(ends)), ("--x1", draw(ends))] if action == "verify" else [
            ("--grid", grid(40))]
        return [command, action] + flags(("--a", signed()), ("--b", signed()),
                                         ("--delta", draw(value)), branch, *rest)
    action = draw(st.sampled_from(["hubble", "scale", "figure"]))
    rest = {"hubble": [], "scale": [("--eta-ref", draw(value))],
            "figure": [("--delta-grid", grid(6))]}[action]
    fluid = [(name, draw(value)) for name in draw(st.sampled_from(
        [["--c"], ["--gamma"], ["--c"], ["--gamma"], ["--c", "--gamma"]]))]
    return [command, action] + flags(
        ("--k", draw(st.sampled_from(["-1", "0", "1", "1", "2"]))), *fluid,
        ("--delta", draw(value)), branch, ("--grid", grid(40)), *rest)


@given(argv=fuzz_argv())
@example(argv="cosmo hubble --k -1 --gamma 0.1 --delta 1 --branch 2 --grid 5e-324:3:14".split())
@example(argv="riccati verify --a 3 --b 0.1 --delta 0.999999999 --x0 5e-324 --x1 1.0000001"
         .split())
@example(argv="fracderiv --beta 1.0000001 --builtin poly:1,2 --grid 1e-300:3:3".split())
@example(argv="riccati eval --a 5e-324 --b 7 --delta 0.333 --grid 0.05:3:3".split())
@example(argv="fracderiv --beta 0 --builtin poly:1,2 --grid 3:1.7976931348623157e308:3"
         .split())
@example(argv="riccati eval --a -0.5 --b -0.5 --delta 0.333 --branch 2 "
         "--grid 0.05:1.7976931348623157e308:13".split())
@example(argv="riccati eval --a 1e-300 --b 1e5 --delta 1e-15 --grid 1e-15:2.5:24".split())
@example(argv="fracderiv --beta 1.0000001 --builtin exp --grid 7:1e5:2".split())
@example(argv="riccati eval --a 1 --b -1 --delta 1 --grid 1:2:100000000000000000".split())
@example(argv="fracderiv --beta 0.5 --power 1 --grid 1:2:100000000000000000".split())
@example(argv="cosmo figure --k 1 --c 1 --grid 1:2:3 --delta-grid 0.5:1:100000000000000000"
         .split())
@example(argv="riccati verify --a -1 --b -1.7976931348623157e308 --delta 0.05 "
         "--x0 5e-324 --x1 1e-300".split())
@example(argv="riccati verify --a -7 --b 0.333 --delta 0.999999999 --branch 2 "
         "--x0 5e-324 --x1 0.5".split())
@settings(max_examples=300, deadline=None)
def test_flag_contract_holds_for_any_argv(argv):
    # exit 0, 2, 3, 4 or 5 with no exception or warning, one error line on
    # a non-zero exit (argparse's usage lines may come first), and a table
    # with no inf cell and nan only on its pole rows
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = cli.main(argv)
    errors = [ln for ln in err.getvalue().splitlines() if "error:" in ln]
    if rc != 0:
        assert rc in (2, 3, 4, 5)
        assert out.getvalue() == "" and len(errors) == 1
        assert err.getvalue().splitlines()[-1] == errors[0]
        return
    assert err.getvalue() == ""
    header, rows = parse_table(out.getvalue())
    for row in rows:
        cells = [float(c) for c in row]
        assert not any(math.isinf(c) for c in cells), row
        if any(math.isnan(c) for c in cells):
            assert header[-1] == "pole" and row[-1] == "1", row
