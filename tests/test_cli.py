import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from fracriccati import cli, odeverify, riccati
from fracriccati.errors import MaxStepsError, StepUnderflowError


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
            value = np.where(xs >= pts[first_bad], math.nan, -1.0)[None, :]
            return value, np.zeros(value.shape, dtype=bool)

        monkeypatch.setattr(riccati, "branch_table", table)
        rc, out, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "1",
                                    "--delta", "1", "--x0", "20", "--x1", "31", "--branch", "2"])
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "nan" in err and f"x = {float(pts[first_bad])!r}" in err

    @pytest.mark.parametrize("error", [MaxStepsError, StepUnderflowError])
    def test_integrator_failure_exits_3_with_one_error_line(self, capsys, monkeypatch, error):
        # e.g. --x1 1e300 exhausts the step budget, but takes about 12 s to get there
        def fail(rp, ivp):
            raise error("integrator gave up")

        monkeypatch.setattr(odeverify, "integrate_riccati", fail)
        rc, out, err = run(capsys, ["riccati", "verify", "--a", "1", "--b", "1",
                                    "--delta", "1", "--x0", "0.1", "--x1", "1"])
        assert rc == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "gave up" in err

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

    def test_figure_accepts_second_axis_grid(self):
        from fracriccati.grids import GridSpec

        rows = cli.figure_rows(-1, 1.0, GridSpec(0.1, 2.0, 8), GridSpec(0.3, 1.0, 4))
        assert len(rows) == 32

    def test_c_zero_exits_5(self, capsys):
        rc, _, _ = run(capsys, ["cosmo", "hubble", "--k", "1", "--gamma",
                                str(2.0 / 3.0), "--grid", "1:2:3"])
        assert rc == 5

    def test_needs_c_or_gamma(self, capsys):
        rc, _, _ = run(capsys, ["cosmo", "hubble", "--k", "1", "--grid", "1:2:3"])
        assert rc == 2


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
    ])
    def test_names_largest_x(self, capsys, argv, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, argv + ["--delta", "0.5"])
        assert rc == 2 and out == ""
        assert err == f"error: --grid: x = {x} is too large: the Bessel argument q x^r overflows\n"


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
    # stdout and exit codes of a point-by-point eval_u1/eval_u2 evaluation,
    # which the table evaluation must repeat
    @pytest.mark.parametrize("argv, code, stdout", [
        ("riccati verify --a 1 --b 1 --delta 0.5 --x0 0.5 --x1 1.5 --branch 1", 0,
         "1,1,0.5,1,0.5,1.5,1.6805057345692376e-09,1.2014167438678669e-11"),
        ("riccati verify --a 2 --b 0.5 --delta 0.3 --x0 0.2 --x1 3 --branch 1", 0,
         "2,0.5,0.29999999999999999,1,0.20000000000000001,3,"
         "6.3794403093453411e-10,4.5229375800204252e-11"),
        ("riccati verify --a 1 --b -1 --delta 0.7 --x0 0.3 --x1 1.2 --branch 2", 0,
         "1,-1,0.69999999999999996,2,0.29999999999999999,1.2,"
         "4.4145209709967048e-09,3.4422686923107904e-11"),
        ("riccati verify --a -1.5 --b 0.7 --delta 0.8 --x0 0.4 --x1 2.5 --branch 1", 0,
         "-1.5,0.69999999999999996,0.80000000000000004,1,0.40000000000000002,2.5,"
         "1.0535133876388159e-09,5.0480730706681243e-11"),
        # the difference step (1e-6) is as large as x0, hence the residual
        ("riccati verify --a 1 --b -1 --delta 0.5 --x0 2e-6 --x1 1 --branch 1", 0,
         "1,-1,0.5,1,1.9999999999999999e-06,1,5555555555.5559778,3.2995544074765348e-09"),
        # a difference stencil reaches x <= 0
        ("riccati verify --a 1 --b -1 --delta 0.5 --x0 5e-7 --x1 1 --branch 1", 2, None),
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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["fracriccati"]]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)  # the figure command writes open.csv
    for argv in commands:
        assert cli.main(argv) == 0, argv
