"""Acceptance gate: every criterion at its stated tolerance, one test each,
plus the selftest-command behaviours (exit status, determinism, the golden
stdout in tests/golden/selftest.txt, sensitivity to a perturbed gamma)."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from fracriccati import acceptance, cli
from fracriccati import fracops, specfun


@pytest.mark.parametrize("name,criterion", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA])
def test_criterion(name, criterion):
    passed, detail = criterion()
    assert passed, f"{name}: {detail}"


def test_figure_criterion_does_not_import_the_cli():
    # the suite reads the figure surfaces from the library; cli is a leaf
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from fracriccati import acceptance; "
            "assert acceptance.criterion_figure_grids()[0]; "
            "print('fracriccati.cli' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, timeout=120, check=True)
    assert proc.stdout == b"False\n"


@pytest.fixture(scope="module")
def selftest_runs():
    """Exit status and stdout of two `selftest` runs, shared by the tests below."""
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["selftest"])
        runs.append((rc, buf.getvalue()))
    return runs


def test_selftest_exit_zero_and_line_per_criterion(selftest_runs):
    rc, out = selftest_runs[0]
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == len(acceptance.CRITERIA)
    assert all(ln.startswith("PASS") for ln in lines)


def test_selftest_deterministic_output(selftest_runs):
    (rc_a, out_a), (rc_b, out_b) = selftest_runs
    assert rc_a == rc_b == 0
    assert out_a == out_b


def test_selftest_matches_golden(selftest_runs):
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "selftest.txt"
    assert selftest_runs[0][1] == golden.read_text()


def test_perturbed_gamma_is_caught(monkeypatch):
    """Sensitivity smoke test: nudging gamma by 1e-5 must break the suite."""
    true_gamma = specfun.gamma

    def skewed(x):
        return true_gamma(x) * (1.0 + 1e-5)

    monkeypatch.setattr(specfun, "gamma", skewed)
    monkeypatch.setattr(fracops, "gamma", skewed)
    ok_lacroix, _ = acceptance.criterion_lacroix()
    ok_bessel, _ = acceptance.criterion_bessel_identities()
    assert not ok_lacroix
    assert not ok_bessel
