"""Tests of the benchmark itself: oracle, tracer and job generation.

Run from the root of a source checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import jobs as jobgen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import fracriccati.cli  # noqa: E402

EVAL = {"argv": ["riccati", "eval", "--a", "1", "--b", "-1", "--delta", "0.5", "--branch", "2",
                 "--grid", "0.2:6:40"], "rows": 40}


def _run(job):
    return worker.run_job(fracriccati, job)[1]


def _replace_row(out: str, i: int, row: str) -> str:
    lines = out.splitlines()
    lines[i + 1] = row
    return "\n".join(lines) + "\n"


def test_unperturbed_table_passes():
    outcome = _run(EVAL)
    verdicts = oracle.check(EVAL, outcome)
    assert verdicts.count(oracle.OK) == 40
    assert "nan,1" in outcome["out"]  # the grid crosses poles


@pytest.mark.parametrize("rel, verdict", [(1e-8, oracle.FAILED), (1e-3, oracle.WRONG)])
def test_perturbed_value_is_caught(rel, verdict):
    outcome = _run(EVAL)
    i, row = next((i, r) for i, r in enumerate(outcome["out"].splitlines()[1:])
                  if r.endswith(",0"))
    x, u, _ = row.split(",")
    bent = float(u) * (1.0 + rel)
    outcome["out"] = _replace_row(outcome["out"], i, f"{x},{bent!r},0")
    verdicts = oracle.check(EVAL, outcome)
    assert verdicts[i] == verdict
    assert verdicts.count(oracle.OK) == 39


def test_moved_pole_flag_is_caught():
    outcome = _run(EVAL)
    rows = outcome["out"].splitlines()[1:]
    i = next(i for i, r in enumerate(rows) if r.endswith(",1"))
    j = i + 3 if i + 3 < len(rows) else i - 3
    out = _replace_row(outcome["out"], i, f"{rows[i].split(',')[0]},0.5,0")
    outcome["out"] = _replace_row(out, j, f"{rows[j].split(',')[0]},nan,1")
    verdicts = oracle.check(EVAL, outcome)
    assert verdicts[i] == oracle.WRONG  # a pole lies within half a step
    assert verdicts[j] == oracle.FAILED  # a pole row with no pole nearby


def test_modified_pole_row_fails():
    job = {"argv": ["riccati", "eval", "--a", "1", "--b", "1", "--delta", "1", "--branch", "2",
                    "--grid", "20:40:5"], "rows": 5}
    verdicts = oracle.check(job, _run(job))
    assert oracle.FAILED in verdicts
    assert oracle.WRONG not in verdicts


def test_raising_job_fails_all_rows():
    job = {"argv": ["riccati", "eval", "--a", "1", "--b", "1", "--delta", "1", "--branch", "1",
                    "--grid", "600:710:3"], "rows": 3}
    outcome = _run(job)
    assert outcome["error"] == "OverflowError"
    assert oracle.check(job, outcome) == [oracle.FAILED] * 3


def test_perturbed_operator_value_is_caught():
    job = {"call": "rl_integral", "f": {"kind": "power", "a": 1.5}, "alpha": 0.5,
           "xs": [0.5, 2.0], "q": None, "rows": 2}
    outcome = _run(job)
    assert oracle.check(job, outcome) == [oracle.OK, oracle.OK]
    outcome["values"][0] *= 1.0 + 1e-5
    outcome["values"][1] *= 1.0 + 1e-2
    assert oracle.check(job, outcome) == [oracle.FAILED, oracle.WRONG]


def _attrs(pkg):
    return {
        (mod, attr): getattr(getattr(pkg, mod), attr)
        for mod, attr in [("cli", "main"), ("riccati", "map_params"), ("specfun", "bessel"),
                          ("fracops", "gamma"), ("fracops", "rl_integral"),
                          ("odeverify", "riccati_rhs"), ("specfun", "gamma")]
    }


def test_wrappers_are_removed_after_a_traced_run():
    before = _attrs(fracriccati)
    eval_array = fracriccati.fracops.SampledFunction.__dict__["eval_array"]
    tracer = Tracer()
    tracer.install(fracriccati)
    try:
        assert fracriccati.riccati.map_params is not before[("riccati", "map_params")]
        _run(EVAL)
    finally:
        tracer.uninstall()
    assert _attrs(fracriccati) == before
    assert fracriccati.fracops.SampledFunction.__dict__["eval_array"] is eval_array
    metrics = layer_metrics(tracer)
    assert metrics["cli.jobs"][0] == 1
    assert metrics["riccati.map_params.calls"][0] > 40
    assert metrics["riccati.find_poles.zeros"][0] > 0
    assert metrics["fracops.rl_integral.calls"][0] == 0


@pytest.mark.parametrize("workload", jobgen.WORKLOADS)
def test_seed_fixes_the_jobs(workload):
    first = jobgen.generate(workload, 7)
    assert jobgen.generate(workload, 7) == first
    assert jobgen.generate(workload, 8) != first
    assert len(first) == len(jobgen.generate(workload, 8))


def test_boundary_operator_job_is_the_same_for_every_seed():
    def boundary(seed):
        return [j for j in jobgen.generate("operators", seed) if j.get("beta") == 1.46]

    assert len(boundary(7)) == 1
    assert boundary(7) == boundary(8)
