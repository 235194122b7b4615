"""Seeded benchmark of fracriccati: eval tables, modified-regime tables and
fractional operators.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload eval_oscillatory --seed 1 --seconds 20 --trace 0

The job list is drawn from the seed (jobs.py).  A fresh worker process
(worker.py) runs it in a closed loop with one client, pinned with this
process to one CPU; this process then checks every output row against scipy
and closed forms (oracle.py).  Times are scaled to a reference machine speed
by a calibration loop timed next to each job and each set-up (see
worker.REF_CAL_S); the raw figures are printed too.  The last line of
stdout is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from the tracer's wrappers with --trace 1.  The lines before it
name the table digests, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from worker import REF_CAL_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 12
WORKER_TIMEOUT_S = 150
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    """Child environment: the checkout's package first on the path; the
    one-thread BLAS settings come from main()."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _local_cal() -> float:
    return statistics.median(calibrate() for _ in range(3))


def setup_times(n: int) -> list[tuple[float, float]]:
    """(wall time, speed-scaled time) of n fresh interpreters that import
    fracriccati.cli, each scaled by the calibration loop timed around it."""
    cmd = [sys.executable, "-c", "import fracriccati.cli"]
    times = []
    for _ in range(n):
        cal = _local_cal()
        # no timeout: with one, subprocess polls the child in growing sleeps,
        # which rounds the measured time up to the next poll
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True)
        dt = time.perf_counter() - t0
        cal = 0.5 * (cal + _local_cal())
        times.append((dt, dt * REF_CAL_S / cal))
    return times


def scaled(latencies, cals) -> list[float]:
    """Latencies of one pass in seconds at the reference speed, each scaled
    by the median calibration time of the five jobs around it."""
    out = []
    for i, dt in enumerate(latencies):
        local = statistics.median(cals[max(0, i - 2):i + 3])
        out.append(dt * REF_CAL_S / local)
    return out


def run_worker(jobs, seconds: float, trace: bool, spans_path: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(seconds),
           "1" if trace else "0", str(spans_path)]
    proc = subprocess.run(cmd, input=json.dumps(jobs), capture_output=True, text=True,
                          env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest percentile with TAIL_SAMPLES jobs of one pass beyond it."""
    return 100.0 * (1.0 - TAIL_SAMPLES / jobs_per_pass)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def check_outputs(jobs, res) -> tuple[Counter, int, list]:
    """Row verdict counts over the first pass, the number of its jobs that
    raised, exited non-zero or have a row that is not ok, and the first jobs
    with wrong rows."""
    import oracle

    counts: Counter = Counter()
    failed_jobs = 0
    bad = []
    for job, outcome in zip(jobs, res["first"]):
        verdicts = oracle.check(job, outcome)
        counts.update(verdicts)
        if (outcome["error"] is not None or outcome["exit"] != 0
                or any(v != oracle.OK for v in verdicts)):
            failed_jobs += 1
        if len(bad) < 5 and oracle.WRONG in verdicts:
            bad.append({"job": job.get("argv", job.get("call")), "verdicts": Counter(verdicts),
                        "error": outcome["error"], "exit": outcome["exit"]})
    return counts, failed_jobs, bad


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_pinned": sorted(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    # One client on one CPU: the calibration loop shares a core with the
    # work it scales, and no BLAS pool (this process's included) adds threads.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:  # affinity not settable here: run unpinned
        pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import jobs as jobgen

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fracriccati" / "__init__.py").is_file():
        print(f"error: no fracriccati sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    jobs = jobgen.generate(args.workload, args.seed)
    trace = args.trace == 1
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
    else:
        setup_times(1)  # byte-compile the package once
        setup = setup_times(SETUP_REPEATS // 2)
    res = run_worker(jobs, args.seconds, trace, spans_path)
    if not trace:
        # the other half after the worker, so set-up is sampled across the run
        setup += setup_times(SETUP_REPEATS - SETUP_REPEATS // 2)

    counts, failed_jobs, bad = check_outputs(jobs, res)
    attempted_per_pass = sum(counts.values())
    passes = len(res["pass_digests"])
    # later passes must repeat the checked one byte for byte
    repeatable = len(set(res["pass_digests"])) == 1
    correct = counts["wrong"] == 0 and repeatable
    # a job's latency: the median of its speed-scaled repeats, one per pass
    per_pass = [scaled(lat, cal) for lat, cal in zip(res["latencies"], res["cals"])]
    job_latency = [statistics.median(lat) for lat in zip(*per_pass)]
    rows_per_pass = sum(r[0] for r in res["rows"])
    rows_per_s = rows_per_pass / sum(job_latency)
    info = {
        "workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
        "passes": passes, "tables_sha256": res["pass_digests"][0],
        "rows_attempted_per_pass": attempted_per_pass, "verdicts_per_pass": dict(counts),
        "error_rate": counts["failed"] / attempted_per_pass if attempted_per_pass else 0.0,
        "failed_jobs_per_pass": failed_jobs,
        "passes_repeat_bytes": repeatable, **environment(),
    }
    if bad:
        info["wrong_examples"] = bad
    if trace:
        tr = res["trace"]
        info["traced_sha256"] = tr["digest"]
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        correct = correct and tr["digest"] == res["pass_digests"][0]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tr["metrics"].items()}
        traced_rows_per_s = sum(r[0] for r in tr["rows"]) / sum(
            scaled(tr["latencies"], tr["cals"]))
        info["untraced_rows_per_s"] = rows_per_s
        info["traced_rows_per_s"] = traced_rows_per_s
        metrics["trace.overhead_ratio"] = {"value": rows_per_s / traced_rows_per_s,
                                           "unit": "ratio"}
    else:
        p_tail = tail_percentile(len(jobs))
        n = len(job_latency)
        info["job_latency_is"] = "median over passes of the speed-scaled latency"
        info["job_tail_percentile"] = p_tail
        info["job_samples"] = n
        info["job_samples_beyond_tail"] = n - math.ceil(p_tail / 100.0 * n)
        info["calibration_median_s"] = statistics.median(c for cal in res["cals"] for c in cal)
        info["raw_rows_per_s"] = rows_per_pass / statistics.median(map(sum, res["latencies"]))
        info["raw_setup_s"] = statistics.median(t[0] for t in setup)
        metrics = {
            "setup_s": {"value": statistics.median(t[1] for t in setup), "unit": "s"},
            "job_p50_s": {"value": percentile(job_latency, 50.0), "unit": "s"},
            "job_tail_s": {"value": percentile(job_latency, p_tail), "unit": "s"},
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
            "ok_row_ratio": {"value": counts["ok"] / attempted_per_pass, "unit": "ratio"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    print("# " + json.dumps(info, default=str))
    # attempted and failed count the jobs of the checked pass: the later
    # passes repeat its bytes, and how many passes fit in the run varies with
    # the machine's speed, while the jobs and their verdicts follow the seed
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed_jobs,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
