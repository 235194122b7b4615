"""Workload process: runs one job list against fracriccati in a closed loop.

Started by run.py as ``python3 perfbench/worker.py SRC_DIR SECONDS TRACE
SPANS_PATH`` with the job list as JSON on stdin.  One client, one job at a
time; every job is either one ``cli.main(argv)`` call with stdout and stderr
captured, or one public library call.  The worker imports numpy and the
package only, never scipy, so its peak resident memory is the package's.

Untraced (TRACE=0): whole passes over the job list until SECONDS have gone,
so each job's latency is sampled once per pass, spread over the run, each
sample right after a timing of the calibration loop.  Traced (TRACE=1):
untraced passes for half of SECONDS, then one pass with the tracer's
wrappers installed.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time

# Time of calibrate() at the reference speed.  The machines this runs on
# change speed by up to 60% for minutes at a time (other tenants), so every
# latency is scaled by REF_CAL_S / (calibrate() timed next to it): seconds at
# the reference speed.  calibrate() uses no fracriccati code, so a change to
# the package moves the scaled times as it moves the raw ones.
REF_CAL_S = 1.25e-3


def calibrate() -> float:
    """Wall time of a fixed mix of scalar float loops and small numpy array
    ops, about half each: the two kinds of work the package does, which a
    slow phase of the machine slows by different amounts."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 2000):
        acc += math.exp(-i * 1e-3) * math.cosh(i * 1e-4) / i
    s = np.linspace(0.0, 1.0, 4097)
    for _ in range(8):
        p = (1.0 - s) ** 0.7
        acc += float(np.sin(s[:-1]) @ (p[:-1] - p[1:]))
    return time.perf_counter() - t0


def _import_package(src: str):
    sys.path.insert(0, src)
    import fracriccati
    import fracriccati.cli  # noqa: F401  (jobs call pkg.cli.main)

    if not fracriccati.__file__.startswith(src):
        raise SystemExit(f"fracriccati imported from {fracriccati.__file__}, not {src}")
    return fracriccati


def _function(fracops, spec: dict):
    """The closed-form RealFunction a direct rl_integral call integrates."""
    import numpy as np

    kind = spec["kind"]
    if kind == "power":
        return fracops.RealFunction.power(spec["a"])
    if kind == "sin":
        return fracops.RealFunction(np.sin)
    if kind == "exp":
        return fracops.RealFunction(np.exp)
    raise ValueError(kind)


def _prepare(pkg, job: dict):
    """Everything a direct call needs that is input making, not the job."""
    import numpy as np

    fo = pkg.fracops
    if job["call"] == "rl_integral":
        spec = job["f"]
        q = fo.QuadratureSpec(*job["q"]) if job["q"] else fo.QuadratureSpec()
        if spec["kind"] == "samples":
            ts = spec["x_max"] * (np.arange(spec["m"] + 1) / spec["m"]) ** spec["grade"]
            ys = spec["coef"] * ts ** (spec["a"] + spec["beta"])
            return {"ts": ts, "ys": ys, "q": q}
        return {"f": _function(fo, spec), "q": q}
    return {
        "p": fo.RealFunction.constant(job["p0"]),
        "g": fo.RealFunction.power(job["a"]),
        "grid": pkg.grids.GridSpec(*job["grid"]),
    }


def _call(pkg, job: dict, prep: dict) -> list[float]:
    fo = pkg.fracops
    if job["call"] == "rl_integral":
        f = prep.get("f")
        if f is None:
            f = fo.RealFunction.from_samples(prep["ts"], prep["ys"])
        return [fo.rl_integral(f, job["alpha"], x, prep["q"]) for x in job["xs"]]
    u = fo.solve_linear_fractional(prep["p"], prep["g"], job["delta"], prep["grid"], job["c"])
    return [float(v) for v in u.ys]


def run_job(pkg, job: dict) -> tuple[float, dict]:
    """(latency, outcome) of one job; outcome holds the output text."""
    if "argv" in job:
        out, err = io.StringIO(), io.StringIO()
        error, code = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = pkg.cli.main(list(job["argv"]))
            except Exception as exc:  # a job that raises fails, the run goes on
                error = type(exc).__name__
            t1 = time.perf_counter()
        return t1 - t0, {"out": out.getvalue(), "exit": code, "error": error,
                         "stderr": err.getvalue()[-500:]}
    prep = _prepare(pkg, job)
    error, values = None, []
    t0 = time.perf_counter()
    try:
        values = _call(pkg, job, prep)
    except Exception as exc:
        error = type(exc).__name__
    t1 = time.perf_counter()
    text = "".join(f"{v!r}\n" for v in values)
    return t1 - t0, {"values": values, "out": text, "exit": 0, "error": error}


def emitted_rows(job: dict, outcome: dict) -> tuple[int, int]:
    """(rows printed or returned, pole rows among them) of a finished job."""
    if outcome["error"] is not None:
        return 0, 0
    if "argv" not in job:
        return len(outcome["values"]), 0
    lines = outcome["out"].splitlines()[1:]
    poles = 0
    if job["argv"][1] in ("eval", "hubble", "figure"):
        poles = sum(1 for ln in lines if ln.endswith(",1"))
    return len(lines), poles


def run_pass(pkg, jobs, tracer=None):
    """Latencies, calibration times, emitted rows and outcomes of one pass;
    the calibration loop runs right before each job."""
    latencies, cals, rows, outcomes = [], [], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        cals.append(calibrate())
        dt, outcome = run_job(pkg, job)
        latencies.append(dt)
        rows.append(emitted_rows(job, outcome))
        outcomes.append(outcome)
    return latencies, cals, rows, outcomes


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o["out"].encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv) -> int:
    src, seconds, trace, spans_path = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    jobs = json.load(sys.stdin)
    pkg = _import_package(src)

    deadline = seconds / 2.0 if trace else seconds
    first = None
    digests, latencies, cals = [], [], []
    t_start = time.perf_counter()
    while first is None or time.perf_counter() - t_start < deadline:
        lat, cal, rows, outcomes = run_pass(pkg, jobs)
        latencies.append(lat)
        cals.append(cal)
        digests.append(digest(outcomes))
        if first is None:
            first = outcomes
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"pass_digests": digests, "latencies": latencies, "cals": cals, "rows": rows,
              "first": first, "peak_rss_kb": peak_kb}

    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(pkg)
        try:
            lat, cal, r, outcomes = run_pass(pkg, jobs, tracer)
        finally:
            tracer.uninstall()
        tracer.save(spans_path)
        metrics = layer_metrics(tracer)
        cli_rows = [n for job, n in zip(jobs, r) if "argv" in job]
        metrics["cli.rows"] = (sum(n[0] for n in cli_rows), "count")
        metrics["cli.pole_rows"] = (sum(n[1] for n in cli_rows), "count")
        result["trace"] = {
            "latencies": lat,
            "cals": cal,
            "rows": r,
            "digest": digest(outcomes),
            "metrics": metrics,
        }
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
