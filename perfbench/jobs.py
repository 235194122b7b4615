"""Seeded job lists for the three benchmark workloads.

A workload is a fixed plan of job classes: command shape, branch, table
size, Bessel-argument range, delta, operator order.  The plan is the same
for every seed, so one seed's pass costs about what another's does.  The
seed draws everything inside each class: the coefficients and their signs,
some jitter on every size, range and order, the pole-free interval picked
for a scale job, and the job order.  The same seed gives the same jobs.

A job is a JSON-ready dict with the number of rows it asks for and either
``argv`` (one ``cli.main`` call) or ``call`` (one public library call).
"""

from __future__ import annotations

import math
import random

import oracle

WORKLOADS = ("eval_oscillatory", "eval_modified", "operators")

# README domain of the Bessel argument; a few eval_modified jobs run past the
# 700 where bessel_i gives up
Z_MAX = 100.0
Z_BEYOND = 750.0


def _r(v: float) -> float:
    """Round to the 6 digits the job prints, so job and argv agree."""
    return float(f"{v:.6g}")


def _grid(start: float, stop: float, count: int) -> list:
    return [_r(start), _r(stop), int(count)]


def _grid_arg(g) -> str:
    return f"{g[0]!r}:{g[1]!r}:{g[2]}"


class _Plan:
    """Fixed job classes (``design``) with seeded draws inside each (``rng``)."""

    def __init__(self, workload: str, seed: int, rel: float = 0.05, spread: float = 0.02):
        self.design = random.Random(f"{workload}/design")
        self.rng = random.Random(seed)
        self.rel = rel  # relative jitter of sizes and ranges
        self.spread = spread  # absolute jitter of orders

    def classes(self, n: int, lo: float, hi: float) -> list[float]:
        """One value from each of n equal slices of [lo, hi], plan order."""
        vals = [lo + (hi - lo) * (i + self.design.random()) / n for i in range(n)]
        self.design.shuffle(vals)
        return vals

    def near(self, v: float) -> float:
        return v * self.rng.uniform(1.0 - self.rel, 1.0 + self.rel)

    def order(self, v: float, lo: float, hi: float) -> float:
        return _r(min(hi, max(lo, v + self.rng.uniform(-self.spread, self.spread))))

    def coeffs(self, oscillatory: bool, delta: float):
        a = _r(self.rng.choice((-1.0, 1.0)) * self.rng.uniform(0.5, 2.0))
        sign = -1.0 if oscillatory else 1.0
        b = _r(sign * math.copysign(self.rng.uniform(0.5, 2.0), a))
        return a, b, self.order(delta, 0.05, 1.0)

    def x_range(self, a: float, b: float, delta: float, z_max: float):
        """Grid ends: the Bessel argument q x^r runs from near 0 to z_max."""
        x_hi = float(oracle.Template(a, b, delta, 1).x_of_z(z_max))
        return x_hi * self.rng.uniform(0.002, 0.05), x_hi


def _riccati_argv(action, a, b, delta, branch, *rest):
    return ["riccati", action, "--a", repr(a), "--b", repr(b), "--delta", repr(delta),
            "--branch", str(branch), *rest]


def _cosmo_argv(action, k, c, delta, branch, *rest):
    return ["cosmo", action, "--k", str(k), "--c", repr(c), "--delta", repr(delta),
            "--branch", str(branch), *rest]


# ---------------------------------------------------------------------------
# eval_oscillatory and eval_modified
# ---------------------------------------------------------------------------


def _eval_jobs(workload: str, seed: int, osc: bool) -> list[dict]:
    p = _Plan(workload, seed)
    k = 1 if osc else -1
    jobs = []

    def eval_job(size, z_max, delta, branch):
        a, b, d = p.coeffs(osc, delta)
        lo, hi = p.x_range(a, b, d, p.near(z_max))
        g = _grid(lo, hi, max(2, round(p.near(size))))
        return {"argv": _riccati_argv("eval", a, b, d, branch, "--grid", _grid_arg(g)),
                "rows": g[2]}

    # 12 tables on a size ladder from 100 to 20000 points, each rung with its
    # own Bessel-argument range
    ladder_z = (30, 80, 55, 100, 20, 65, 45, 90, 10, 70, 40, 95)
    for i, (z, d) in enumerate(zip(ladder_z, p.classes(12, 0.05, 1.0))):
        jobs.append(eval_job(100.0 * 200.0 ** (i / 11.0), z, d, 1 + i % 2))
    # 24 small tables; in the modified regime four of them run past 700
    for i, (n, z, d) in enumerate(zip(p.classes(24, 100.0, 1000.0), p.classes(24, 5.0, Z_MAX),
                                      p.classes(24, 0.05, 1.0))):
        if not osc and i < 4:
            z = Z_BEYOND
        jobs.append(eval_job(n, z, d, 1 + i % 2))
    # pole searches; the modified regime has none, so these print no rows
    for i, (z, d) in enumerate(zip(p.classes(16, 5.0, Z_MAX), p.classes(16, 0.05, 1.0))):
        a, b, d = p.coeffs(osc, d)
        branch = 1 + i % 2
        lo, hi = p.x_range(a, b, d, p.near(z))
        g = _grid(lo, hi, 2)
        rows = oracle.Template(a, b, d, branch).zeros(g[0], g[1]).size
        jobs.append({"argv": _riccati_argv("poles", a, b, d, branch, "--grid", _grid_arg(g)),
                     "rows": int(rows)})
    # Hubble tables: the Riccati branch with a = c, b = -k c
    for i, (n, z, d) in enumerate(zip(p.classes(24, 100.0, 2000.0), p.classes(24, 5.0, Z_MAX),
                                      p.classes(24, 0.05, 1.0))):
        c = _r(p.near(p.design.uniform(0.5, 2.0)))
        d = p.order(d, 0.05, 1.0)
        lo, hi = p.x_range(c, -k * c, d, p.near(z))
        g = _grid(lo, hi, max(2, round(p.near(n))))
        jobs.append({"argv": _cosmo_argv("hubble", k, c, d, 1 + i % 2, "--grid", _grid_arg(g)),
                     "rows": g[2]})
    # figure surfaces over an (eta, delta) lattice
    for i in range(12):
        c = _r(p.near(p.design.uniform(0.5, 2.0)))
        g = _grid(p.rng.uniform(0.02, 0.2), p.near(p.design.uniform(2.0, 12.0)),
                  p.design.randint(30, 80))
        dg = _grid(p.near(p.design.uniform(0.05, 0.3)), p.rng.uniform(0.8, 1.0),
                   p.design.randint(5, 10))
        argv = ["cosmo", "figure", "--k", str(k), "--c", repr(c), "--branch", str(1 + i % 2),
                "--grid", _grid_arg(g), "--delta-grid", _grid_arg(dg)]
        jobs.append({"argv": argv, "rows": g[2] * dg[2]})
    # scale-factor ratios inside one pole-free interval
    for i, (z, d) in enumerate(zip(p.classes(12, 5.0, 30.0), p.classes(12, 0.05, 1.0))):
        c = _r(p.near(p.design.uniform(0.5, 2.0)))
        d = p.order(d, 0.05, 1.0)
        branch = 1 + i % 2
        t = oracle.Template(c, -k * c, d, branch)
        lo, hi = p.x_range(c, -k * c, d, p.near(z))
        x0, x1 = oracle.pole_free_interval(t, lo, hi, p.rng)
        g = _grid(x0, x1, p.design.randint(50, 200))
        jobs.append({"argv": _cosmo_argv("scale", k, c, d, branch, "--grid", _grid_arg(g)),
                     "rows": g[2]})
    p.rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _operator_jobs(workload: str, seed: int) -> list[dict]:
    # held tighter than the eval classes: an operator's cost doubles when a
    # small change of x or order adds one mesh doubling
    p = _Plan(workload, seed, rel=0.01, spread=0.005)
    jobs = []
    powers = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    def fracderiv_job(spec, flag, beta, x0, width, count):
        beta = p.order(beta, 0.0, 1.999)
        x0 = p.near(x0)
        g = _grid(x0, x0 + p.near(width), count)
        argv = ["fracderiv", "--beta", repr(beta), *flag, "--grid", _grid_arg(g)]
        return {"argv": argv, "rows": g[2], "f": spec, "beta": beta, "grid": g}

    # fracderiv tables of t^a, polynomials, sin and exp
    for kind in ("power", "poly", "sin", "exp"):
        for beta in p.classes(6, 0.0, 2.0):
            if kind == "power":
                a = p.design.choice(powers)
                spec, flag = {"kind": "power", "a": a}, ["--power", repr(a)]
            elif kind == "poly":
                coeffs = [_r(p.near(p.design.uniform(-2.0, 2.0)))
                          for _ in range(p.design.randint(2, 4))]
                spec = {"kind": "poly", "coeffs": coeffs}
                flag = ["--builtin", "poly:" + ",".join(repr(c) for c in coeffs)]
            else:
                spec, flag = {"kind": kind}, ["--builtin", kind]
            jobs.append(fracderiv_job(spec, flag, beta, p.design.uniform(0.2, 1.0),
                                      p.design.uniform(0.5, 3.0), p.design.randint(2, 5)))
    # t^0.5 is not smooth at 0; near order 1.5 its table misses the 1e-6
    # target by about 1.2x at this commit, and this job keeps that in view.
    # Which rows miss flips with the fourth digit of the order, so the job
    # takes no seeded draw: every seed fails the same row.
    g = _grid(0.92, 1.6, 5)
    jobs.append({"argv": ["fracderiv", "--beta", "1.46", "--power", "0.5",
                          "--grid", _grid_arg(g)],
                 "rows": g[2], "f": {"kind": "power", "a": 0.5}, "beta": 1.46, "grid": g})

    def points(n, lo, hi):
        return sorted(_r(p.near(p.design.uniform(lo, hi))) for _ in range(n))

    # direct RL integrals of closed-form functions
    for kind in ("power", "sin", "exp"):
        for alpha in p.classes(6, 0.05, 2.0):
            spec = {"kind": kind}
            if kind == "power":
                spec["a"] = p.design.choice(powers)
            xs = points(p.design.randint(1, 4), 0.2, 4.0)
            jobs.append({"call": "rl_integral", "f": spec, "alpha": p.order(alpha, 0.01, 2.0),
                         "xs": xs, "q": None, "rows": len(xs)})
    # RL integrals of a sampled profile I^beta t^a, as in acceptance criterion 9
    for alpha in p.classes(6, 0.2, 0.8):
        a = p.design.choice((1.0, 1.5, 2.0))
        beta = p.order(p.design.uniform(0.2, 0.6), 0.1, 0.7)
        x_hi = _r(p.near(p.design.uniform(1.0, 2.5)))
        xs = points(2, 0.3 * x_hi, 0.9 * x_hi)
        spec = {"kind": "samples", "a": a, "beta": beta, "x_max": x_hi, "m": 1200, "grade": 3,
                "coef": math.gamma(a + 1.0) / math.gamma(a + 1.0 + beta)}
        jobs.append({"call": "rl_integral", "f": spec, "alpha": p.order(alpha, 0.1, 0.9),
                     "xs": xs, "q": [4096, 3e-7, 6], "rows": len(xs)})
    # u' + p0 u = D^(delta-1) t^a at delta < 1
    for delta in p.classes(8, 0.3, 0.95):
        x0 = p.near(p.design.uniform(0.3, 0.8))
        g = _grid(x0, x0 + p.near(p.design.uniform(0.8, 1.5)), p.design.randint(4, 8))
        p0 = 0.0 if p.design.random() < 0.5 else _r(-p.near(p.design.uniform(0.2, 1.0)))
        jobs.append({"call": "solve_linear_fractional", "a": p.design.choice((0.0, 0.5, 1.0, 2.0)),
                     "delta": p.order(delta, 0.3, 0.95), "p0": p0,
                     "c": _r(p.rng.uniform(-1.0, 1.0)), "grid": g, "rows": g[2]})
    # DP5 cross-checks over pole-free intervals: both branches of the
    # oscillatory regime, branch 1 of the modified one (acceptance criterion
    # 6); forward integration drifts off the repelling modified branch 2 like
    # e^(2z), so no tolerance holds there.  Their 15-30 ms cluster holds the
    # median job, so the median does not sit in a gap between job kinds.
    for i, (z, d) in enumerate(zip(p.classes(43, 3.0, 12.0), p.classes(43, 0.05, 1.0))):
        osc = i % 2 == 0
        branch = 1 + (i // 2) % 2 if osc else 1
        a, b, d = p.coeffs(osc, d)
        lo, hi = p.x_range(a, b, d, p.near(z))
        # the interval is part of the class: its length sets the DP5 work
        x0, x1 = oracle.pole_free_interval(oracle.Template(a, b, d, branch),
                                           max(lo, 0.05 * hi), hi,
                                           random.Random(f"{workload}/verify/{i}"))
        argv = _riccati_argv("verify", a, b, d, branch, "--x0", repr(_r(x0)),
                             "--x1", repr(_r(x1)))
        jobs.append({"argv": argv, "rows": 1})
    p.rng.shuffle(jobs)
    return jobs


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of the workload."""
    if workload == "eval_oscillatory":
        return _eval_jobs(workload, seed, True)
    if workload == "eval_modified":
        return _eval_jobs(workload, seed, False)
    if workload == "operators":
        return _operator_jobs(workload, seed)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
