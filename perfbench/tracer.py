"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers on the module (or class) attribute that callers look up at call
time, e.g. ``riccati.map_params`` or the ``gamma`` binding that ``fracops``
imported by name.  ``uninstall`` puts every original back.  Spans (name,
start, end, parent, job) are kept in flat arrays and written out at the end;
``layer_metrics`` folds them into the per-layer counts and times.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, attribute, span name) of every wrapped function; a missing
# attribute (a later refactor may remove a private helper) is skipped and
# its metrics read 0
_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "_pole_indices", "cli.pole_flagging"),
    ("cosmo", "hubble", "cosmo.hubble"),
    ("cosmo", "hubble_flat", "cosmo.hubble_flat"),
    ("cosmo", "scale_factor", "cosmo.scale_factor"),
    ("riccati", "map_params", "riccati.map_params"),
    ("riccati", "eval_u1", "riccati.eval"),
    ("riccati", "eval_u2", "riccati.eval"),
    ("riccati", "eval_y_branch", "riccati.eval_y_branch"),
    ("riccati", "find_poles", "riccati.find_poles"),
    ("specfun", "_bessel_k_quad", "specfun.k_quad"),
    ("specfun", "_hankel_pq", "specfun.hankel_pq"),
    ("specfun", "gamma", "specfun.gamma"),
    ("fracops", "gamma", "specfun.gamma"),
    ("cli", "gamma", "specfun.gamma"),
    ("odeverify", "gamma", "specfun.gamma"),
    ("fracops", "rl_integral", "fracops.rl_integral"),
    ("fracops", "rl_derivative", "fracops.rl_derivative"),
    ("fracops", "solve_linear_fractional", "fracops.solve_linear_fractional"),
    ("fracops", "adaptive_simpson", "fracops.adaptive_simpson"),
    ("fracops", "_product_trapezoid", "fracops.mesh"),
    ("odeverify", "integrate", "odeverify.integrate"),
    ("odeverify", "fd_derivative", "odeverify.fd_derivative"),
)
_BESSEL_KINDS = ("J", "Y", "I", "K")
_LAYERS = ("cli", "cosmo", "riccati", "specfun", "fracops", "odeverify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counters = {"riccati.find_poles.zeros": 0, "fracops.eval_array.nodes": 0,
                         "odeverify.rhs_evals": 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _run(self, nid: int, func, args, kwargs):
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _set(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        func = owner.__dict__.get(attr)
        if func is None:
            return
        nid = self._id(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = self._run(nid, func, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        self._set(owner, attr, wrapper)

    def install(self, pkg) -> None:
        """Wrap the layer functions of the imported fracriccati package."""
        for mod, attr, name in _TARGETS:
            after = None
            if name == "riccati.find_poles":
                after = self._count_zeros
            self._wrap(getattr(pkg, mod), attr, name, after)
        self._wrap_bessel(pkg.specfun)
        for cls in (pkg.fracops.RealFunction, pkg.fracops.SampledFunction):
            self._wrap(cls, "eval_array", "fracops.eval_array", self._count_nodes)
        for attr in ("riccati_rhs", "linear_rhs"):
            self._count_rhs(pkg.odeverify, attr)

    def _count_zeros(self, args, result) -> None:
        self.counters["riccati.find_poles.zeros"] += len(result)

    def _count_nodes(self, args, result) -> None:
        self.counters["fracops.eval_array.nodes"] += len(result)

    def _wrap_bessel(self, specfun) -> None:
        func = specfun.__dict__["bessel"]
        ids = {k: self._id(f"specfun.bessel.{k}") for k in _BESSEL_KINDS}
        other = self._id("specfun.bessel")

        @functools.wraps(func)
        def bessel(kind, *args, **kwargs):
            nid = ids.get(kind.upper(), other) if isinstance(kind, str) else other
            return self._run(nid, func, (kind, *args), kwargs)

        self._set(specfun, "bessel", bessel)

    def _count_rhs(self, odeverify, attr: str) -> None:
        factory = odeverify.__dict__.get(attr)
        if factory is None:
            return
        counters = self.counters

        @functools.wraps(factory)
        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)

            def counted(x, u):
                counters["odeverify.rhs_evals"] += 1
                return rhs(x, u)

            return counted

        self._set(odeverify, attr, make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, func = self._undo.pop()
            setattr(owner, attr, func)

    # -- results ------------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, s (outermost spans of a name) and self_s for every name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child[: dur.size]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outer = parent_name != name
        out = {}
        for nid, n in enumerate(self.names):
            m = name == nid
            out[n] = {
                "calls": int(m.sum()),
                "s": float(dur[m & outer].sum()),
                "self_s": float(self_t[m].sum()),
                "under_find_poles": int((m & (parent_name == self._ids.get(
                    "riccati.find_poles", -2))).sum()),
            }
        return out


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of one traced pass."""
    st = tracer.span_stats()
    m: dict[str, tuple[float, str]] = {}

    def count(key, v):
        m[key] = (int(v), "count")

    def secs(key, v):
        m[key] = (float(v), "s")

    def layer_self(layer):
        return sum(v["self_s"] for k, v in st.items() if k.split(".")[0] == layer)

    count("cli.jobs", _get(st, "cli.main", "calls"))
    for layer in _LAYERS:
        secs(f"{layer}.self_s", layer_self(layer))
    secs("cli.pole_flagging.self_s", _get(st, "cli.pole_flagging", "self_s"))
    count("cosmo.hubble.calls", _get(st, "cosmo.hubble", "calls"))
    for name in ("riccati.map_params", "riccati.find_poles"):
        count(f"{name}.calls", _get(st, name, "calls"))
        secs(f"{name}.s", _get(st, name, "s"))
    count("riccati.eval.calls", _get(st, "riccati.eval", "calls"))
    secs("riccati.eval.self_s", _get(st, "riccati.eval", "self_s"))
    count("riccati.eval_y_branch.calls", _get(st, "riccati.eval_y_branch", "calls"))
    count("riccati.find_poles.den_evals",
          sum(_get(st, f"specfun.bessel.{k}", "under_find_poles") for k in _BESSEL_KINDS))
    count("riccati.find_poles.zeros", tracer.counters["riccati.find_poles.zeros"])
    for name in [f"specfun.bessel.{k}" for k in _BESSEL_KINDS] + [
        "specfun.gamma", "specfun.k_quad", "specfun.hankel_pq",
        "fracops.rl_integral", "fracops.rl_derivative", "fracops.adaptive_simpson",
        "fracops.eval_array", "fracops.mesh", "odeverify.integrate", "odeverify.fd_derivative",
    ]:
        count(f"{name}.calls", _get(st, name, "calls"))
        secs(f"{name}.s", _get(st, name, "s"))
    secs("fracops.solve_linear_fractional.s", _get(st, "fracops.solve_linear_fractional", "s"))
    count("fracops.eval_array.nodes", tracer.counters["fracops.eval_array.nodes"])
    ops = _get(st, "fracops.rl_integral", "calls") + _get(st, "fracops.rl_derivative", "calls")
    meshes = _get(st, "fracops.mesh", "calls")
    m["fracops.mesh_useful_ratio"] = (ops / meshes if meshes else 0.0, "ratio")
    count("odeverify.rhs_evals", tracer.counters["odeverify.rhs_evals"])
    count("trace.spans", len(tracer.start))
    return m
