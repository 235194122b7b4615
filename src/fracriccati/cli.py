"""Command-line surface: operator evaluation, Riccati solving/verification,
cosmology tables, figure-grid emission, and the acceptance selftest.

Output tables are plain text: one '#' header line naming the columns, comma
separators, 17-significant-digit decimals (bit-faithful round trip), newline
endings.  Lattice points nearest a solution pole (within half a grid step)
are emitted as pole rows: 'nan' in the value column and pole=1.
Exit codes: 0 ok, 2 flag errors (a non-finite grid end, coefficient,
coefficient product a*b, --x1 or --eta-ref, a pole-search span over the
scan budget, or a point whose Bessel argument underflows to 0 or overflows
among them) or an unwritable --out, 3 numeric non-convergence, overflow or
a non-finite verification value, 4 pole inside a verification/scale
interval, 5 cosmology with c = 0.

`riccati eval`, `cosmo hubble` and `cosmo figure` share one row builder,
_table_rows, which evaluates parameter sets x grid points in one call of
riccati.branch_table or, for every curvature, cosmo.hubble.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import numpy as np

from . import cosmo, odeverify, riccati
from . import fracops as fo
from .errors import (
    BranchZeroError,
    ConvergenceError,
    NonFiniteError,
    ScanBudgetError,
)
from .grids import GridSpec
from .specfun import gamma, recip_gamma

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_NONCONVERGENT = 3
EXIT_POLE = 4
EXIT_BAD_C = 5


def _parse_grid(text: str) -> GridSpec:
    try:
        start_s, stop_s, count_s = text.split(":")
        return GridSpec(float(start_s), float(stop_s), int(count_s))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r} ({exc})"
        )


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _emit(out_path: str | None, header: list[str], rows) -> int:
    """Write the table; exit code EXIT_FLAGS if --out cannot be written.

    Every row goes through one '%.17g' template, which prints the integer
    columns (pole flag, branch) as plain integers.
    """
    fmt = ",".join(["%.17g"] * len(header))
    lines = ["# " + ",".join(header)]
    lines.extend(fmt % row for row in rows)
    text = "\n".join(lines) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _err(f"cannot write --out {out_path}: {exc.strerror or exc}")
        return EXIT_FLAGS
    return EXIT_OK


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# table rows: one builder (the acceptance suite shares the pole window)
# ---------------------------------------------------------------------------


def pole_window(grid: GridSpec) -> float:
    """Half a grid step, widened by 1e-9 relative: a denominator zero flags
    every lattice point within this distance (both neighbours when midway)."""
    return 0.5 * grid.step * (1.0 + 1e-9)


def pole_search_bounds(grid: GridSpec) -> tuple[float, float]:
    """Zero-search window of the half-step flag rule, cut off below at min(1e-12, start/2)."""
    half = pole_window(grid)
    return max(grid.start - half, min(1e-12, 0.5 * grid.start)), grid.stop + half


def _pole_indices(rp: riccati.RiccatiParams, branch: int, grid: GridSpec) -> list[int]:
    """Lattice indices whose nearest denominator zero lies within half a step.

    A zero flags index i when |x_i - zero| <= half; the candidates are the
    indices next to round((zero - start) / step).  Each bracket is bisected
    only until it is narrower than one step and both of its ends flag the
    same indices: every point inside it then flags those indices, the 1e-12
    zero included.
    """
    pts = grid.points()
    half = pole_window(grid)

    def near(x: float) -> list[int]:
        i = round((x - grid.start) / grid.step)
        candidates = range(max(i - 1, 0), min(i + 2, grid.count))
        return [j for j in candidates if abs(float(pts[j]) - x) <= half]

    def settled(lo: float, hi: float) -> bool:
        return hi - lo < grid.step and near(lo) == near(hi)

    lo, hi = pole_search_bounds(grid)
    return [i for x in riccati.find_poles(rp, lo, hi, branch, settled) for i in near(x)]


def _table_rows(params: list, branch: int, grid: GridSpec) -> list[list[tuple]]:
    """(x, value, pole) rows of each parameter set on the grid, from one
    array call: riccati.branch_table for RiccatiParams, cosmo.hubble for
    CosmoParams of one k and c.  The zero brackets of each Riccati branch
    (a = c, b = -k c for k != 0) add the pole flags within pole_window to
    the small-denominator ones; pole rows have value nan."""
    xs = grid.points()
    if isinstance(params[0], cosmo.CosmoParams):
        value, pole = cosmo.hubble(params, branch, xs)
        params = [cp.riccati_params() for cp in params if cp.k != 0]
    else:
        value, pole = riccati.branch_table(params, branch, xs)
    for row, rp in enumerate(params):
        pole[row, _pole_indices(rp, branch, grid)] = True
    value[pole] = math.nan
    xs = xs.tolist()
    return [list(zip(xs, v, p)) for v, p in zip(value.tolist(), pole.astype(int).tolist())]


def figure_rows(k: int, c: float, eta_grid: GridSpec, delta_grid: GridSpec, branch: int = 1):
    """(eta, delta, H, pole) rows, delta-major, covering the full lattice,
    which is evaluated in one array pass."""
    deltas = delta_grid.points().tolist()
    cps = [cosmo.CosmoParams(k=k, delta=d, c=c) for d in deltas]
    return [
        (eta, d, h, p)
        for d, rows in zip(deltas, _table_rows(cps, branch, eta_grid))
        for eta, h, p in rows
    ]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_fracderiv(args) -> int:
    if not 0.0 <= args.beta < 2.0:
        _err(f"--beta must lie in [0, 2), got {args.beta}")
        return EXIT_FLAGS
    grid = args.grid
    if grid.start <= 0.0:
        _err("fracderiv grid must start above 0")
        return EXIT_FLAGS
    oracle = None
    if args.power is not None:
        if args.power <= -1.0:
            _err(f"--power must exceed -1, got {args.power}")
            return EXIT_FLAGS
        f = fo.RealFunction.power(args.power)

        def oracle(x, a=args.power, b=args.beta):
            return fo.power_rule(a, b, x)

    else:
        name = args.builtin
        if name == "sin":
            f = fo.RealFunction(np.sin)
        elif name == "exp":
            f = fo.RealFunction(np.exp)
        elif name.startswith("poly:"):
            try:
                coeffs = [float(cstr) for cstr in name[5:].split(",")]
            except ValueError:
                _err(f"bad poly coefficients in {name!r}")
                return EXIT_FLAGS
            f = fo.RealFunction.polynomial(coeffs)

            def oracle(x, coeffs=tuple(coeffs), b=args.beta):
                return sum(
                    cj * gamma(j + 1.0) * recip_gamma(j + 1.0 - b) * x ** (j - b)
                    for j, cj in enumerate(coeffs)
                )

        else:
            _err(f"--builtin must be sin, exp or poly:c0,c1,..., got {name!r}")
            return EXIT_FLAGS
    rows = []
    for x in grid.points():
        x = float(x)
        numeric = fo.rl_derivative(f, args.beta, x)
        if oracle is not None:
            want = oracle(x)
            rows.append((x, numeric, want, abs(numeric - want)))
        else:
            rows.append((x, numeric))
    header = ["x", "numeric", "oracle", "abs_err"] if oracle else ["x", "numeric"]
    return _emit(args.out, header, rows)


def _cmd_riccati(args) -> int:
    if args.a == 0.0:
        _err("--a must be nonzero")
        return EXIT_FLAGS
    if args.b == 0.0:
        _err("--b = 0 is degenerate; the flat-case solution lives under 'cosmo --k 0'")
        return EXIT_FLAGS
    try:
        rp = riccati.RiccatiParams(args.a, args.b, args.delta)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_FLAGS
    if args.branch not in (1, 2):
        _err(f"--branch must be 1 or 2, got {args.branch}")
        return EXIT_FLAGS
    if args.action in ("eval", "poles") and args.grid is None:
        _err(f"--grid is required for {args.action}")
        return EXIT_FLAGS

    if args.action == "eval":
        if args.grid.start <= 0.0:
            _err("evaluation grid must start above 0")
            return EXIT_FLAGS
        return _emit(args.out, ["x", "u", "pole"], _table_rows([rp], args.branch, args.grid)[0])

    if args.action == "poles":
        poles = riccati.find_poles(rp, args.grid.start, args.grid.stop, args.branch)
        return _emit(args.out, ["x_pole"], [(p,) for p in poles])

    # verify
    if args.x0 is None or args.x1 is None:
        _err("verify needs --x0 and --x1")
        return EXIT_FLAGS
    if not 0.0 < args.x0 < args.x1 < math.inf:
        _err(f"need 0 < x0 < x1 < inf, got {args.x0}, {args.x1}")
        return EXIT_FLAGS
    if riccati.find_poles(rp, args.x0, args.x1, args.branch):
        _err(f"verification interval [{args.x0}, {args.x1}] contains a pole")
        return EXIT_POLE

    def closed_form(xs: list[float]) -> list[float]:
        value, _ = riccati.branch_table([rp], args.branch, np.array(xs))
        return value[0].tolist()

    def checked(what: str, x: float, v: float) -> float:
        # max() would keep its other argument over a nan
        if not math.isfinite(v):
            raise NonFiniteError(f"{what} is {v} at x = {x!r}")
        return v

    # the difference stencils are evaluated after the integration, so an
    # integrator failure (exit 3) comes before a stencil that reaches
    # x <= 0 (exit 2)
    pts = np.linspace(args.x0, args.x1, 33).tolist()
    u_pts = [checked("closed-form value", x, u) for x, u in zip(pts, closed_form(pts))]
    max_res = 0.0
    max_dev = 0.0
    u_num = u_pts[0]
    for x_prev, x_cur, u_cur in zip(pts[:-1], pts[1:], u_pts[1:]):
        u_num = odeverify.integrate_riccati(rp, odeverify.IvpSpec(x_prev, u_num, x_cur))
        max_dev = max(max_dev, checked("deviation", x_cur, abs(u_num - u_cur)))
    stencils = [t for x in pts for t in odeverify.fd_stencil(x)]
    u_of = dict(zip(stencils + pts, closed_form(stencils) + u_pts)).__getitem__
    for x in pts:
        up = odeverify.fd_derivative(u_of, x)
        max_res = max(max_res, checked("residual", x, abs(riccati.residual(rp, x, u_of(x), up))))
    return _emit(
        args.out,
        ["a", "b", "delta", "branch", "x0", "x1", "max_residual", "max_deviation"],
        [(rp.a, rp.b, rp.delta, args.branch, args.x0, args.x1, max_res, max_dev)],
    )


def _cmd_cosmo(args) -> int:
    if args.c is None and args.gamma is None:
        _err("provide --c or --gamma")
        return EXIT_FLAGS
    c = args.c if args.c is not None else cosmo.c_of_gamma(args.gamma)
    if c == 0.0:
        _err("c = 0 (gamma = 2/3) leaves no Riccati coefficient; rejected")
        return EXIT_BAD_C
    try:
        cp = cosmo.CosmoParams(k=args.k, delta=args.delta, c=c, gamma_index=args.gamma)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_FLAGS
    if args.branch not in (1, 2):
        _err(f"--branch must be 1 or 2, got {args.branch}")
        return EXIT_FLAGS
    grid = args.grid
    if grid.start <= 0.0:
        _err("conformal-time grid must start above 0")
        return EXIT_FLAGS

    if args.action == "hubble":
        return _emit(args.out, ["eta", "H", "pole"], _table_rows([cp], args.branch, grid)[0])

    if args.action == "scale":
        eta_ref = args.eta_ref if args.eta_ref is not None else grid.start
        if not 0.0 < eta_ref < math.inf:
            _err("--eta-ref must be positive and finite")
            return EXIT_FLAGS
        etas = grid.points()
        ratios = cosmo.scale_factor(cp, etas, eta_ref, args.branch)
        return _emit(args.out, ["eta", "R_ratio"], list(zip(etas.tolist(), ratios.tolist())))

    # figure
    if not (0.0 < args.delta_grid.start and args.delta_grid.stop <= 1.0):
        _err("delta grid values must lie in (0, 1]")
        return EXIT_FLAGS
    rows = figure_rows(args.k, c, grid, args.delta_grid, args.branch)
    return _emit(args.out, ["eta", "delta", "H", "pole"], rows)


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    failures = run_all(print)
    return EXIT_OK if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing only reads it."""
    parser = argparse.ArgumentParser(
        prog="fracriccati",
        description=(
            "Riemann-Liouville operators, Bessel-ratio solutions of the "
            "delta-modified Riccati equation, and FRW cosmology tables"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fracderiv", help="fractional derivative tables")
    p.add_argument("--beta", type=float, required=True, help="derivative order in [0, 2)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--power", type=_finite_float, help="differentiate t^a")
    grp.add_argument("--builtin", type=str, help="sin | exp | poly:c0,c1,...")
    p.add_argument("--grid", type=_parse_grid, required=True, help="start:stop:count")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_fracderiv)

    p = sub.add_parser("riccati", help="closed-form branches, verification, poles")
    p.add_argument("action", choices=("eval", "verify", "poles"))
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--branch", type=int, default=1)
    p.add_argument("--grid", type=_parse_grid, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--x1", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_riccati)

    p = sub.add_parser("cosmo", help="Hubble-parameter and scale-factor tables")
    p.add_argument("action", choices=("hubble", "scale", "figure"))
    p.add_argument("--k", type=int, required=True, choices=(-1, 0, 1))
    p.add_argument("--c", type=_finite_float, default=None)
    p.add_argument("--gamma", type=_finite_float, default=None)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--branch", type=int, default=1)
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument(
        "--delta-grid",
        dest="delta_grid",
        type=_parse_grid,
        default=GridSpec(0.05, 1.0, 20),
        help="figure delta axis (default 0.05:1:20)",
    )
    p.add_argument("--eta-ref", dest="eta_ref", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_cosmo)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _lattice_flags(args) -> str:
    """The flags that set the evaluation lattice of a riccati or cosmo action."""
    return {"verify": "--x0/--x1", "scale": "--grid/--eta-ref"}.get(args.action, "--grid")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_FLAGS
    try:
        return args.func(args)
    except ConvergenceError as exc:
        _err(f"numeric non-convergence: {exc}")
        return EXIT_NONCONVERGENT
    except OverflowError as exc:
        _err(f"numeric overflow: {exc}")
        return EXIT_NONCONVERGENT
    except NonFiniteError as exc:
        _err(str(exc))
        return EXIT_NONCONVERGENT
    except ScanBudgetError as exc:
        _err(f"{_lattice_flags(args)} too wide: {exc}")
        return EXIT_FLAGS
    except BranchZeroError as exc:
        _err(str(exc))
        return EXIT_POLE
    except ValueError as exc:
        # past the handlers' own checks, a value error of a riccati or cosmo
        # action (such as a point too close to 0) comes from the lattice
        _err(f"{_lattice_flags(args)}: {exc}" if hasattr(args, "action") else str(exc))
        return EXIT_FLAGS


if __name__ == "__main__":
    sys.exit(main())
