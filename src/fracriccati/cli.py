"""Command-line surface: operator evaluation, Riccati solving/verification,
cosmology tables, figure-grid emission, and the acceptance selftest.

Output tables are plain text: one '#' header line naming the columns, comma
separators, 17-significant-digit decimals (bit-faithful round trip), newline
endings.  Pole rows ('nan' in the value column and pole=1) are the mask that
riccati.scanned_table returns with the values: a lattice point within half a
grid step of a denominator zero is a pole row.
Exit codes: 0 ok, 2 flag errors (a non-finite grid end, coefficient,
coefficient product a*b, --x1 or --eta-ref, a grid count or table too
large to allocate, a pole-search span over the scan budget, or a point
whose Bessel argument or fracderiv x^n underflows to 0 or whose Bessel
argument overflows among them) or an unwritable --out, 3 numeric non-convergence,
overflow or a non-finite verification value, 4 pole inside a
verification/scale interval, 5 cosmology with c = 0.

Every command hands _emit the columns its library calls return, and _emit
alone forms the rows: `riccati eval` and `cosmo hubble` pass the grid and
the value row and pole mask of one riccati.scanned_table or cosmo.hubble
call, and `cosmo figure` the flattened (eta, delta) surface of one
cosmo.hubble call over its delta axis.
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
    GridSizeError,
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every '-' token float() reads (-1e-3,
    -inf) for a negative number, not an option; add_subparsers makes the
    subcommand parsers of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self  # argparse asks its match()

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text[1:])
        except ValueError:
            return False
        return text[:1] == "-" and text[1:2] not in "+-"


def _emit(out_path: str | None, header: list[str], *columns) -> int:
    """Write the table of the equal-length columns (1-D arrays or lists),
    one per header name; exit code EXIT_FLAGS if --out cannot be written.

    Every row goes through one '%.17g' template, which prints the integer
    and bool columns (pole flag, branch) as plain integers.  A value of
    +-inf raises OverflowError naming its row's x (or eta) before anything
    is written.
    """
    fmt = ",".join(["%.17g"] * len(header))
    lines = ["# " + ",".join(header)]
    lines.extend(fmt % row for row in zip(*(np.asarray(c).tolist() for c in columns), strict=True))
    text = "\n".join(lines) + "\n"
    if "inf" in text:  # '%.17g' spells no finite float, nan or header with it
        row = next(ln for ln in lines if "inf" in ln).split(",")
        col = next(i for i, f in enumerate(row) if "inf" in f)
        raise OverflowError(f"{header[col]} is {row[col]} at {header[0]} = {float(row[0])!r}")
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
# command handlers
# ---------------------------------------------------------------------------


_SIN_DERIVS = (np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))


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
        if args.power < 0.0 and args.beta not in (0.0, 1.0):
            # the quadrature's cell next to 0 does not resolve a negative power
            _err(f"--power below 0 needs --beta 0 or 1, got --power {args.power} "
                 f"with --beta {args.beta}")
            return EXIT_FLAGS
        f = fo.RealFunction.power(args.power)

        def oracle(x, a=args.power, b=args.beta):
            return fo.power_rule(a, b, x)

    else:
        name = args.builtin
        if name == "sin":
            f = fo.RealFunction(np.sin, lambda k: _SIN_DERIVS[k % 4])
        elif name == "exp":
            f = fo.RealFunction(np.exp, lambda k: np.exp)
        elif name.startswith("poly:"):
            try:
                coeffs = [_finite_float(cstr) for cstr in name[5:].split(",")]
            except argparse.ArgumentTypeError:
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
    # the whole grid in one call; an x far out may overflow f or the
    # quadrature's sums: the value then fails to converge (exit 3) or is inf,
    # which _emit refuses, with no RuntimeWarning before the error line
    xs = grid.points()
    with np.errstate(all="ignore"):
        numeric = fo.rl_derivative(f, args.beta, xs)
        want = None if oracle is None else [oracle(x) for x in xs.tolist()]
    if want is None:
        return _emit(args.out, ["x", "numeric"], xs, numeric)
    err = [abs(v - w) for v, w in zip(numeric.tolist(), want)]
    return _emit(args.out, ["x", "numeric", "oracle", "abs_err"], xs, numeric, want, err)


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
        xs = args.grid.points()
        value, pole = riccati.scanned_table([rp], args.branch, xs)
        return _emit(args.out, ["x", "u", "pole"], xs, value[0], pole[0])

    if args.action == "poles":
        poles = riccati.find_poles(rp, args.grid.start, args.grid.stop, args.branch)
        return _emit(args.out, ["x_pole"], poles)

    # verify
    if args.x0 is None or args.x1 is None:
        _err("verify needs --x0 and --x1")
        return EXIT_FLAGS
    if not 0.0 < args.x0 < args.x1 < math.inf:
        _err(f"need 0 < x0 < x1 < inf, got {args.x0}, {args.x1}")
        return EXIT_FLAGS
    # one closed-form table on the 33 points and their residual stencils, after
    # a check of the points alone, so that a Bessel argument out of range names
    # a point; the pole check reads their denominator row (stencil row 0)
    xs = np.linspace(args.x0, args.x1, 33)
    riccati._checked_lattice([rp], args.branch, xs)
    stencil = odeverify.stencils(xs)
    u, den = (v.reshape(5, -1) for v in riccati.branch_table([rp], args.branch, stencil.ravel()))
    if riccati.sign_scan(rp, args.branch, xs, den[0], 1)[0]:
        _err(f"verification interval [{args.x0}, {args.x1}] contains a pole")
        return EXIT_POLE

    def checked(what: str, x: float, v: float) -> float:
        # max() would keep its other argument over a nan
        if not math.isfinite(v):
            raise NonFiniteError(f"{what} is {v} at x = {x!r}")
        return v

    pts = xs.tolist()
    u_pts = [checked("closed-form value", x, v) for x, v in zip(pts, u[0].tolist())]
    u_num = odeverify.riccati_trajectory(rp, xs, u[0]).tolist()
    max_dev = max(checked("deviation", x, abs(v - w)) for x, v, w in zip(pts, u_num, u_pts))
    res = odeverify.residuals(rp, args.branch, xs, u).tolist()
    max_res = max(checked("residual", x, r) for x, r in zip(pts, res))
    return _emit(
        args.out,
        ["a", "b", "delta", "branch", "x0", "x1", "max_residual", "max_deviation"],
        *([v] for v in (rp.a, rp.b, rp.delta, args.branch, args.x0, args.x1, max_res, max_dev)),
    )


def _cmd_cosmo(args) -> int:
    if args.c is None and args.gamma is None:
        _err("provide --c or --gamma")
        return EXIT_FLAGS
    c = args.c if args.c is not None else cosmo.c_of_gamma(args.gamma)
    if c == 0.0:
        _err("c = 0 (gamma = 2/3) leaves no Riccati coefficient; rejected")
        return EXIT_BAD_C
    implied = c if args.gamma is None else cosmo.c_of_gamma(args.gamma)
    if abs(c - implied) > 1e-12:  # --c and --gamma disagree
        _err(f"inconsistent inputs: c={c} but gamma implies {implied}")
        return EXIT_FLAGS
    try:
        cp = cosmo.CosmoParams(k=args.k, delta=args.delta, c=c)
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
        etas = grid.points()
        h, pole = cosmo.hubble([cp], args.branch, etas, scan=True)
        return _emit(args.out, ["eta", "H", "pole"], etas, h[0], pole[0])

    if args.action == "scale":
        eta_ref = args.eta_ref if args.eta_ref is not None else grid.start
        if not 0.0 < eta_ref < math.inf:
            _err("--eta-ref must be positive and finite")
            return EXIT_FLAGS
        etas = grid.points()
        ratios = cosmo.scale_factor(cp, etas, eta_ref, args.branch)
        return _emit(args.out, ["eta", "R_ratio"], etas, ratios)

    # figure
    if not (0.0 < args.delta_grid.start and args.delta_grid.stop <= 1.0):
        _err("delta grid values must lie in (0, 1]")
        return EXIT_FLAGS
    deltas = args.delta_grid.points()  # first: of two oversized grids, --delta-grid is named
    etas = grid.points()
    cps = [cosmo.CosmoParams(k=args.k, delta=d, c=c) for d in deltas.tolist()]
    h, pole = cosmo.hubble(cps, args.branch, etas, scan=True)
    return _emit(args.out, ["eta", "delta", "H", "pole"], np.tile(etas, deltas.size),
                 np.repeat(deltas, etas.size), h.ravel(), pole.ravel())


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    failures = run_all(print)
    return EXIT_OK if failures == 0 else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing only reads it."""
    parser = _Parser(
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
    """The flags that set the evaluation lattice of a command."""
    return {"verify": "--x0/--x1", "scale": "--grid/--eta-ref"}.get(
        getattr(args, "action", None), "--grid")


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
    except GridSizeError as exc:
        flag = next(name for name, value in vars(args).items() if value is exc.grid)
        _err(f"--{flag.replace('_', '-')}: {exc}")
        return EXIT_FLAGS
    except MemoryError:  # a table of allocated grids, too large for what is left
        figure = getattr(args, "action", None) == "figure"
        _err(f"{'--grid/--delta-grid' if figure else _lattice_flags(args)}: "
             "the table does not fit in memory")
        return EXIT_FLAGS
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
