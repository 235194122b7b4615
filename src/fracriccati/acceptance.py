"""Acceptance suite: each criterion is a function returning (passed, detail).

The CLI selftest prints one line per criterion; the pytest suite asserts each
one individually.  Tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from . import cosmo, odeverify, riccati, specfun
from . import fracops as fo
from .grids import GridSpec

__all__ = ["CRITERIA", "run_all"]


def _max_rel(pairs):
    return max(abs(got - want) / abs(want) for got, want in pairs)


def criterion_lacroix():
    """Half-derivative of x matches 2 sqrt(x)/sqrt(pi) to 1e-6 relative."""
    f = fo.RealFunction.power(1.0)
    pairs = []
    for x in (0.25, 1.0, 4.0):
        want = 2.0 * math.sqrt(x) / math.sqrt(math.pi)
        pairs.append((fo.rl_derivative(f, 0.5, x), want))
    err = _max_rel(pairs)
    return err <= 1e-6, f"max rel err {err:.3e} (tol 1e-6)"


def criterion_power_rule():
    """Numeric fractional derivative vs the power-rule oracle, 3x3x3 matrix."""
    worst = 0.0
    for a in (1.0, 2.0, 2.5):
        f = fo.RealFunction.power(a)
        for beta in (0.3, 0.5, 0.7):
            for x in (0.5, 1.0, 4.0):
                got = fo.rl_derivative(f, beta, x)
                want = fo.power_rule(a, beta, x)
                worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-6, f"max rel err {worst:.3e} (tol 1e-6)"


def criterion_constant_reduction():
    """Fractional integral of a constant matches b x^(1-d)/Gamma(2-d) to 1e-8."""
    worst = 0.0
    for b in (1.0, -2.0):
        f = fo.RealFunction.constant(b)
        for delta in (0.25, 0.5, 0.9):
            for x in (0.5, 1.0, 4.0):
                got = fo.rl_integral(f, 1.0 - delta, x)
                want = fo.frac_const(b, delta, x)
                worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-8, f"max rel err {worst:.3e} (tol 1e-8)"


def criterion_bessel_identities():
    """Wronskian to 1e-9; recurrence and derivative-form agreement to 1e-10;
    half-order closed forms to 1e-10 (envelope scaled)."""
    nus = (0.3, 0.4, 0.5, 1.7)
    xs = np.geomspace(0.1, 50.0, 40)
    w_err = r_err = d_err = h_err = 0.0
    for nu in nus:
        for x in xs:
            x = float(x)
            j = specfun.bessel_j(nu, x)
            y = specfun.bessel_y(nu, x)
            jlo, jhi = specfun.bessel_j(nu - 1.0, x), specfun.bessel_j(nu + 1.0, x)
            ylo, yhi = specfun.bessel_y(nu - 1.0, x), specfun.bessel_y(nu + 1.0, x)
            w = j * specfun.bessel_derivative("Y", nu, x) - specfun.bessel_derivative(
                "J", nu, x
            ) * y
            w_err = max(w_err, abs(w - 2.0 / (math.pi * x)) / (2.0 / (math.pi * x)))
            lhs = jlo + jhi
            rhs = 2.0 * nu / x * j
            r_err = max(r_err, abs(lhs - rhs) / max(abs(lhs), abs(rhs), abs(jlo) + abs(jhi)))
            for b, lo, hi in ((j, jlo, jhi), (y, ylo, yhi)):
                d1 = lo - nu / x * b
                d2 = nu / x * b - hi
                d_err = max(d_err, abs(d1 - d2) / max(abs(d1), abs(d2), abs(lo) + abs(hi)))
    for x in np.geomspace(0.1, 50.0, 60):
        x = float(x)
        amp = math.sqrt(2.0 / (math.pi * x))
        h_err = max(
            h_err,
            abs(specfun.bessel_j(0.5, x) - amp * math.sin(x)) / amp,
            abs(specfun.bessel_j(-0.5, x) - amp * math.cos(x)) / amp,
            abs(specfun.bessel_i(0.5, x) - amp * math.sinh(x)) / (amp * math.cosh(x)),
            abs(specfun.bessel_i(-0.5, x) - amp * math.cosh(x)) / (amp * math.cosh(x)),
        )
    ok = w_err <= 1e-9 and r_err <= 1e-10 and d_err <= 1e-10 and h_err <= 1e-10
    return ok, (
        f"wronskian {w_err:.2e} (1e-9), recurrence {r_err:.2e} (1e-10), "
        f"deriv forms {d_err:.2e} (1e-10), half-order {h_err:.2e} (1e-10)"
    )


_MATRIX = tuple(
    riccati.RiccatiParams(a, b, d)
    for a in (1.0, 2.0, -1.0)
    for b in (1.0, -1.0, 2.0, -2.0)
    for d in (0.25, 0.5, 0.75, 1.0)
)


def _pole_free_grid(rp, branch, lo=0.2, hi=3.2, count=50, margin=0.08):
    pts = np.linspace(lo, hi, count)
    poles = riccati.find_poles(rp, lo, hi, branch)
    if not poles:
        return pts
    keep = np.ones(pts.size, dtype=bool)
    for p in poles:
        keep &= np.abs(pts - p) > margin
    return pts[keep]


def criterion_closed_form_residual():
    """Both branches satisfy the modified equation to 1e-6 scaled, with the
    derivative estimated by finite differences, poles excluded by margin.
    Each branch's points and difference stencils are one table."""
    worst = 0.0
    for rp in _MATRIX:
        for branch in (1, 2):
            xs = _pole_free_grid(rp, branch).tolist()
            pts = xs + [t for x in xs for t in odeverify.fd_stencil(x)]
            value, pole = riccati.branch_table([rp], branch, np.array(pts))
            u_of = dict(zip(pts, value[0].tolist())).__getitem__
            for x, flagged in zip(xs, pole[0, : len(xs)].tolist()):
                if flagged:
                    continue
                up = odeverify.fd_derivative(u_of, x)
                r = riccati.residual(rp, x, u_of(x), up)
                scale = 1.0 + abs(fo.frac_const(rp.b, rp.delta, x))
                worst = max(worst, abs(r) / scale)
    return worst <= 1e-6, f"max scaled residual {worst:.3e} (tol 1e-6)"


def _verification_interval(rp, branch=1, lo=0.4, hi=3.0, margin=0.15):
    """Longest pole-free [x0, x1] inside [lo, hi] with the given margin."""
    poles = riccati.find_poles(rp, 0.5 * lo, hi + margin, branch)
    edges = [lo] + [p for p in poles if lo < p < hi] + [hi]
    best = (lo, hi)
    best_len = -1.0
    for a, b in zip(edges[:-1], edges[1:]):
        x0 = a + (margin if a != lo else 0.0)
        x1 = b - (margin if b != hi else 0.0)
        if x1 - x0 > best_len:
            best_len = x1 - x0
            best = (x0, x1)
    return best


def criterion_cross_oracle():
    """Adaptive integration from a closed-form start reproduces the closed
    form to 1e-6; the linear route via u = y'/(a y) agrees to 1e-7."""
    worst_ric = 0.0
    worst_lin = 0.0
    for rp in _MATRIX:
        x0, x1 = _verification_interval(rp)
        u0 = riccati.eval_u1(rp, x0).value
        got = odeverify.integrate_riccati(rp, odeverify.IvpSpec(x0, u0, x1))
        want = riccati.eval_u1(rp, x1).value
        worst_ric = max(worst_ric, abs(got - want) / (1.0 + abs(want)))
        y0, yp0 = riccati.eval_y_branch(rp, 1, x0)
        y1, yp1 = odeverify.integrate_linear(
            rp, odeverify.IvpSpec(x0, (y0, yp0), x1)
        )
        u_lin = yp1 / (rp.a * y1)
        worst_lin = max(worst_lin, abs(u_lin - want) / (1.0 + abs(want)))
    ok = worst_ric <= 1e-6 and worst_lin <= 1e-7
    return ok, (
        f"riccati route {worst_ric:.3e} (1e-6), linear route {worst_lin:.3e} (1e-7)"
    )


def criterion_classical_limits():
    """H(eta; delta=1) equals cot(c eta) for k=1 and coth(c eta) for k=-1 to
    1e-8, computed through the general real-order Bessel path: one
    cosmo.hubble table per (k, c)."""
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        closed = (1, np.linspace(0.05, math.pi / (2.0 * c), 102)[1:-1], math.cos, math.sin)
        open_ = (-1, np.linspace(0.05, 5.0, 100), math.cosh, math.sinh)
        for k, etas, num, den in (closed, open_):
            h, _ = cosmo.hubble([cosmo.CosmoParams(k=k, delta=1.0, c=c)], 1, etas)
            for eta, got in zip(etas.tolist(), h[0].tolist()):
                want = num(c * eta) / den(c * eta)
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return worst <= 1e-8, f"max scaled err {worst:.3e} (tol 1e-8)"


def criterion_figure_grids():
    """Figure surfaces are complete; the open one is finite and positive; the
    closed one's pole rows coincide with located poles at grid resolution."""
    from .cli import figure_rows, pole_search_bounds, pole_window

    eta_grid = GridSpec(0.1, 3.0, 60)
    delta_grid = GridSpec(0.1, 1.0, 10)
    rows_open = figure_rows(-1, 1.0, eta_grid, delta_grid, branch=1)
    if len(rows_open) != 600:
        return False, f"open surface has {len(rows_open)} rows, expected 600"
    if any(r[3] for r in rows_open):
        return False, "open surface contains pole rows"
    if not all(math.isfinite(r[2]) and r[2] > 0.0 for r in rows_open):
        return False, "open surface not everywhere finite and positive"

    rows_closed = figure_rows(1, 1.0, eta_grid, delta_grid, branch=1)
    if len(rows_closed) != 600:
        return False, f"closed surface has {len(rows_closed)} rows, expected 600"
    half = pole_window(eta_grid)
    z_lo, z_hi = pole_search_bounds(eta_grid)
    n_flagged = 0
    for d in delta_grid.points():
        d = float(d)
        rp = riccati.RiccatiParams(1.0, -1.0, d)
        zeros = riccati.find_poles(rp, z_lo, z_hi, 1)
        flagged = [r[0] for r in rows_closed if r[1] == d and r[3]]
        n_flagged += len(flagged)
        for eta in flagged:
            if not zeros or min(abs(eta - z) for z in zeros) > half:
                return False, f"pole row at eta={eta}, delta={d} has no nearby zero"
        for z in zeros:
            if not flagged or min(abs(z - eta) for eta in flagged) > half:
                return False, f"zero at eta={z}, delta={d} has no pole row"
    if n_flagged == 0:
        return False, "closed surface flagged no pole rows at all"
    return True, f"600+600 rows, {n_flagged} pole rows match located zeros"


def criterion_operator_properties():
    """Left-inverse composition at 1e-5 and semigroup at 1e-6, with the inner
    profile carried by the sampled-grid cubic fallback."""
    q_in = fo.QuadratureSpec(n_base=2048, tol=1e-8, max_doublings=4)
    q_left = fo.QuadratureSpec(n_base=4096, tol=3e-6, max_doublings=6)
    q_semi = fo.QuadratureSpec(n_base=4096, tol=3e-7, max_doublings=6)
    x = 1.5

    def sampled_profile(f, alpha, x_max, m=1200, grade=3):
        ts = x_max * (np.arange(m + 1) / m) ** grade
        ys = np.array(
            [fo.rl_integral(f, alpha, float(t), q_in) if t > 0 else 0.0 for t in ts]
        )
        return fo.RealFunction.from_samples(ts, ys)

    worst_left = 0.0
    for f, fx in (
        (fo.RealFunction.constant(1.0), 1.0),
        (fo.RealFunction.power(1.0), x),
        (fo.RealFunction.power(2.0), x * x),
    ):
        for alpha in (0.3, 0.5):
            prof = sampled_profile(f, alpha, 1.1 * x)
            got = fo.rl_derivative(prof, alpha, x, q_left)
            worst_left = max(worst_left, abs(got - fx))
    worst_semi = 0.0
    for a_exp in (1.0, 2.0):
        for alpha in (0.25, 0.5):
            for beta in (0.25, 0.5):
                prof = sampled_profile(fo.RealFunction.power(a_exp), beta, 1.05 * x)
                got = fo.rl_integral(prof, alpha, x, q_semi)
                want = fo.power_rule(a_exp, -(alpha + beta), x)
                worst_semi = max(worst_semi, abs(got - want) / abs(want))
    ok = worst_left <= 1e-5 and worst_semi <= 1e-6
    return ok, f"left-inverse {worst_left:.3e} (1e-5), semigroup {worst_semi:.3e} (1e-6)"


CRITERIA = (
    ("1 Lacroix half-derivative of x", criterion_lacroix),
    ("2 power rule vs numeric derivative", criterion_power_rule),
    ("3 constant-term reduction", criterion_constant_reduction),
    ("4 Bessel identity suite", criterion_bessel_identities),
    ("5 closed-form Riccati residual", criterion_closed_form_residual),
    ("6 cross-oracle integration", criterion_cross_oracle),
    ("7 classical cosmology limits", criterion_classical_limits),
    ("8 figure grid reproduction", criterion_figure_grids),
    ("9 left-inverse and semigroup", criterion_operator_properties),
)


def run_all(printer=print) -> int:
    """Run every criterion; print one pass/fail line each; count failures."""
    failures = 0
    for name, func in CRITERIA:
        passed, detail = func()
        status = "PASS" if passed else "FAIL"
        printer(f"{status} - {name}: {detail}")
        if not passed:
            failures += 1
    return failures
