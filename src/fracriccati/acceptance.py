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

__all__ = ["CRITERIA", "run_all", "riccati_route_rows"]


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
            lhs = jlo + jhi
            rhs = 2.0 * nu / x * j
            r_err = max(r_err, abs(lhs - rhs) / max(abs(lhs), abs(rhs), abs(jlo) + abs(jhi)))
            # the Wronskian takes B' as the mean of the recurrence forms d1, d2
            deriv = []
            for b, lo, hi in ((j, jlo, jhi), (y, ylo, yhi)):
                d1 = lo - nu / x * b
                d2 = nu / x * b - hi
                d_err = max(d_err, abs(d1 - d2) / max(abs(d1), abs(d2), abs(lo) + abs(hi)))
                deriv.append(0.5 * (d1 + d2))
            w = j * deriv[1] - deriv[0] * y
            w_err = max(w_err, abs(w - 2.0 / (math.pi * x)) / (2.0 / (math.pi * x)))
    for x in np.geomspace(0.1, 50.0, 60):
        x = float(x)
        amp = math.sqrt(2.0 / (math.pi * x))
        h_err = max(
            h_err,
            abs(specfun.bessel_j(0.5, x) - amp * math.sin(x)) / amp,
            abs(specfun.bessel_j(-0.5, x) - amp * math.cos(x)) / amp,
            abs(specfun.bessel("I", 0.5, x) - amp * math.sinh(x)) / (amp * math.cosh(x)),
            abs(specfun.bessel("I", -0.5, x) - amp * math.cosh(x)) / (amp * math.cosh(x)),
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
    """Both branches satisfy the modified equation to 1e-6, the residual
    scaled by |u'| + |a u^2| + |rhs| with u' from finite differences
    (odeverify.residuals), poles excluded by margin."""
    worst = max(float(odeverify.residuals(rp, br, _pole_free_grid(rp, br)).max())
                for rp in _MATRIX for br in (1, 2))
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


def riccati_route_rows():
    """(rp, x0, x1, u(x0), u(x1), deviation) per matrix entry, u = branch 1: DP5
    from u(x0) across the _verification_interval against u(x1), scaled by 1 + |u(x1)|."""
    for rp in _MATRIX:
        x0, x1 = _verification_interval(rp)
        u0, want = riccati.branch_table([rp], 1, np.array([x0, x1]))[0][0].tolist()
        got = float(odeverify.integrate(odeverify.riccati_rhs(rp), [x0, x1], u0)[1, 0])
        yield rp, x0, x1, u0, want, abs(got - want) / (1.0 + abs(want))


def criterion_cross_oracle():
    """Adaptive integration from a closed-form start reproduces the closed
    form to 1e-6; the linear route via u = y'/(a y) agrees to 1e-7."""
    worst_ric = 0.0
    worst_lin = 0.0
    for rp, x0, x1, u0, want, dev in riccati_route_rows():
        worst_ric = max(worst_ric, dev)
        y0 = float(riccati.y_branch_table(rp, 1, np.array([x0]))[0][0])  # y = s exp(e), e = 0 here
        y1, yp1 = odeverify.integrate(odeverify.linear_rhs(rp), [x0, x1], (y0, rp.a * u0 * y0))[1]
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
            h = cosmo.hubble([cosmo.CosmoParams(k=k, delta=1.0, c=c)], 1, etas)[0]
            for eta, got in zip(etas.tolist(), h[0].tolist()):
                want = num(c * eta) / den(c * eta)
                worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return worst <= 1e-8, f"max scaled err {worst:.3e} (tol 1e-8)"


def criterion_figure_grids():
    """Figure surfaces are complete; the open one is finite and positive; the
    closed one's pole rows coincide with located poles at grid resolution."""
    etas = GridSpec(0.1, 3.0, 60).points()
    deltas = GridSpec(0.1, 1.0, 10).points().tolist()

    def surface(k):
        cps = [cosmo.CosmoParams(k=k, delta=d, c=1.0) for d in deltas]
        return cosmo.hubble(cps, 1, etas, scan=True)

    h_open, pole_open = surface(-1)
    if h_open.size != 600:
        return False, f"open surface has {h_open.size} rows, expected 600"
    if pole_open.any():
        return False, "open surface contains pole rows"
    if not (np.isfinite(h_open) & (h_open > 0.0)).all():
        return False, "open surface not everywhere finite and positive"

    pole_closed = surface(1)[1]
    if pole_closed.size != 600:
        return False, f"closed surface has {pole_closed.size} rows, expected 600"
    z_lo, z_hi, half = riccati.pole_window(etas)
    n_flagged = 0
    for d, pole in zip(deltas, pole_closed):
        rp = riccati.RiccatiParams(1.0, -1.0, d)
        zeros = riccati.find_poles(rp, z_lo, z_hi, 1)
        flagged = etas[pole].tolist()
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
        ys = np.concatenate([[0.0], fo.rl_integral(f, alpha, ts[1:], q_in)])
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
