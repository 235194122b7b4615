"""Riemann-Liouville fractional integral and derivative on [0, x], the power
rule as analytic oracle, the constant-term reduction, and the generalized
first-order linear solver, whose solution is a SampledFunction: the natural
cubic spline through its grid values, which is itself an operand.

The lower limit of every operator is fixed at 0.  The fractional integral
is a composite Gauss rule whose nodes scale with x, so one call takes a
whole profile; no sum goes through BLAS, so the bits do not depend on its
thread count.  The derivative is one such integral of closed-form f, f',
f''; see rl_derivative.  The linear solver integrates by parts, so that all
its integrals are such integrals of p and g; see solve_linear_fractional.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, GammaPoleError
from .grids import GridSpec
from .specfun import gamma, power

__all__ = [
    "QuadratureSpec",
    "RealFunction",
    "SampledFunction",
    "rl_integral",
    "rl_derivative",
    "power_rule",
    "frac_const",
    "solve_linear_fractional",
]


def _delta_value(delta) -> float:
    d = float(delta)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {d}")
    return d


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and budget of rl_integral: its levels of 8, 16, ... Gauss
    nodes per cell stop once two agree to tol times the finer one's absolute
    mass, within n_base * 2**max_doublings evaluations of f per x (and 512
    nodes per cell).  n_base must be an integer >= 16, max_doublings an
    integer >= 0 and tol finite and positive.
    """

    n_base: int = 4096
    tol: float = 1e-8
    max_doublings: int = 6

    def __post_init__(self):
        if not (isinstance(self.n_base, numbers.Integral) and self.n_base >= 16):
            raise ValueError(f"n_base must be an integer >= 16, got {self.n_base!r}")
        if not (isinstance(self.max_doublings, numbers.Integral) and self.max_doublings >= 0):
            raise ValueError(f"max_doublings must be an integer >= 0, got {self.max_doublings!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


# ---------------------------------------------------------------------------
# Function carrier
# ---------------------------------------------------------------------------


class RealFunction:
    """Real-valued function on [0, X]: a callable plus optional closed-form
    derivative suppliers.

    ``deriv_factory(k)`` returns the k-th derivative as a callable, or None
    when no closed form is available; derivative(k) then raises ValueError.
    ``eval_array(xs, k)`` evaluates f^(k) on a whole array, calling f^(k)
    point by point only if it takes no arrays.
    """

    def __init__(
        self,
        func: Callable[[float], float],
        deriv_factory: Callable[[int], Callable[[float], float] | None] | None = None,
    ):
        self._func = func
        self._deriv_factory = deriv_factory

    def __call__(self, x: float) -> float:
        return float(self._func(x))

    def eval_array(self, xs: np.ndarray, k: int = 0) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        fk = self.derivative(k) if k else self._func
        try:
            out = np.asarray(fk(xs), dtype=float)
            if out.shape == xs.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(fk(float(t))) for t in xs.ravel()]).reshape(xs.shape)

    def derivative(self, k: int) -> Callable[[float], float]:
        if k == 0:
            return self.__call__
        d = None if self._deriv_factory is None else self._deriv_factory(k)
        if d is None:
            raise ValueError(f"no closed-form derivative of order {k}")
        return d

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "RealFunction":
        c = float(c)

        def cf(t):
            if np.ndim(t):
                return np.full(np.shape(t), c)
            return c

        return cls(cf, lambda k: (lambda t: 0.0 * t))

    @classmethod
    def power(cls, a: float) -> "RealFunction":
        """t^a with all ordinary derivatives in closed form (a > -1)."""
        a = float(a)

        def factory(k: int):
            coef = 1.0
            for j in range(k):
                coef *= a - j

            def dk(t, coef=coef, e=a - k):
                if coef == 0.0:
                    return 0.0 * t
                return coef * t**e

            return dk

        return cls(lambda t: t**a, factory)

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "RealFunction":
        """sum_j coeffs[j] t^j with exact derivatives."""
        coeffs = [float(co) for co in coeffs]

        def factory(k: int):
            dc = []
            for j in range(k, len(coeffs)):
                wj = coeffs[j]
                for i in range(k):
                    wj *= j - i
                dc.append(wj)

            def dk(t, dc=tuple(dc)):
                acc = 0.0 * t
                for wj in reversed(dc):
                    acc = acc * t + wj
                return acc

            return dk

        return cls(factory(0), factory)

    @classmethod
    def from_samples(cls, xs, ys) -> "SampledFunction":
        return SampledFunction(xs, ys)


class SampledFunction(RealFunction):
    """Densely sampled function: the natural cubic spline through the
    finite, strictly increasing knots xs with one value each in ys (numpy
    only); h holds the knot gaps and m the second derivatives at the knots."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("spline needs at least 2 sample points")
        if not (np.isfinite(xs).all() and (np.diff(xs) > 0).all()):
            raise ValueError("sample abscissae must be finite and strictly increasing")
        if ys.shape != xs.shape:
            raise ValueError(f"need one value per knot, got {ys.shape} for {xs.size} knots")
        n = xs.size
        h = np.diff(xs)
        # tridiagonal system for interior second derivatives, Thomas algorithm
        # on float lists: indexing an ndarray element by element costs more
        # than the arithmetic
        m = [0.0] * n
        if n > 2:
            a, c = h[:-1].tolist(), h[1:].tolist()  # sub- and super-diagonal
            b = (2.0 * (h[:-1] + h[1:])).tolist()   # diagonal
            d = (6.0 * (np.diff(ys[1:]) / h[1:] - np.diff(ys[:-1]) / h[:-1])).tolist()
            for i in range(1, n - 2):
                wfac = a[i] / b[i - 1]
                b[i] -= wfac * c[i - 1]
                d[i] -= wfac * d[i - 1]
            m[n - 2] = d[-1] / b[-1]
            for i in range(n - 4, -1, -1):
                m[i + 1] = (d[i] - c[i] * m[i + 2]) / b[i]
        self.xs, self.ys, self.h, self.m = xs, ys, h, np.array(m)
        super().__init__(self._eval, lambda k: (lambda t: self._eval(t, k)) if k <= 3 else None)

    def _eval(self, x, k: int = 0):
        """The spline (k = 0) or its k-th derivative (k <= 3) at a float or
        elementwise at an ndarray; edge panels extend beyond the knots."""
        # panel = number of interior knots <= x, so 0 <= i <= n - 2
        i = np.searchsorted(self.xs[1:-1], x, side="right")
        t = x - self.xs[i]
        h = self.h[i]
        m0, m1 = self.m[i], self.m[i + 1]
        c2 = 0.5 * m0
        c3 = (m1 - m0) / (6.0 * h)
        c1 = (self.ys[i + 1] - self.ys[i]) / h - h * (2.0 * m0 + m1) / 6.0
        if k == 0:
            return self.ys[i] + t * (c1 + t * (c2 + t * c3))
        if k == 1:
            return c1 + t * (2.0 * c2 + 3.0 * t * c3)
        if k == 2:
            return 2.0 * c2 + 6.0 * t * c3
        return 6.0 * c3

    def eval_array(self, xs: np.ndarray, k: int = 0) -> np.ndarray:
        return self._eval(np.asarray(xs, dtype=float), k)


def _as_real_function(f) -> RealFunction:
    if isinstance(f, RealFunction):
        return f
    if callable(f):
        return RealFunction(f)
    raise TypeError(f"expected a callable or RealFunction, got {type(f)!r}")


# ---------------------------------------------------------------------------
# Core operators
# ---------------------------------------------------------------------------


_CELLS, _RATIO = 13, 0.15  # graded cells on [0, x/2], each r times the next
_N_MAX = 512  # Gauss nodes per cell on the last level; the first has 8
_FLOAT_RECURRENCE_MAX = 32  # largest n whose Gauss-Jacobi recurrence runs on floats (ROADMAP)


def _gauss_jacobi(n: int, alpha: float):
    """Angles theta of the nodes u = cos(theta) and the weights of the n-point
    Gauss rule for (1 - u)^(alpha-1) on [-1, 1], alpha > 0: Newton's method
    in theta from the Gatteschi-Pittaluga estimates, weights scaled to the
    mass 2^alpha/alpha (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  The
    recurrence runs on q_m = P_m(u)/P_m(1) and d_m = q_m - q_(m-1), in which
    v = 1 - u is a factor, so the nodes near u = 1 keep their digits.  Up to
    n = _FLOAT_RECURRENCE_MAX it runs node by node on floats, above that on
    whole arrays: the same operations in the same order, so the same bits."""
    a, rho = alpha - 1.0, n + 0.5 * alpha
    phi = (np.arange(1, n + 1) + 0.5 * a - 0.25) * (math.pi / rho)
    half = np.tan(0.5 * phi)
    theta = phi + ((0.25 - a * a) / half - 0.25 * half) / (4.0 * rho * rho)
    c, converged = 2.0 * n + a, False
    m = np.arange(2.0, n + 1.0)
    cm, mm = 2.0 * m + a, (m + a) ** 2
    sm, tm = (m - 1.0) ** 2 * cm / (mm * (cm - 2.0)), (cm - 1.0) * cm / (2.0 * mm)
    steps = list(zip(sm.tolist(), tm.tolist()))
    for _ in range(100):
        v = 2.0 * np.sin(0.5 * theta) ** 2
        d = -(alpha + 1.0) / (2.0 * alpha) * v
        if n <= _FLOAT_RECURRENCE_MAX:  # each numpy call costs more than n float operations
            qs, ds = [], []
            for vi, di in zip(v.tolist(), d.tolist()):
                qi = 1.0 + di
                for sm, tm in steps:
                    di = di * sm - vi * qi * tm
                    qi = qi + di
                qs.append(qi)
                ds.append(di)
            q, d = np.array(qs), np.array(ds)
        else:
            q, vq = 1.0 + d, np.empty(n)
            for sm, tm in steps:  # d = sm d - tm v q in place
                np.multiply(v, q, out=vq)
                vq *= tm
                d *= sm
                d -= vq
                q += d
        dq = c * v * q - 2.0 * n * d  # c (1 - u^2) P_n'(u) / ((n + a) P_(n-1)(1))
        if converged:
            w = (np.sin(theta) / dq) ** 2
            return theta, w * (2.0**alpha / alpha / w.sum())
        step = c * np.sin(theta) * q / (n * dq)
        theta = theta + step
        converged = np.abs(step).max() < 1e-12
    raise ConvergenceError(f"Gauss-Jacobi nodes for n={n}, alpha={alpha} did not converge")


@functools.lru_cache(maxsize=8)
def _legendre_cells(n: int):
    """n-point Gauss-Legendre on [0, r^12/2], [r^12/2, r^11/2], ..., [r/2, 1/2]."""
    theta, w = _gauss_jacobi(n, 1.0)
    edges = np.concatenate([[0.0], 0.5 * _RATIO ** np.arange(_CELLS - 1, -1, -1.0)])
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * np.cos(0.5 * theta) ** 2).ravel(), (0.5 * width * w).ravel()


@functools.lru_cache(maxsize=64)
def _unit_rule(n: int, alpha: float):
    """Nodes s and weights W with int_0^x f(t) (x-t)^(alpha-1) dt ~
    x^alpha sum W f(x s): _legendre_cells with the kernel in W, and on
    [x/2, x] Gauss-Jacobi for the kernel, t = x (1 - (1 - u)/4)."""
    tau, omega = _legendre_cells(n)
    theta, w = _gauss_jacobi(n, alpha)
    s = np.concatenate([tau, 1.0 - 0.5 * np.sin(0.5 * theta) ** 2])
    weights = np.concatenate([omega * (1.0 - tau) ** (alpha - 1.0), w / 4.0**alpha])
    s.flags.writeable = weights.flags.writeable = False
    return s, weights


def _gauss_level(f: RealFunction, alpha: float, x: np.ndarray, n: int):
    """The rule with n nodes per cell at each x, and its absolute mass: one
    eval_array call, sums along the last axis (each x has its own bits)."""
    s, w = _unit_rule(n, alpha)
    fw = f.eval_array(np.multiply.outer(x, s)) * w
    with np.errstate(over="ignore"):  # inf at a large x: rl_integral's "not finite"
        scale = x**alpha / gamma(alpha)
    return fw.sum(axis=-1) * scale, np.abs(fw).sum(axis=-1) * scale


def rl_integral(f, alpha: float, x, q: QuadratureSpec = QuadratureSpec()):
    """Riemann-Liouville integral of order 0 < alpha <= 170, lower limit 0,
    at a finite x > 0, or elementwise at an ndarray of them (a whole profile).

    Gauss-Jacobi on [x/2, x] takes the kernel (x-t)^(alpha-1) as its weight;
    Gauss-Legendre on 13 cells of [0, x/2] graded toward 0 (Schwab, p- and
    hp-Finite Element Methods, 1998) makes t^a endpoints (a >= 0) converge
    exponentially.  n = 8, 16, ... nodes per cell (_unit_rule) until two
    levels agree to q.tol times the finer one's absolute mass; each x stops
    on its own level, with the bits of a float call.  A non-finite value,
    n > _N_MAX or more than q.n_base * 2**q.max_doublings evaluations of f
    per x raise ConvergenceError."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 170.0:
        raise ValueError(f"integral order must be finite and positive and at most 170, got {alpha}")
    xs = np.array(x, dtype=float).ravel()
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise ValueError(f"rl_integral requires a finite x > 0, got {x}")
    f = _as_real_function(f)
    out, live = np.empty(xs.size), np.arange(xs.size)
    budget = q.n_base * 2**q.max_doublings
    n, used, coarse = 8, 0, None
    while live.size:
        used += (_CELLS + 1) * n
        if n > _N_MAX or used > budget:
            raise ConvergenceError(
                f"fractional integral of order {alpha} at x={xs[live[0]]} did not converge: "
                f"{n} Gauss nodes per cell pass the cap of {_N_MAX} or the budget of "
                f"{budget} evaluations per x (n_base={q.n_base}, max_doublings={q.max_doublings})"
            )
        fine, mass = _gauss_level(f, alpha, xs[live], n)
        if not np.isfinite(mass).all():  # else |fine| <= mass is finite too
            bad = xs[live][~np.isfinite(mass)][0]
            raise ConvergenceError(f"fractional integral of order {alpha} is not finite at x={bad}")
        if coarse is not None:
            done = np.abs(fine - coarse) <= q.tol * mass
            out[live[done]] = fine[done]
            live, fine = live[~done], fine[~done]
        coarse, n = fine, 2 * n
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def rl_derivative(f, beta: float, x, q: QuadratureSpec = QuadratureSpec()):
    """Riemann-Liouville derivative of order beta in [0, 2) at a finite x > 0,
    or elementwise at an ndarray of them (a whole profile), each x with the
    bits of its float call.

    D^beta f = (d/dx)^n I^alpha f with n = ceil(beta), alpha = n - beta, and
    I^alpha commutes with the Euler operator x d/dx (substitute t = x tau;
    Samko, Kilbas & Marichev, Fractional Integrals and Derivatives, 1993).
    So D^beta f is one rl_integral on the whole profile and nothing is
    differenced:
        0 < beta < 1:  I^alpha[alpha f + t f'](x) / x,
        1 < beta < 2:  I^alpha[alpha(alpha-1) f + 2 alpha t f' + t^2 f''](x) / x^2,
    each t^k f^(k) term taking its limit 0 at t = 0; integer orders give
    f^(n)(x), called on each x as a float (numpy's t**0.5 is a square root,
    which differs from the float power in the last place for some t).  An
    operand without closed-form f^(k), k = 1..n (a bare callable, say)
    raises ValueError before any quadrature.
    """
    beta = float(beta)
    if not 0.0 <= beta < 2.0:
        raise ValueError(f"derivative order must lie in [0, 2), got {beta}")
    xs = np.array(x, dtype=float)
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise ValueError(f"rl_derivative requires a finite x > 0, got {x}")
    f = _as_real_function(f)
    n = math.ceil(beta)
    alpha = n - beta
    fk = [f.derivative(k) for k in range(n + 1)]  # a missing closed form raises here
    if alpha == 0.0:
        out = np.array([float(fk[n](t)) for t in xs.ravel().tolist()]).reshape(xs.shape)
    else:
        xn = power(xs, float(n))  # the quotient below divides by it
        if not xn.all():
            raise ValueError(f"x = {xs[xn == 0.0][0]} is too close to 0: x^{n} underflows to 0")
        # coefficients of t^k f^(k) in the integrand, k = 0..n
        coef = (alpha, 1.0) if n == 1 else (alpha * (alpha - 1.0), 2.0 * alpha, 1.0)

        def integrand(t):
            pos = t > 0.0  # f^(k) may be infinite at t = 0, where t^k f^(k) -> 0
            val = coef[0] * f.eval_array(t)
            for k in range(1, n + 1):
                val[pos] += coef[k] * t[pos] ** k * f.eval_array(t[pos], k)
            return val

        out = rl_integral(integrand, alpha, xs, q) / xn
    return float(out) if np.ndim(x) == 0 else out


def power_rule(a_exp: float, beta: float, x: float) -> float:
    """Closed form Gamma(a+1)/Gamma(a+1-beta) x^(a-beta) for D^beta t^a.

    Serves as the analytic oracle for the numeric operators; beta < 0 gives
    the fractional integral of order -beta.  Past the float range the
    Gammas' quotient, and where needed the whole value with x^(a-beta), is
    taken in logs, signed as Gamma(a+1-beta).  Within 1/2 of a pole
    -m of Gamma(t) ~ C / (t + m), t = a + 1 - beta, the value takes the
    share 1 + lost / (den + m) of what the roundings of den = fl(t) lost."""
    a_exp, beta, x = float(a_exp), float(beta), float(x)
    if not a_exp > -1.0:
        raise ValueError(f"power rule needs exponent > -1, got {a_exp}")
    if not x > 0.0:
        raise ValueError(f"power_rule requires x > 0, got {x}")
    den = a_exp + 1.0 - beta
    if den <= 0.0 and den == math.floor(den):
        raise GammaPoleError(f"power_rule({a_exp}, {beta}): Gamma pole at a+1-beta = {den}")
    s = a_exp + 1.0  # TwoSum of a + 1, then of s - beta: lost = t - den, rounded once
    lost = (a_exp - (s - (s - a_exp))) + (1.0 - (s - a_exp))
    lost += (s - (den - (den - s))) - (beta + (den - s))
    share = 1.0 + lost / (den + round(-den)) if den < 0.5 else 1.0  # den + m is exact
    sign = -1.0 if den < 0.0 and math.ceil(-den) % 2 else 1.0
    log_quot = math.lgamma(a_exp + 1.0) - math.lgamma(den)
    try:  # gamma is inf from about 171.6; it, exp and the float power raise OverflowError
        quot = gamma(a_exp + 1.0) / gamma(den)
        if not 0.0 < abs(quot) < math.inf:
            quot = sign * math.exp(log_quot)
        if abs(quot) >= sys.float_info.min:
            return quot * x ** (a_exp - beta) * share
    except OverflowError:
        pass
    return sign * math.exp(log_quot + (a_exp - beta) * math.log(x)) * share


def frac_const(b: float, delta, x):
    """Order-(1-delta) fractional integral of the constant b at x > 0, a float
    or an ndarray: b x^(1-delta) / Gamma(2-delta), exactly b when delta = 1;
    specfun.power gives each element the bits of the float call."""
    d = _delta_value(delta)
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    if not np.all(x > 0.0):
        raise ValueError(f"frac_const requires x > 0, got {x}")
    if d == 1.0:
        return float(b)
    return float(b) * power(x, 1.0 - d) / gamma(2.0 - d)


# ---------------------------------------------------------------------------
# The linear solver
# ---------------------------------------------------------------------------


def solve_linear_fractional(
    p,
    g,
    delta,
    xs: GridSpec,
    c: float,
    q: QuadratureSpec = QuadratureSpec(),
) -> SampledFunction:
    """Solve u' + p(x) u = D^(delta-1) g on the grid by integrating factor.

    u(x) = (1/mu(x)) [ int_0^x mu(s) v(s) ds + c ],  v = D^(delta-1) g,
    mu(x) = exp(int_{x_start}^x p), anchored so that mu(x_start) = 1; the
    integration constant c is then u(x_start) whenever g vanishes.  The
    order-(1-delta) integral v of g collapses to g itself at delta = 1 and
    the solver reduces to the classical integrating-factor formula.

    v is never formed: W = I^(2-delta) g has W' = v and W(0) = 0, and
    mu' = p mu, so by parts u(x) = W(x) + (c - int_0^x p mu W) / mu(x).
    Each integral is an rl_integral, of order 1 for int_0^x p and for the
    correction: one call per grid point, whose integrand takes int_0^s p and
    W at all its nodes at once and calls nothing where p(s) = 0.
    """
    d = _delta_value(delta)
    p, g = _as_real_function(p), _as_real_function(g)
    pts = xs.points()
    if not pts[0] > 0.0:
        raise ValueError(f"solution grid must start above 0, got {float(pts[0])}")
    ip = rl_integral(p, 1.0, pts, q)  # int_0^x p
    w = rl_integral(g, 2.0 - d, pts, q)

    def pmw(s):
        ps = p.eval_array(s)
        live = (ps != 0.0) & (s > 0.0)  # W(0) = 0
        out = np.zeros(s.shape)
        if live.any():
            t = s[live]
            mu = np.exp(rl_integral(p, 1.0, t, q) - ip[0])
            out[live] = ps[live] * mu * rl_integral(g, 2.0 - d, t, q)
        return out

    corr = np.array([rl_integral(pmw, 1.0, xi, q) for xi in pts])
    return SampledFunction(pts, w + (c - corr) / np.exp(ip - ip[0]))
