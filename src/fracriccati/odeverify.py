"""Independent verification backend: integrate(rhs, xs, y0), the one
embedded Dormand-Prince 5(4) pair with PI step-size control at the fixed
tolerances _REL_TOL and _ABS_TOL, runs the modified Riccati equation
(riccati_rhs) or its associated linear equation (linear_rhs) forward or
backward through positive output points, a cross-check on the closed forms
(riccati_trajectory picks the Riccati run's direction); the other, residuals,
puts the closed forms into the equation with u' by the library's one
difference rule, _richardson_d1 on stencils(xs).

Pole avoidance is the caller's duty (locate poles first); the integrator
reports step underflow rather than attempting to continue through one.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import MaxStepsError, StepUnderflowError
from .fracops import frac_const
from .riccati import RiccatiParams, branch_table, residual
from .specfun import gamma

__all__ = ["integrate", "riccati_trajectory", "stencils", "residuals"]


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_EPS = sys.float_info.epsilon
_MAX_STEPS = 100000
_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _step(rhs, x, y, h, k0):
    """One DP5 step of signed size h from (x, y), k0 = rhs(x, y): the 5th-order
    state, the local error estimate and stage 7 (rhs there: the next k0, first
    same as last).  The tableau is written out in + and * alone, so y and the
    stages may be floats or ndarrays; each stage sum starts from its first
    term, the two weight sums from 0.0, and zero weights stay in, which fixes
    the bits."""
    k1 = rhs(x + 0.2 * h, y + h * (0.2 * k0))
    k2 = rhs(x + 0.3 * h, y + h * (3.0 / 40.0 * k0 + 9.0 / 40.0 * k1))
    k3 = rhs(x + 0.8 * h, y + h * (44.0 / 45.0 * k0 - 56.0 / 15.0 * k1 + 32.0 / 9.0 * k2))
    k4 = rhs(x + 8.0 / 9.0 * h, y + h * (
        19372.0 / 6561.0 * k0 - 25360.0 / 2187.0 * k1 + 64448.0 / 6561.0 * k2
        - 212.0 / 729.0 * k3))
    k5 = rhs(x + h, y + h * (
        9017.0 / 3168.0 * k0 - 355.0 / 33.0 * k1 + 46732.0 / 5247.0 * k2
        + 49.0 / 176.0 * k3 - 5103.0 / 18656.0 * k4))
    k6 = rhs(x + h, y + h * (
        35.0 / 384.0 * k0 + 0.0 * k1 + 500.0 / 1113.0 * k2 + 125.0 / 192.0 * k3
        - 2187.0 / 6784.0 * k4 + 11.0 / 84.0 * k5))
    y5 = y + h * (
        0.0 + 35.0 / 384.0 * k0 + 0.0 * k1 + 500.0 / 1113.0 * k2 + 125.0 / 192.0 * k3
        - 2187.0 / 6784.0 * k4 + 11.0 / 84.0 * k5 + 0.0 * k6)
    # b5 - b4: the weights of the embedded error estimate
    err = h * (
        0.0 + 71.0 / 57600.0 * k0 + 0.0 * k1 - 71.0 / 16695.0 * k2 + 71.0 / 1920.0 * k3
        - 17253.0 / 339200.0 * k4 + 22.0 / 525.0 * k5 - 1.0 / 40.0 * k6)
    return y5, err, k6


def _rms(values) -> float:
    """Root mean square, summed left to right."""
    total = 0.0
    for v in values:
        total = total + v * v
    return math.sqrt(total / len(values))


def _error_norm(err, y, y_new) -> float:
    """The RMS of err / (_ABS_TOL + _REL_TOL max(|y|, |y_new|)): its absolute
    value for a float state, which is the one place that reads the kind."""
    if isinstance(err, float):
        return abs(err) / (_ABS_TOL + _REL_TOL * max(abs(y), abs(y_new)))
    return _rms(err / (_ABS_TOL + _REL_TOL * np.maximum(abs(y), abs(y_new))))


def _initial_step(rhs, x0, y0, x1):
    """(h, f0 = rhs(x0, y0)): the first step size towards x1 (either side)."""
    f0 = rhs(x0, y0)
    span, sign = abs(x1 - x0), math.copysign(1.0, x1 - x0)
    d0, d1 = _error_norm(y0, y0, y0), _error_norm(f0, y0, y0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if not (h0 > 0.0 and np.isfinite(f0).all()):
        return 0.0, f0  # f0 overflowed: integrate reports a step underflow at x0
    f1 = rhs(x0 + sign * h0, y0 + sign * h0 * f0)
    d2 = _error_norm(f1 - f0, y0, y0) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span), f0


def integrate(rhs, xs, y0) -> np.ndarray:
    """The states at the finite, positive (each rhs here takes x**e with a
    fractional e), strictly monotone points xs, shape (len(xs), len(y0)), of
    one trajectory from the finite y0 at xs[0]; other xs or y0 raise
    ValueError before any rhs call.  A step of the embedded 5(4) pair with
    PI step control that would pass a point is cut to land on it; after an
    accepted cut the larger of the proposed and the uncut size carries on.
    _MAX_STEPS bounds the attempted steps of the trajectory.

    A one-component y0 (a float, [float] or a one-element ndarray) is carried
    as a float, and rhs(x, y) takes and returns a float; a longer one as a
    float ndarray, and rhs returns an ndarray of its shape.
    """
    pts = np.asarray(xs, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError(f"xs must be a non-empty sequence of points, got {xs!r}")
    xs, finite = pts.tolist(), np.isfinite(pts)
    if not finite.all():
        raise ValueError(f"xs must be finite, got {xs[np.argmin(finite)]!r}")
    if not pts.min() > 0.0:
        raise ValueError(f"xs must be positive, got {min(xs)!r}")
    x, sign = xs[0], math.copysign(1.0, xs[-1] - xs[0])
    onward = sign * pts[1:] > sign * pts[:-1]
    if not onward.all():
        i = int(np.argmin(onward))
        raise ValueError(f"xs must be strictly monotone, got {xs[i + 1]!r} after {xs[i]!r}")
    y = np.array(y0, dtype=float).reshape(-1)
    if not np.isfinite(y).all():
        raise ValueError(f"y0 must be finite, got {y0!r}")
    if y.size == 1:
        y = float(y[0])
    h, k0 = _initial_step(rhs, x, y, xs[-1])
    prev_err = 1.0
    out = [y]
    for _ in range(_MAX_STEPS):
        if len(out) == len(xs):
            return np.array(out).reshape(len(xs), -1)
        target = xs[len(out)]
        span = sign * (target - x)
        step = min(h, span)
        if step <= 16.0 * _EPS * max(abs(x), 1.0):
            raise StepUnderflowError(
                f"step size underflow at x={x}; likely a pole or stiffness"
            )
        y_new, err, k_new = _step(rhs, x, y, sign * step, k0)
        norm = _error_norm(err, y, y_new)
        if norm <= 1.0:
            x, y, k0 = x + sign * step, y_new, k_new
            if step == span or sign * (x - target) >= 0.0:
                out.append(y)
            factor = _SAFETY * (norm + 1e-16) ** (-_PI_ALPHA) * prev_err**_PI_BETA
            prev_err = norm + 1e-16
        else:
            factor = max(_MIN_FACTOR, _SAFETY * norm**(-_PI_ALPHA))
        proposed = step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        h = max(h, proposed) if norm <= 1.0 and step < h else proposed
    raise MaxStepsError(f"integration exceeded {_MAX_STEPS} steps")


def riccati_rhs(rp: RiccatiParams) -> Callable[[float, float], float]:
    """u' = b x^(1-delta)/Gamma(2-delta) - a u^2, for a float u and x."""
    a, b, delta = float(rp.a), float(rp.b), rp.delta
    if delta == 1.0:
        return lambda x, u: b - a * u * u
    e, g = 1.0 - delta, float(gamma(2.0 - delta))
    return lambda x, u: b * x**e / g - a * u * u


def linear_rhs(rp: RiccatiParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """First-order system for y'' = (ab/Gamma(2-delta)) x^(1-delta) y, on the
    state (y, y') as an ndarray of shape (2,)."""
    coef = rp.a * rp.b / gamma(2.0 - rp.delta)
    e = 1.0 - rp.delta

    def f(x, state):
        y, yp = state
        return np.array((yp, coef * x**e * y))

    return f


def riccati_trajectory(rp: RiccatiParams, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u of the modified Riccati equation at the ascending points xs of a
    pole-free span, from one trajectory that starts at the closed-form u (an
    ndarray on xs) of the end a deviation contracts from (du' = -2 a u du):
    xs[0] when the trapezoid integral of a u over xs is >= 0, else xs[-1]."""
    with np.errstate(all="ignore"):  # only the sign is read
        way = 1 if rp.a * np.sum((u[1:] + u[:-1]) * np.diff(xs)) >= 0.0 else -1
    return integrate(riccati_rhs(rp), xs[::way], u[::way][0])[::way, 0]


# offsets of the central-difference stencil, in units of the step h
_STENCIL = np.array([0.0, 1.0, -1.0, 0.5, -0.5])


def _fd_step(x):
    """Step h of the central differences at x > 0: max(1e-6, 1e-6 x), capped
    at 1e-3 x so that the stencil x + _STENCIL h stays above 0."""
    return np.minimum(np.maximum(1e-6, x * 1e-6), 1e-3 * x)


def _richardson_d1(fv, h):
    """First derivative from the values fv on the stencil of step h: central
    differences of steps h and h/2 and one Richardson step."""
    _, fp, fm, fhp, fhm = fv
    return (4.0 * ((fhp - fhm) / h) - (fp - fm) / (2.0 * h)) / 3.0


def stencils(xs: np.ndarray) -> np.ndarray:
    """The residual stencils xs + _STENCIL h, h = _fd_step(xs), of the points
    xs > 0 (an ndarray): shape (5, len(xs)), row 0 is xs."""
    with np.errstate(over="ignore"):  # past the float maximum: inf, refused as too large
        return xs + np.multiply.outer(_STENCIL, _fd_step(xs))


def residuals(rp: RiccatiParams, branch: int, xs, u=None) -> np.ndarray:
    """|u' + a u^2 - rhs| / (|u'| + |a u^2| + |rhs|) of the closed-form
    branch at the points xs > 0 (an ndarray), rhs = b x^(1-delta) /
    Gamma(2-delta), with u' by _richardson_d1 from u on stencils(xs): the
    given values, else those of one branch_table call.
    The scale is never 0 for b != 0; near 0, where u' and a u^2 grow like
    1/x^2, it keeps their round-off from reading as a defect."""
    if u is None:
        pts = stencils(xs)
        u = branch_table([rp], branch, pts.ravel())[0][0].reshape(pts.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 below x ~ 1e-321: nan
        up = _richardson_d1(u, _fd_step(xs))
    scale = np.abs(up) + np.abs(rp.a * u[0] * u[0]) + np.abs(frac_const(rp.b, rp.delta, xs))
    return np.abs(residual(rp, xs, u[0], up)) / scale
