"""Independent verification backend: an embedded Dormand-Prince 5(4) pair
with PI step-size control, used to integrate the modified Riccati equation
and its associated linear equation as a cross-check on the closed forms.

Pole avoidance is the caller's duty (locate poles first); the integrator
reports step underflow rather than attempting to continue through one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MaxStepsError, StepUnderflowError
from .fracops import _fd_step, _richardson_d1, frac_const
from .riccati import RiccatiParams
from .specfun import gamma

__all__ = [
    "IvpSpec",
    "integrate",
    "integrate_riccati",
    "integrate_linear",
    "fd_derivative",
]


@dataclass(frozen=True)
class IvpSpec:
    """Initial-value problem: integrate from (x0, u0) to x1 > x0."""

    x0: float
    u0: float | Sequence[float]
    x1: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if not self.x1 > self.x0:
            raise ValueError(f"need x1 > x0, got x1={self.x1}, x0={self.x0}")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")


# Dormand-Prince 5(4) tableau
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
# b5 - b4: weights of the embedded local error estimate
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _rk_stages(rhs, x, y, h):
    k = [rhs(x, y)]
    for i in range(1, 7):
        acc = _A[i][0] * k[0]
        for j in range(1, i):
            acc = acc + _A[i][j] * k[j]
        k.append(rhs(x + _C[i] * h, y + h * acc))
    return k


def _step(rhs, x, y, h):
    k = _rk_stages(rhs, x, y, h)
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k))
    err = h * sum(e * ki for e, ki in zip(_E, k))
    return y5, err


def _error_norm(err, y, y_new, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(rhs, x0, y0, x1, rel_tol, abs_tol):
    f0 = rhs(x0, y0)
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, x1 - x0)
    y1 = y0 + h0 * f0
    f1 = rhs(x0 + h0, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, x1 - x0)


def integrate(rhs, spec: IvpSpec, max_steps: int = 100000) -> np.ndarray:
    """The state at spec.x1, integrated with the embedded 5(4) pair and PI
    step control."""
    y = np.atleast_1d(np.asarray(spec.u0, dtype=float)).copy()

    def f(x, state):
        return np.atleast_1d(np.asarray(rhs(x, state), dtype=float))

    x = spec.x0
    h = _initial_step(f, x, y, spec.x1, spec.rel_tol, spec.abs_tol)
    prev_err = 1.0
    for _ in range(max_steps):
        if x >= spec.x1:
            return y
        h = min(h, spec.x1 - x)
        if h <= 16.0 * np.finfo(float).eps * max(abs(x), 1.0):
            raise StepUnderflowError(
                f"step size underflow at x={x}; likely a pole or stiffness"
            )
        y_new, err = _step(f, x, y, h)
        norm = _error_norm(err, y, y_new, spec.rel_tol, spec.abs_tol)
        if norm <= 1.0:
            x += h
            y = y_new
            factor = _SAFETY * (norm + 1e-16) ** (-_PI_ALPHA) * prev_err**_PI_BETA
            prev_err = norm + 1e-16
        else:
            factor = max(_MIN_FACTOR, _SAFETY * norm**(-_PI_ALPHA))
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    raise MaxStepsError(f"integration exceeded {max_steps} steps")


def riccati_rhs(rp: RiccatiParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """u' = b x^(1-delta)/Gamma(2-delta) - a u^2 as a vector field."""

    def f(x, u):
        return frac_const(rp.b, rp.delta, x) - rp.a * u * u

    return f


def linear_rhs(rp: RiccatiParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """First-order system for y'' = (ab/Gamma(2-delta)) x^(1-delta) y."""
    coef = rp.a * rp.b / gamma(2.0 - rp.delta)
    e = 1.0 - rp.delta

    def f(x, state):
        y, yp = state
        return np.array([yp, coef * x**e * y])

    return f


def integrate_riccati(rp: RiccatiParams, ivp: IvpSpec) -> float:
    """u(x1) of the modified Riccati equation from u(x0) = ivp.u0.

    The caller is responsible for a pole-free [x0, x1] (see find_poles).
    """
    return float(integrate(riccati_rhs(rp), ivp)[0])


def integrate_linear(rp: RiccatiParams, ivp: IvpSpec) -> tuple[float, float]:
    """(y(x1), y'(x1)) of the associated linear equation; ivp.u0 = (y0, y0')."""
    u0 = np.asarray(ivp.u0, dtype=float)
    if u0.shape != (2,):
        raise ValueError(f"integrate_linear needs u0 = (y, y'), got {ivp.u0!r}")
    y, yp = integrate(linear_rhs(rp), ivp)
    return float(y), float(yp)


def fd_derivative(f: Callable[[float], float], x: float) -> float:
    """Central difference with one Richardson step, h = max(1e-6, |x|*1e-6)."""
    return _richardson_d1(f, x, _fd_step(x, 1e-6))
