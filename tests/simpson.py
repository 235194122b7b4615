"""Adaptive Simpson quadrature, a quadrature independent of the library's
Gauss rule.  No library function uses it, so it lives beside the tests:
``test_cosmo.py`` integrates the Hubble rate with it as the cross-check on
``cosmo.scale_factor``'s closed form.
"""

from __future__ import annotations

from typing import Callable

from fracriccati.errors import ConvergenceError

_SIMPSON_MAX_DEPTH = 30


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Classic adaptive Simpson quadrature of a callable on [a, b]."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, b - a)

    def recurse(a, m, b, fa, fm, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        if abs(err) <= 15.0 * tol or (b - a) < 1e-14 * (1.0 + abs(a)):
            return left + right + err / 15.0
        if depth >= _SIMPSON_MAX_DEPTH:
            raise ConvergenceError(
                f"adaptive_simpson: depth limit {_SIMPSON_MAX_DEPTH} reached on [{a}, {b}]"
            )
        return recurse(a, lm, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, rm, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    return recurse(a, m, b, fa, fm, fb, whole, tol, 0)
