"""u of the closed-form Riccati branches in mpmath, the tests' accuracy
reference.

u = (1/a) sign q r x^(r-1) B_(n-1)(q x^r) / B_n(q x^r), as in
``riccati.branch_table``, from the same float inputs.  The orders are the
floats the library forms, n = 1/(3 - delta) and n - 1.0: near delta = 1, u's
sensitivity to n grows like 1/(n - 1/2), so the rounding of n - 1.0 alone
would read as an error of about 2^-54 / (1/2 - n) against the exact orders.
Everything else (q, r, the Bessel functions) is taken at the working
precision.
"""

from __future__ import annotations

import mpmath


def mp_u(a: float, b: float, delta: float, branch: int, x: float, dps: int = 40) -> float:
    """u of the chosen branch at x (a b < 0: J or Y, a b > 0: I or K)."""
    n = 1.0 / (3.0 - delta)
    with mpmath.workdps(dps):
        am, bm, d, xm = (mpmath.mpf(v) for v in (a, b, delta, x))
        r = (3 - d) / 2
        q = 2 / (3 - d) * mpmath.sqrt(abs(am * bm) / mpmath.gamma(2 - d))
        z = q * xm**r
        if a * b < 0.0:
            bessel, sign = (mpmath.besselj if branch == 1 else mpmath.bessely), 1
        else:
            bessel, sign = (mpmath.besseli, 1) if branch == 1 else (mpmath.besselk, -1)
        return float(sign * q * r * xm ** (r - 1) * bessel(n - 1.0, z) / bessel(n, z) / am)
