"""One-point values of the closed-form Riccati branches, and one-point
derivatives by the residuals' difference rule, for the tests.

The library evaluates the closed forms on lattices only: u through
``riccati.branch_table`` and y through ``riccati.y_branch_table``.  These
helpers read one-element tables, so each value has the bits of the table at
that point.  A one-element table stays under ``specfun._ARRAY_MIN_SIZE`` and
so takes the scalar Bessel kernels, which ``test_array_path.py`` holds the
array kernels to.
"""

from __future__ import annotations

import math

import numpy as np

from fracriccati import odeverify, riccati


def eval_u(rp: riccati.RiccatiParams, branch: int, x: float) -> float:
    """u of the chosen branch at x."""
    return float(riccati.branch_table([rp], branch, np.array([float(x)]))[0][0, 0])


def eval_u1(rp: riccati.RiccatiParams, x: float) -> float:
    """Branch 1: the first-kind ratio (J oscillatory, I modified)."""
    return eval_u(rp, 1, x)


def eval_u2(rp: riccati.RiccatiParams, x: float) -> float:
    """Branch 2: the second-kind ratio (Y oscillatory, K modified)."""
    return eval_u(rp, 2, x)


def eval_y_branch(rp: riccati.RiccatiParams, branch: int, x: float) -> tuple[float, float]:
    """(y, y') of the chosen linear branch at x: y = s exp(e) from
    y_branch_table (OverflowError where y leaves the float range) and
    y' = a u y."""
    s, e = riccati.y_branch_table(rp, branch, np.array([float(x)]))
    y = float(s[0]) * math.exp(float(e[0]))
    return y, rp.a * eval_u(rp, branch, x) * y


def rule_d1(f, x: float) -> float:
    """f'(x) by odeverify's difference rule, f called on each stencil point."""
    return float(odeverify._richardson_d1([f(t) for t in odeverify.stencils(x).tolist()],
                                          odeverify._fd_step(x)))
