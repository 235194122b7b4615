#!/usr/bin/env python3
"""Run the closed-form-vs-integration verification over the coefficient
matrix and print one line per parameter combination."""

import sys

from fracriccati import odeverify, riccati
from fracriccati.acceptance import _verification_interval


def main() -> int:
    print(f"{'a':>5} {'b':>5} {'delta':>6} {'x0':>7} {'x1':>7} {'deviation':>12}")
    worst = 0.0
    for a in (1.0, 2.0, -1.0):
        for b in (1.0, -1.0, 2.0, -2.0):
            for delta in (0.25, 0.5, 0.75, 1.0):
                rp = riccati.RiccatiParams(a, b, delta)
                x0, x1 = _verification_interval(rp)
                u0 = riccati.eval_u1(rp, x0)
                got = odeverify.integrate_riccati(
                    rp, odeverify.IvpSpec(x0, u0, x1)
                )
                want = riccati.eval_u1(rp, x1)
                dev = abs(got - want) / (1.0 + abs(want))
                worst = max(worst, dev)
                print(f"{a:>5.1f} {b:>5.1f} {delta:>6.2f} {x0:>7.3f} {x1:>7.3f} {dev:>12.3e}")
    print(f"worst scaled deviation: {worst:.3e}")
    return 0 if worst <= 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
