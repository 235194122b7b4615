#!/usr/bin/env python3
"""Run the closed-form-vs-integration verification over the coefficient
matrix and print one line per parameter combination: the rows behind the
Riccati route of acceptance criterion 6."""

import sys

from fracriccati.acceptance import riccati_route_rows


def main() -> int:
    print(f"{'a':>5} {'b':>5} {'delta':>6} {'x0':>7} {'x1':>7} {'deviation':>12}")
    worst = 0.0
    for rp, x0, x1, _, _, dev in riccati_route_rows():
        worst = max(worst, dev)
        print(f"{rp.a:>5.1f} {rp.b:>5.1f} {rp.delta:>6.2f} {x0:>7.3f} {x1:>7.3f} {dev:>12.3e}")
    print(f"worst scaled deviation: {worst:.3e}")
    return 0 if worst <= 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main())
