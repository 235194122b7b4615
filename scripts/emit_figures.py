#!/usr/bin/env python3
"""Emit the (eta, delta, H) surface grids behind the closed- and open-universe
Hubble figures into out/ as CSV tables, via `fracriccati cosmo figure`.

The tracked out/*.csv are golden files: tests/test_golden.py regenerates both
surfaces from FIGURES and compares their bytes.
"""

import pathlib
import sys

from fracriccati import cli

FIGURES = (
    ("figure_closed_k+1.csv", ["cosmo", "figure", "--k", "1", "--c", "1",
                               "--grid", "0.1:3:60", "--delta-grid", "0.05:1:20"]),
    ("figure_open_k-1.csv", ["cosmo", "figure", "--k", "-1", "--c", "1",
                             "--grid", "0.1:3:60", "--delta-grid", "0.05:1:20"]),
)


def main(out_dir: pathlib.Path | None = None) -> int:
    if out_dir is None:
        out_dir = pathlib.Path(__file__).resolve().parent.parent / "out"
    out_dir.mkdir(exist_ok=True)
    for name, argv in FIGURES:
        path = out_dir / name
        rc = cli.main(argv + ["--out", str(path)])
        if rc != 0:
            print(f"failed: {name} (exit {rc})", file=sys.stderr)
            return rc
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
