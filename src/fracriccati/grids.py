"""Evaluation lattices shared by the library and the CLI."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridSizeError


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-D lattice with inclusive, finite endpoints."""

    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(
                f"grid start and stop must be finite, got [{self.start}, {self.stop}]"
            )
        if not self.start < self.stop:
            raise ValueError(f"grid start must be < stop, got [{self.start}, {self.stop}]")
        if not (isinstance(self.count, numbers.Integral) and self.count >= 2):
            raise ValueError(f"grid count must be an integer >= 2, got {self.count!r}")

    def points(self) -> np.ndarray:
        # linspace's k * step may overflow at the last point of a grid that
        # ends near the float maximum; that point is set to stop itself
        with np.errstate(over="ignore"):
            try:
                return np.linspace(self.start, self.stop, self.count)
            except (MemoryError, ValueError):  # a count past memory or the index range
                raise GridSizeError(self) from None
