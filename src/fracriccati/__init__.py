"""Riemann-Liouville fractional operators, closed-form Bessel-ratio solutions
of the delta-modified Riccati equation u' + a u^2 = b x^(1-delta)/Gamma(2-delta),
and the FRW barotropic cosmology application."""

from . import cosmo, fracops, odeverify, riccati, specfun
from .errors import (
    BranchZeroError,
    ConvergenceError,
    DegenerateRegimeError,
    GammaPoleError,
    IndeterminateFormError,
    MaxStepsError,
    StepUnderflowError,
)

__all__ = [
    "specfun",
    "fracops",
    "riccati",
    "odeverify",
    "cosmo",
    "BranchZeroError",
    "ConvergenceError",
    "DegenerateRegimeError",
    "GammaPoleError",
    "IndeterminateFormError",
    "MaxStepsError",
    "StepUnderflowError",
]

__version__ = "0.1.0"
