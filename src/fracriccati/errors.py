"""Exception types shared across the package."""


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class ConvergenceError(RuntimeError):
    """A quadrature or series refinement budget was exhausted."""


class StepUnderflowError(ConvergenceError):
    """ODE step size underflowed; usually signals a pole or stiffness."""


class MaxStepsError(ConvergenceError):
    """ODE integrator exceeded its step budget."""


class DegenerateRegimeError(ValueError):
    """Closed-form Riccati branch requested with b = 0."""


class BranchZeroError(ValueError):
    """Scale-factor ratio across a zero of the chosen linear branch."""


class ScanBudgetError(ValueError):
    """A pole search span needs more sign-scan cells than the fixed budget."""


class GridSizeError(ValueError):
    """A grid has more points than can be allocated."""

    def __init__(self, grid):
        super().__init__(f"{grid.count} points do not fit in memory")
        self.grid = grid


class NonFiniteError(ArithmeticError):
    """A verification value (closed form, deviation or residual) is inf or nan."""
