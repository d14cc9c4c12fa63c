"""Exception types shared across the package."""


class LrdcovError(Exception):
    """Base class for all package-specific errors."""


class TruncationExceededError(LrdcovError):
    """Requested autocovariance lag exceeds the spec's truncation horizon."""


class NotInvertibleError(LrdcovError):
    """A covariance matrix is singular or indefinite."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class NearSingularError(NotInvertibleError):
    """A covariance is too ill-conditioned to invert reliably."""

    def __init__(self, message, condition_estimate=None, smallest_eigenvalue=None):
        super().__init__(message, smallest_eigenvalue)
        self.condition_estimate = condition_estimate


class HighDimensionError(LrdcovError):
    """Precision estimation requested with p >= n."""


class DimensionTooLargeError(LrdcovError):
    """Dense p^2 x p^2 materialization would exceed model.MEMORY_BUDGET."""


class OutOfRegimeError(LrdcovError):
    """Rate formulas requested outside the Gaussian regime (decay <= 3/4)."""


class InvalidPlanError(LrdcovError):
    """Simulation plan violates its own invariants (e.g. N < n)."""


class MemoryBudgetError(LrdcovError):
    """Simulation buffers would exceed model.MEMORY_BUDGET."""


class ZeroVarianceError(LrdcovError):
    """A series is constant where variation is required."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column    # index of the failing column of a stack
