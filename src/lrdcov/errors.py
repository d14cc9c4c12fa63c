"""Exception types shared across the package, and the scans that find the
entry or byte an input error names."""

from pathlib import Path
from typing import Optional

import numpy as np


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
    """Simulation, copy-block or reference-lane buffers would exceed model.MEMORY_BUDGET."""


class ZeroVarianceError(LrdcovError):
    """A series is constant where variation is required."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column    # index of the failing column of a stack


def first_nonfinite(X: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first non-finite entry of X in C order, or None.  One
    isfinite pass decides; the entry is located only when it fails."""
    finite = np.isfinite(X)
    if finite.all():
        return None
    return tuple(np.argwhere(~finite)[0].tolist())


def not_utf8(path, exc: UnicodeDecodeError) -> ValueError:
    """ValueError naming a file that is not UTF-8 and the offset of its first bad
    byte from the start of the file; `exc`, raised while reading it, counts from
    the start of its decoder's chunk."""
    try:
        Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        exc = whole
    return ValueError(f"{path}: not UTF-8: {exc.reason} at byte offset {exc.start}")
