"""Block-bootstrap distributions, quantiles and simultaneous confidence regions.

Sliding length-l windows of the centered Gram sequence X_j X_j^T - Sigma_hat
produce one max-deviation statistic per window; their empirical distribution
approximates the law of the scaled estimation error.  Window i + 1 is window i
plus the entering outer product minus the leaving one, so each window is a base
Gram, recomputed every `REFRESH_INTERVAL` windows to bound floating-point
drift, plus a running sum of these differences.  The sum runs through two
reused tile buffers of about `_TILE_DOUBLES` doubles each, which stay in cache
and bound memory whatever n is; each tile continues the sum of the one
before it, so no statistic depends on the tile size.  For
p^2 >= `_ROWWISE_MIN_ENTRIES` the sum is one add per window across all p^2
entries, below it np.cumsum; both add in the same order.
Precision windows are the covariance windows of Y = X Omega_hat: for
symmetric Omega_hat, Omega_hat (sum_window X_j X_j^T - l Sigma_hat) Omega_hat
= sum_window Y_j Y_j^T - l Y^T Y / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRegimeError
from .estimate import sample_covariance, sample_precision
from .metrics import _quantile_exact
from .model import theoretical_rates

REFRESH_INTERVAL = 1024
_TILE_DOUBLES = 2**16  # 512 KB per tile buffer, so both stay in L2 cache
_ROWWISE_MIN_ENTRIES = 400  # p^2 from which a per-window add beats np.cumsum


@dataclass(frozen=True)
class BootstrapDistribution:
    """Sorted block statistics l^{-1/2} |B_i|_inf for i = l..n."""

    values: np.ndarray
    l: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, float)))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ConfidenceRegion:
    """Uniform entrywise band: center entries +- half_width."""

    center: np.ndarray
    half_width: float
    alpha: float

    def contains(self, matrix: np.ndarray) -> bool:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != self.center.shape:
            raise ValueError("shape mismatch with the region center")
        return bool(np.abs(matrix - self.center).max() <= self.half_width)


# Block-length rules ---------------------------------------------------------

@dataclass(frozen=True)
class DefaultBlocks:
    """Nonadaptive l = floor(n^(2/3))."""


@dataclass(frozen=True)
class FixedBlocks:
    l: int

    def __post_init__(self):
        if not self.l >= 1:
            raise ValueError(f"fixed block length {self.l} is below 1")


@dataclass(frozen=True)
class TheoreticalBlocks:
    epsilon: float
    scale: float = 1.0
    beta: Optional[float] = None  # may also come from the caller

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0 and self.scale > 0):
            raise ValueError(f"theoretical block rule needs epsilon in (0, 1) and "
                             f"scale > 0, got {self.epsilon} and {self.scale}")


def default_block_length(n: int) -> int:
    """floor(n^(2/3)), computed in exact integer arithmetic."""
    if n < 8:
        raise ValueError("block-length rule requires n >= 8")
    m = max(1, int(round(n ** (2.0 / 3.0))))
    while m * m * m > n * n:
        m -= 1
    while (m + 1) ** 3 <= n * n:
        m += 1
    return m


def theoretical_block_length(n: int, p: int, beta: float, epsilon: float,
                             scale: float = 1.0) -> int:
    """round(scale * n^phi * log^psi(max(p, 2))), clamped to [2, n].

    The optimal order fixes phi and psi but not the constant; `scale` is the
    caller's choice with default 1.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    rates = theoretical_rates(beta, n, p, epsilon)
    raw = scale * n ** rates["phi"] * math.log(max(p, 2)) ** rates["psi_exp"]
    return int(min(max(round(raw), 2), n))


def resolve_block_length(rule, n: int, p: int = 1,
                         beta: Optional[float] = None) -> int:
    if isinstance(rule, DefaultBlocks):
        return default_block_length(n)
    if isinstance(rule, FixedBlocks):
        if not 1 <= rule.l <= n:
            raise ValueError(f"fixed block length {rule.l} outside [1, {n}]")
        return rule.l
    if isinstance(rule, TheoreticalBlocks):
        b = rule.beta if rule.beta is not None else beta
        if b is None:
            raise OutOfRegimeError("theoretical block rule needs a decay exponent")
        return theoretical_block_length(n, p, b, rule.epsilon, rule.scale)
    raise TypeError(f"unknown block rule {rule!r}")


# Window statistics -----------------------------------------------------------

def _series(X: np.ndarray) -> np.ndarray:
    """X as a finite float n x p matrix with p >= 1, else ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be an n x p matrix with p >= 1")
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"X row {i}, column {j}: non-finite value {X[i, j]}")
    return X


def _window_maxima(X: np.ndarray, l: int) -> np.ndarray:
    """l^{-1/2} |M_i - l Sigma_hat|_inf over all windows, in window order,
    for a finite n x p matrix X."""
    n, p = X.shape
    if not 1 <= l <= n:
        raise ValueError(f"block length {l} outside [1, {n}]")
    target = l * (X.T @ X / n)
    count = n - l + 1
    vals = np.empty(count)
    chunk = min(REFRESH_INTERVAL, count)
    tile = min(chunk, max(1, _TILE_DOUBLES // (p * p)))
    steps_buf, leaving_buf = np.empty((tile, p, p)), np.empty((tile, p, p))
    running = np.empty((p, p))
    rowwise = p * p >= _ROWWISE_MIN_ENTRIES
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        first = X[start:start + l]
        base = first.T @ first
        vals[start] = np.abs(base - target).max()
        # window i = base + running sum over j <= i of (entering - leaving outer
        # product); each tile continues the running sum of the one before it
        for lo in range(start + 1, stop, tile):
            hi = min(lo + tile, stop)
            steps = steps_buf[:hi - lo]
            enter, leave = X[lo + l - 1:hi + l - 1], X[lo - 1:hi - 1]
            np.multiply(enter[:, :, None], enter[:, None, :], out=steps)
            steps -= np.multiply(leave[:, :, None], leave[:, None, :],
                                 out=leaving_buf[:hi - lo])
            if lo > start + 1:
                steps[0] += running
            if rowwise:
                for k in range(1, hi - lo):
                    np.add(steps[k - 1], steps[k], out=steps[k])
            else:
                np.cumsum(steps, axis=0, out=steps)
            np.copyto(running, steps[-1])
            steps += base
            steps -= target
            vals[lo:hi] = np.abs(steps, out=steps).max(axis=(1, 2))
    return vals / math.sqrt(l)


def covariance_blocks(X: np.ndarray, l: int) -> BootstrapDistribution:
    """Empirical distribution of l^{-1/2} |sum_window (X_j X_j^T - Sigma_hat)|_inf."""
    return BootstrapDistribution(_window_maxima(_series(X), l), l, "covariance")


def precision_blocks(X: np.ndarray, l: int,
                     omega: Optional[np.ndarray] = None) -> BootstrapDistribution:
    """Covariance windows conjugated by Omega_hat on both sides.

    Computed as the covariance windows of X @ omega, so `omega` (by default
    the sample precision) must be finite and symmetric to a relative 1e-8.
    """
    X = _series(X)
    if omega is None:
        omega = sample_precision(sample_covariance(X))
    omega = np.asarray(omega, dtype=float)
    if (omega.shape != (X.shape[1],) * 2 or not np.isfinite(omega).all()
            or np.abs(omega - omega.T).max() > 1e-8 * np.abs(omega).max()):
        raise ValueError("omega must be a finite symmetric p x p matrix")
    return BootstrapDistribution(_window_maxima(X @ omega, l), l, "precision")


def quantile(dist: BootstrapDistribution, level: float) -> float:
    """inf{u : F_hat(u) >= level}: the ceil(level * N)-th order statistic."""
    if not 0.0 < level < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if len(dist) == 0:
        raise ValueError("empty bootstrap distribution")
    return float(_quantile_exact(dist.values, np.array([level]))[0])


def confidence_region(center: np.ndarray, dist: BootstrapDistribution, n: int,
                      alpha: float) -> ConfidenceRegion:
    """Simultaneous entrywise region with half width n^{-1/2} q_hat(1 - alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not n > 0:
        raise ValueError(f"sample size n must be positive, got n = {n}")
    half_width = quantile(dist, 1.0 - alpha) / math.sqrt(n)
    return ConfidenceRegion(np.asarray(center, dtype=float), half_width, alpha)
