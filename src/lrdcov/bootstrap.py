"""Block-bootstrap distributions, quantiles and simultaneous confidence regions.

Sliding length-l windows of the centered Gram sequence X_j X_j^T - Sigma_hat
produce one max-deviation statistic per window; their empirical distribution
approximates the law of the scaled estimation error.  Window i + 1 is window i
plus the entering outer product minus the leaving one, so each window is a base
Gram, recomputed every `REFRESH_INTERVAL` windows to bound floating-point
drift, plus a running sum of these differences.  The sum runs entry by entry
over the upper triangle (every window is symmetric): each product x_a x_b is
formed once per time point, and np.cumsum sums each entry's differences along
its own row.  Memory is one refresh chunk's leaving and entering rows,
transposed (p x at most 2 * REFRESH_INTERVAL - 2 doubles), plus blocks of
entries whose products and sums hold about `_TILE_DOUBLES` doubles each, so it
is bounded whatever n and l are, and no statistic depends on the block size.
Precision windows are the covariance windows of Y = X Omega_hat: for
symmetric Omega_hat, Omega_hat (sum_window X_j X_j^T - l Sigma_hat) Omega_hat
= sum_window Y_j Y_j^T - l Y^T Y / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRegimeError, first_nonfinite
from .estimate import sample_covariance, sample_precision
from .metrics import _quantile_exact
from .model import theoretical_rates

REFRESH_INTERVAL = 1024
_TILE_DOUBLES = 2**16  # 512 KB per entry block buffer, so both stay in L2 cache


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

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0 and 0.0 < self.scale < math.inf):
            raise ValueError(f"theoretical block rule needs epsilon in (0, 1) and "
                             f"scale in (0, inf), got {self.epsilon} and {self.scale}")


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
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    rates = theoretical_rates(beta, n, p, epsilon)
    raw = scale * n ** rates["phi"] * math.log(max(p, 2)) ** rates["psi_exp"]
    return int(min(max(round(min(raw, n)), 2), n))  # raw is inf past the float range


def resolve_block_length(rule, n: int, p: int = 1,
                         beta: Optional[float] = None) -> int:
    if isinstance(rule, DefaultBlocks):
        return default_block_length(n)
    if isinstance(rule, FixedBlocks):
        if not 1 <= rule.l <= n:
            raise ValueError(f"fixed block length {rule.l} outside [1, {n}]")
        return rule.l
    if isinstance(rule, TheoreticalBlocks):
        if beta is None:
            raise OutOfRegimeError("theoretical block rule needs a decay exponent")
        return theoretical_block_length(n, p, beta, rule.epsilon, rule.scale)
    raise TypeError(f"unknown block rule {rule!r}")


# Window statistics -----------------------------------------------------------

def _series(X: np.ndarray) -> np.ndarray:
    """X as a finite float n x p matrix with p >= 1, else ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be an n x p matrix with p >= 1")
    bad = first_nonfinite(X)
    if bad is not None:
        i, j = bad
        raise ValueError(f"X row {i}, column {j}: non-finite value {X[i, j]}")
    return X


def _window_maxima(X: np.ndarray, l: int) -> np.ndarray:
    """l^{-1/2} |M_i - l Sigma_hat|_inf over all windows, in window order,
    for a finite n x p matrix X.

    One running sum along time per upper-triangle entry (a, b), a <= b, each
    product x_a x_b formed once per time point.  The triangle holds every
    maximum because base and target are exactly symmetric: numpy forms
    A.T @ A through syrk, or in its own loop from commuted products."""
    n, p = X.shape
    if not 1 <= l <= n:
        raise ValueError(f"block length {l} outside [1, {n}]")
    target = l * (X.T @ X / n)
    vals = np.empty(n - l + 1)
    chunk = min(REFRESH_INTERVAL, vals.size)
    # the m windows after a chunk's first leave its rows 0..m-1 and take in its
    # rows l..l+m-1: seg holds the leaving rows transposed, then the entering
    # rows not among them, so that entering row k sits at column shift + k
    width = min(l, chunk - 1) + chunk - 1
    size = max(1, _TILE_DOUBLES // max(width, 1))  # entries per block
    flat = np.flatnonzero(np.tri(p, dtype=bool).T)  # a * p + b, in row order
    owner = (flat // p).tolist()  # row a of each entry, as Python ints
    goal = np.take(target, flat)[:, None]
    seg = np.empty((p, width))
    prod_buf = np.empty((min(size, flat.size), width))
    steps_buf = np.empty((min(size, flat.size), chunk - 1))
    for start in range(0, vals.size, chunk):
        stop = min(start + chunk, vals.size)
        first = X[start:start + l]
        base = first.T @ first
        vals[start] = np.abs(base - target).max()
        m = stop - start - 1
        shift = min(l, m)
        np.copyto(seg[:, :m], X[start:start + m].T)
        np.copyto(seg[:, m:shift + m], X[start + l + m - shift:start + l + m].T)
        origin = np.take(base, flat)[:, None]
        out = vals[start + 1:stop]
        out.fill(0.0)
        for e0 in range(0, flat.size, size):
            e1 = min(e0 + size, flat.size)
            prod = prod_buf[:e1 - e0, :shift + m]
            for a in range(owner[e0], owner[e1 - 1] + 1):
                row = a * p - a * (a + 1) // 2  # entry (a, b) is number row + b
                k0, k1 = max(e0, row + a), min(e1, row + p)
                np.multiply(seg[a, :shift + m], seg[k0 - row:k1 - row, :shift + m],
                            out=prod[k0 - e0:k1 - e0])
            steps = np.subtract(prod[:, shift:], prod[:, :m], out=steps_buf[:e1 - e0, :m])
            np.cumsum(steps, axis=1, out=steps)
            steps += origin[e0:e1]
            steps -= goal[e0:e1]
            np.maximum(out, np.abs(steps, out=steps).max(axis=0), out=out)
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
