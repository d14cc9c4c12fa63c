"""Two-sample distances and plot-data extraction for empirical distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistanceReport:
    kolmogorov: float
    wasserstein1: float
    n1: int
    n2: int


def _sorted(sample, name: str) -> np.ndarray:
    arr = np.sort(np.asarray(sample, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError(f"{name} sample is empty")
    if not np.isfinite(arr[[0, -1]]).all():  # sorting puts nan and +-inf at the ends
        raise ValueError(f"{name} sample has non-finite values")
    return arr


def kolmogorov_distance(a, b) -> float:
    """Exact sup |F_a - F_b| over the merged support of two samples.

    Both ECDFs are evaluated at every distinct merged value, which advances
    through all tied observations before comparing.
    """
    sa, sb = _sorted(a, "first"), _sorted(b, "second")
    grid = np.union1d(sa, sb)
    fa = np.searchsorted(sa, grid, side="right") / sa.size
    fb = np.searchsorted(sb, grid, side="right") / sb.size
    return float(np.abs(fa - fb).max())


def _quantile_exact(sorted_sample: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Smallest order statistic whose ECDF reaches each level (no interpolation)."""
    n = sorted_sample.size
    ranks = np.ceil(levels * n).astype(int)
    fuzz = (ranks > 1) & ((ranks - 1) / n >= levels)
    ranks[fuzz] -= 1
    return sorted_sample[np.clip(ranks, 1, n) - 1]


def wasserstein1(a, b) -> float:
    """W1 between two empirical distributions.

    Equal sizes: mean absolute gap of paired order statistics.  Unequal sizes:
    the quantile functions are compared on a midpoint grid of
    8 * max(n1, n2) levels, a documented approximation.
    """
    sa, sb = _sorted(a, "first"), _sorted(b, "second")
    if sa.size == sb.size:
        return float(np.abs(sa - sb).mean())
    q = 8 * max(sa.size, sb.size)
    levels = (np.arange(q) + 0.5) / q
    return float(np.abs(_quantile_exact(sa, levels) - _quantile_exact(sb, levels)).mean())


def distance_report(a, b) -> DistanceReport:
    sa, sb = _sorted(a, "first"), _sorted(b, "second")
    return DistanceReport(kolmogorov_distance(sa, sb), wasserstein1(sa, sb),
                          sa.size, sb.size)


def qq_pairs(a, b, q: int) -> list[tuple[float, float]]:
    """q pairs (quantile_a(k/(q+1)), quantile_b(k/(q+1))) from exact order statistics."""
    if q < 2:
        raise ValueError("need at least two quantile levels")
    sa, sb = _sorted(a, "first"), _sorted(b, "second")
    levels = np.arange(1, q + 1) / (q + 1.0)
    qa = _quantile_exact(sa, levels)
    qb = _quantile_exact(sb, levels)
    return [(float(x), float(y)) for x, y in zip(qa, qb)]


def ecdf_points(a) -> list[tuple[float, float]]:
    """Step-function breakpoints (x_(i), F(x_(i))), ties collapsed to the top step."""
    sa = _sorted(a, "input")
    uniq, counts = np.unique(sa, return_counts=True)
    levels = np.cumsum(counts) / sa.size
    return [(float(x), float(f)) for x, f in zip(uniq, levels)]
