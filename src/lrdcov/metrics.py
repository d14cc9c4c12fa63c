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


def distance_report(a, b) -> DistanceReport:
    """Exact Kolmogorov and Wasserstein-1 distances of two samples, at any sizes.

    Both ECDFs are evaluated at every distinct merged value, which advances
    through all tied observations before comparing: KS is the largest gap.
    Between neighbouring merged values both ECDFs are constant, and past the
    last one both are 1, so W1 = integral |F_a - F_b| dx is a finite sum.
    """
    sa, sb = _sorted(a, "first"), _sorted(b, "second")
    grid = np.union1d(sa, sb)
    fa = np.searchsorted(sa, grid, side="right") / sa.size
    fb = np.searchsorted(sb, grid, side="right") / sb.size
    gap = np.abs(fa - fb)
    # .sum(), not @: the total does not depend on the BLAS build
    return DistanceReport(float(gap.max()), float((gap[:-1] * np.diff(grid)).sum()),
                          sa.size, sb.size)


def kolmogorov_distance(a, b) -> float:
    """Exact sup |F_a - F_b| over the merged support of two samples."""
    return distance_report(a, b).kolmogorov


def wasserstein1(a, b) -> float:
    """Exact W1 between two empirical distributions, at any pair of sizes."""
    return distance_report(a, b).wasserstein1


def _quantile_exact(sorted_sample: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Smallest order statistic whose ECDF reaches each level (no interpolation)."""
    n = sorted_sample.size
    ranks = np.ceil(levels * n).astype(int)
    fuzz = (ranks > 1) & ((ranks - 1) / n >= levels)
    ranks[fuzz] -= 1
    return sorted_sample[np.clip(ranks, 1, n) - 1]


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
