"""Multivariate time-series workflow: ingestion, long-memory diagnostics,
per-subject precision-matrix edge tests, and group-level graph aggregation.

Edges are conditional-independence violations: entry (j, k) of the precision
matrix whose simultaneous bootstrap confidence interval excludes zero.  Group
graphs pool per-edge detection counts across subjects and keep the most
frequently detected fraction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bootstrap import (DefaultBlocks, confidence_region, precision_blocks,
                        resolve_block_length)
from .errors import HighDimensionError, ZeroVarianceError
from .estimate import sample_covariance, sample_precision

ACF_LAG_LO = 21
ACF_LAG_HI = 100


@dataclass(frozen=True)
class SubjectSeries:
    id: str
    data: np.ndarray            # n x p, demeaned per column
    labels: tuple[str, ...]     # one per column, distinct: edges are keyed by them

    def __post_init__(self):
        columns = np.shape(self.data)[-1]
        problem = (f"{len(self.labels)} labels for {columns} columns"
                   if len(self.labels) != columns else _repeated_label(self.labels))
        if problem:
            raise ValueError(f"subject {self.id!r}: {problem}")


def _repeated_label(labels: Sequence[str]) -> Optional[str]:
    """'columns j and k share the label ...' for the first repeat (1-based), or None."""
    first = {}
    for k, label in enumerate(labels, start=1):
        if first.setdefault(label, k) != k:
            return f"columns {first[label]} and {k} share the label {label!r}"
    return None


@dataclass
class EdgeStat:
    count: int = 1
    score: float = 0.0
    lower: Optional[float] = None
    upper: Optional[float] = None


@dataclass
class EdgeSet:
    labels: tuple[str, ...]
    edges: dict = field(default_factory=dict)  # (label_a, label_b) -> EdgeStat


@dataclass(frozen=True)
class AcfSignificance:
    count: int
    flag: bool


def ingest(path) -> SubjectSeries:
    """Read one subject's CSV (header row of labels, numeric rows), demeaned.

    Labels must be distinct after stripping spaces.  Blank lines are skipped
    and cells may be quoted or padded with spaces; every value must be a
    finite number, and so must each demeaned column's sum of squares.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        body = fh.read()
    if header is None:
        raise ValueError(f"{path}: empty file")
    labels = tuple(cell.strip() for cell in header)
    repeated = _repeated_label(labels)
    if repeated:  # checked before the body is parsed
        raise ValueError(f"{path}: {repeated}")
    if not body.strip("\r\n"):
        raise ValueError(f"{path}: no data rows")
    try:  # comments=None: the default "#" would silently cut a cell short
        data = np.loadtxt(io.StringIO(body, newline=None), delimiter=",",
                          ndmin=2, quotechar='"', comments=None)
        if data.shape[1] != len(labels):
            raise ValueError(f"{data.shape[1]} fields per row, expected {len(labels)}")
    except ValueError as exc:
        raise ValueError(f"{path}: {_bad_cell(labels, body) or exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: row {i + 2}, column {labels[j]!r}: "
                         f"non-finite value {float(data[i, j])}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = data - data.mean(axis=0)
        overflow = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->j", data, data)))
    if overflow.size:
        raise ValueError(f"{path}: column {labels[overflow[0]]!r}: values too large, "
                         f"the sum of squares after demeaning is not finite")
    return SubjectSeries(path.stem, data, labels)


def _bad_cell(labels: tuple[str, ...], body: str) -> Optional[str]:
    """Describe the first ragged row or non-numeric cell of the data rows
    (numbered from the header, row 1, skipping blank lines); None if none."""
    rows = (row for row in csv.reader(io.StringIO(body, newline="")) if row)
    for i, row in enumerate(rows, start=2):
        if len(row) != len(labels):
            return f"row {i} has {len(row)} fields, expected {len(labels)}"
        for label, cell in zip(labels, row):
            try:  # float() also takes "1_0" and non-ASCII digits; numpy's parser does not
                float(cell)
                if cell.strip().isascii() and "_" not in cell:
                    continue
            except ValueError:
                pass
            return f"row {i}, column {label!r}: non-numeric field {cell!r}"
    return None


def _hurst_columns(X: np.ndarray) -> np.ndarray:
    """`hurst_exponent` of each column of an (n, p) stack.  A ZeroVarianceError
    carries the index of the first failing column."""
    rows = np.ascontiguousarray(X.T)  # (p, n): every reduction runs along the last axis
    p, n = rows.shape
    if n < 32:
        raise ValueError(f"series too short for R/S analysis (n = {n} < 32)")
    constant = np.flatnonzero(np.ptp(rows, axis=-1) == 0.0)
    if constant.size:
        raise ZeroVarianceError("constant series has no rescaled range", int(constant[0]))
    sizes = 8 << np.arange((n // 16).bit_length())  # 8, 16, ... up to n/2
    log_rs = np.empty((sizes.size, p))
    for s, w in enumerate(sizes):
        blocks = rows[:, :(n // w) * w].reshape(p, n // w, w)
        centered = blocks - blocks.mean(axis=-1, keepdims=True)
        spread = centered.std(axis=-1)
        cumdev = np.cumsum(centered, axis=-1)
        ranges = cumdev.max(axis=-1) - cumdev.min(axis=-1)
        keep = spread > 0
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN: no varying window
            log_rs[s] = np.log(np.where(keep, ranges / spread, 0.0).sum(axis=-1)
                               / keep.sum(axis=-1))
    fitted = ~np.isnan(log_rs)
    count = fitted.sum(axis=0)
    unfit = np.flatnonzero(count < 2)
    if unfit.size:
        raise ZeroVarianceError("not enough varying windows for a slope fit", int(unfit[0]))
    # least-squares slope over each column's fitted sizes, where dx is centred; 0 elsewhere
    dx = np.where(fitted, np.log(sizes)[:, None], 0.0)
    dx = fitted * (dx - dx.sum(axis=0) / count)
    y = np.where(fitted, log_rs, 0.0)
    return np.clip((dx * y).sum(axis=0) / (dx * dx).sum(axis=0), 0.0, 1.0)


def hurst_exponent(series) -> float:
    """Rescaled-range estimate of the Hurst exponent.

    For dyadic window sizes w = 8, 16, ... up to n/2, the range of the
    cumulative mean-adjusted deviations over each disjoint window is divided
    by the window standard deviation, over the windows that vary; log of the
    averaged ratio is regressed on log(w), over the sizes with such a window,
    and the least-squares slope, clamped to [0, 1], is returned.
    """
    return float(_hurst_columns(np.asarray(series, dtype=float).reshape(-1, 1))[0])


def _acf_counts(X: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """`acf_significance` counts of each column of an (n, p) stack.  A
    ZeroVarianceError carries the index of the first failing column."""
    rows = np.ascontiguousarray(X.T)
    p, n = rows.shape
    if not 1 <= lag_lo <= lag_hi < n:
        raise ValueError(f"lag range [{lag_lo}, {lag_hi}] invalid for n = {n}")
    centered = rows - rows.mean(axis=-1, keepdims=True)
    denom = np.einsum("pt,pt->p", centered, centered)
    constant = np.flatnonzero(denom == 0.0)
    if constant.size:
        raise ZeroVarianceError("constant series has no autocorrelation", int(constant[0]))
    # shifted[:, h - lag_lo, t] = centered[:, t + h], zero past the end
    padded = np.concatenate([centered, np.zeros((p, lag_hi))], axis=-1)
    shifted = sliding_window_view(padded, n, axis=-1)[:, lag_lo:]
    rho = np.einsum("pt,pht->ph", centered, shifted) / denom[:, None]
    return np.count_nonzero(np.abs(rho) > 1.96 / math.sqrt(n), axis=-1)


def acf_significance(series, lag_lo: int = ACF_LAG_LO,
                     lag_hi: int = ACF_LAG_HI) -> AcfSignificance:
    """Count autocorrelations in [lag_lo, lag_hi] beyond the 1.96/sqrt(n) band."""
    series = np.asarray(series, dtype=float).reshape(-1, 1)
    count = int(_acf_counts(series, lag_lo, lag_hi)[0])
    return AcfSignificance(count, count >= 1)


def subject_graph(subject: SubjectSeries, alpha: float,
                  block_rule=DefaultBlocks()) -> EdgeSet:
    """Edges whose precision entry has |Omega_hat_jk| above the simultaneous
    half width n^{-1/2} q_hat(1 - alpha); the margin is kept as a score."""
    data = subject.data
    n, p = data.shape
    if p >= n:
        raise HighDimensionError(f"subject {subject.id}: p = {p} >= n = {n}")
    omega_hat = sample_precision(sample_covariance(data))
    l = resolve_block_length(block_rule, n, p)
    dist = precision_blocks(data, l, omega=omega_hat)
    half_width = confidence_region(omega_hat, dist, n, alpha).half_width
    rows, cols = np.triu_indices(p, 1)
    entries = omega_hat[rows, cols]
    hit = np.abs(entries) > half_width
    edges = {}
    for j, k, entry in zip(rows[hit], cols[hit], entries[hit]):
        pair = tuple(sorted((subject.labels[j], subject.labels[k])))
        edges[pair] = EdgeStat(count=1, score=abs(entry) - half_width,
                               lower=entry - half_width, upper=entry + half_width)
    return EdgeSet(subject.labels, edges)


def aggregate_group(edge_sets: Sequence[EdgeSet], sparsity: float) -> EdgeSet:
    """Pool per-edge counts and keep the top ceil(sparsity * p(p-1)/2) edges.

    Ties break by summed score, then lexicographic label pair, so the output
    is deterministic.
    """
    if not edge_sets:
        raise ValueError("need at least one subject")
    if not 0.0 < sparsity <= 1.0:
        raise ValueError("sparsity must lie in (0, 1]")
    labels = edge_sets[0].labels
    for es in edge_sets[1:]:
        if es.labels != labels:
            raise ValueError("subjects carry inconsistent label sets")
    pooled: dict = {}
    for es in edge_sets:
        for pair, stat in es.edges.items():
            agg = pooled.setdefault(pair, EdgeStat(count=0, score=0.0))
            agg.count += stat.count
            agg.score += stat.score
    p = len(labels)
    cap = int(math.ceil(sparsity * (p * (p - 1) // 2) - 1e-9))
    return EdgeSet(labels, dict(_ranked(pooled)[:cap]))


def _ranked(edges: dict) -> list:
    """Edges by count, then summed score (both descending), then label pair."""
    return sorted(edges.items(), key=lambda kv: (-kv[1].count, -kv[1].score, kv[0]))


def subject_diagnostics(subject: SubjectSeries,
                        lag_lo: int = ACF_LAG_LO,
                        lag_hi: int = ACF_LAG_HI) -> list[tuple[str, float, int]]:
    """(column label, Hurst exponent, significant-ACF count) per coordinate.

    A constant column raises ZeroVarianceError naming the subject and column.
    """
    data = subject.data
    try:
        hurst = _hurst_columns(data)
        counts = _acf_counts(data, lag_lo, min(lag_hi, data.shape[0] - 1))
    except ZeroVarianceError as exc:
        raise ZeroVarianceError(f"subject {subject.id!r}, column "
                                f"{subject.labels[exc.column]!r}: {exc}", exc.column) from exc
    return list(zip(subject.labels, hurst.tolist(), counts.tolist()))


def write_edges_csv(edge_set: EdgeSet, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("source,target,count,score\n")
        for (a, b), stat in _ranked(edge_set.edges):
            fh.write(f"{a},{b},{stat.count},{stat.score:.10g}\n")


def write_diagnostics_csv(rows_by_subject: Iterable[tuple[str, list]], path) -> None:
    """rows_by_subject yields (SubjectSeries.id, subject_diagnostics(...)) pairs."""
    with open(path, "w", newline="\n") as fh:
        fh.write("subject,column,hurst,acf_count\n")
        for subject, rows in rows_by_subject:
            for label, hurst, acf_count in rows:
                fh.write(f"{subject},{label},{hurst:.10g},{acf_count}\n")
