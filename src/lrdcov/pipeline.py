"""Multivariate time-series workflow: ingestion, long-memory diagnostics,
per-subject precision-matrix edge tests, and group-level graph aggregation.

Edges are conditional-independence violations: entry (j, k) of the precision
matrix whose simultaneous bootstrap confidence interval excludes zero.  Group
graphs pool per-edge detection counts across subjects and keep the most
frequently detected fraction.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .bootstrap import (DefaultBlocks, confidence_region, precision_blocks,
                        resolve_block_length)
from .errors import (HighDimensionError, NearSingularError, ZeroVarianceError,
                     first_nonfinite, not_utf8)
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

    The file is UTF-8, with or without a byte-order mark, and its lines may
    end in LF, CRLF or CR.  Labels must be distinct after stripping spaces.
    Blank lines are skipped and cells may be quoted or padded with spaces;
    every value must be a finite number, and so must each demeaned column's
    sum of squares.  Each input error is a ValueError naming the file; one
    that is not UTF-8 is named with the offset of its first bad byte.
    """
    path = Path(path)
    try:
        labels, data = _parse(path)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    bad = first_nonfinite(data)
    if bad is not None:
        i, j = bad
        raise ValueError(f"{path}: row {i + 2}, column {labels[j]!r}: "
                         f"non-finite value {float(data[i, j])}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = data - data.mean(axis=0)
        overflow = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->j", data, data)))
    if overflow.size:
        raise ValueError(f"{path}: column {labels[overflow[0]]!r}: values too large, "
                         f"the sum of squares after demeaning is not finite")
    return SubjectSeries(path.stem, data, labels)


_LOADTXT = dict(delimiter=",", ndmin=2, quotechar='"',
                comments=None)  # the default "#" would silently cut a cell short


def _parse(path: Path):
    """(labels, values), read in one pass through universal newlines: the header
    record by `csv.reader`, the body by `np.loadtxt` from the same open file.
    Only a header cell holding a newline, where universal newlines may have
    turned a quoted CR or CRLF into LF, sends the header record alone to be read
    again through untranslated line ends.  A body the parser rejects raises a
    ValueError naming the file and, where `_bad_cell` finds one, its first bad
    row or cell."""
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is no label
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if any("\n" in cell for cell in header):
            with open(path, newline="", encoding="utf-8-sig") as exact:
                header = next(row for row in csv.reader(exact) if row)
        labels = tuple(cell.strip() for cell in header)
        repeated = _repeated_label(labels)
        if repeated:  # checked before the body is parsed
            raise ValueError(f"{path}: {repeated}")
        first = next((line for line in fh if line != "\n"), None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            data = np.loadtxt(itertools.chain((first,), fh), **_LOADTXT)
            if data.shape[1] != len(labels):
                raise ValueError(f"{data.shape[1]} fields per row, expected {len(labels)}")
        except ValueError as exc:
            raise ValueError(f"{path}: {_bad_cell(path, labels) or exc}") from exc
    return labels, data


def _bad_cell(path: Path, labels: tuple[str, ...]) -> Optional[str]:
    """Describe the first ragged row or non-numeric cell of the data rows, read
    through untranslated line ends (numbered from the header, row 1, skipping
    blank lines); None if none."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = (row for row in csv.reader(fh) if row)
        for i, row in enumerate(itertools.islice(rows, 1, None), start=2):
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


def _check_finite(X: np.ndarray, labels: Sequence) -> None:
    """ValueError naming the row and column label of the first non-finite entry
    of an (n, p) stack, before a kernel warns or returns a number from it."""
    bad = first_nonfinite(X)
    if bad is not None:
        i, j = bad
        raise ValueError(f"row {i}, column {labels[j]!r}: non-finite value {X[i, j]}")


# Each R/S window size runs in the cheaper of two layouts: time-major, its sums
# across rows p * n / w long, or window-major once w^2 > 16 n (w 256 and 512 at
# n 2000), each window summed along its own row.  The rule reads n and w alone,
# so a column gives the same bits alone as in a stack.
_WINDOW_MAJOR = 16
# Up to this w the time-major running sum is w - 1 row adds: np.cumsum(axis=0)
# runs one strided loop per column instead.
_ROW_ADDS_MAX_W = 16


def _hurst_columns(X: np.ndarray) -> np.ndarray:
    """`hurst_exponent` of each column of an (n, p) stack.  A ZeroVarianceError
    carries the index of the first failing column."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if n < 32:
        raise ValueError(f"series too short for R/S analysis (n = {n} < 32)")
    rows = np.ascontiguousarray(X.T)  # each column along one row: cheap reductions
    constant = np.flatnonzero(rows.max(axis=-1) == rows.min(axis=-1))
    if constant.size:
        raise ZeroVarianceError("constant series has no rescaled range", int(constant[0]))
    sizes = 8 << np.arange((n // 16).bit_length())  # 8, 16, ... up to n/2
    log_rs = np.empty((p, sizes.size))  # sizes last: each column's sums run along one row
    for s, w in enumerate(sizes):
        m = n // w
        if w * w > _WINDOW_MAJOR * n:
            varies, ranges, spread = _window_major_rs(rows[:, :m * w].reshape(p, m, w))
        else:
            # time-major copy, column j * m + b holding window b of column j: every
            # reduction runs across rows p * m long, and a column's windows are
            # summed along one contiguous row, the same for any p
            varies, ranges, spread = _time_major_rs(
                X[:m * w].reshape(m, w, p).transpose(1, 2, 0).copy().reshape(w, p * m))
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN: no varying window
            ratios = np.where(varies, ranges / spread, 0.0).reshape(p, m)
            log_rs[:, s] = np.log(ratios.sum(axis=-1) / varies.reshape(p, m).sum(axis=-1))
    fitted = ~np.isnan(log_rs)
    count = fitted.sum(axis=-1, keepdims=True)
    unfit = np.flatnonzero(count < 2)
    if unfit.size:
        raise ZeroVarianceError("not enough varying windows for a slope fit", int(unfit[0]))
    # least-squares slope over each column's fitted sizes, where dx is centred; 0 elsewhere
    dx = np.where(fitted, np.log(sizes), 0.0)
    dx = fitted * (dx - dx.sum(axis=-1, keepdims=True) / count)
    y = np.where(fitted, log_rs, 0.0)
    return np.clip((dx * y).sum(axis=-1) / (dx * dx).sum(axis=-1), 0.0, 1.0)


def _time_major_rs(blocks: np.ndarray):
    """(varies, range, spread) of each column of a (w, k) block of windows,
    computed in place: whether the window's values differ, the range of its
    running sum of deviations from its mean, and its standard deviation."""
    w = blocks.shape[0]
    # raw values, not the spread: axis-0 sums add row after row, so a constant
    # window's mean can miss its value and leave a spread of about 1e-17
    high, low = _column_extremes(blocks)
    varies = high > low
    blocks -= blocks.mean(axis=0)
    spread = np.sqrt(np.einsum("tj,tj->j", blocks, blocks) / w)
    if w <= _ROW_ADDS_MAX_W:  # the adds of np.cumsum(axis=0), in its order
        for t in range(1, w):
            np.add(blocks[t - 1], blocks[t], out=blocks[t])
    else:
        np.cumsum(blocks, axis=0, out=blocks)
    high, low = _column_extremes(blocks)
    return varies, high - low, spread


def _window_major_rs(blocks: np.ndarray):
    """`_time_major_rs` of each row of a (p, m, w) view of windows, each
    reduced along its own contiguous row; the view is left as it is."""
    w = blocks.shape[-1]
    varies = blocks.max(axis=-1) > blocks.min(axis=-1)
    centered = blocks - blocks.mean(axis=-1, keepdims=True)
    spread = np.sqrt(np.einsum("jbt,jbt->jb", centered, centered) / w)
    np.cumsum(centered, axis=-1, out=centered)
    return varies, centered.max(axis=-1) - centered.min(axis=-1), spread


def _column_extremes(blocks: np.ndarray):
    """Max and min of each column of a (w, k) array.  A block taller than it
    is wide is folded into about sqrt(w) long rows first, so that the
    reductions do not pay a per-row cost w times; a max is exact in any order."""
    w, k = blocks.shape
    if k >= w:
        return blocks.max(axis=0), blocks.min(axis=0)
    group = 1 << (w.bit_length() // 2)  # w is a power of two
    folded = blocks.reshape(w // group, group * k)
    return (folded.max(axis=0).reshape(group, k).max(axis=0),
            folded.min(axis=0).reshape(group, k).min(axis=0))


def hurst_exponent(series) -> float:
    """Rescaled-range estimate of the Hurst exponent.

    For dyadic window sizes w = 8, 16, ... up to n/2, the range of the
    cumulative mean-adjusted deviations over each disjoint window is divided
    by the window standard deviation, over the windows whose values are not
    all equal; log of the averaged ratio is regressed on log(w), over the
    sizes with such a window, and the least-squares slope, clamped to [0, 1],
    is returned.  A non-finite value raises ValueError naming its row.
    """
    X = np.asarray(series, dtype=float).reshape(-1, 1)
    _check_finite(X, (0,))
    return float(_hurst_columns(X)[0])


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
    # circular autocovariance over at least n + lag_hi points: no lag up to
    # lag_hi wraps round
    size = _fft_length(n + lag_hi)
    spectrum = np.fft.rfft(centered, size, axis=-1)
    acov = np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, size, axis=-1)
    rho = acov[:, lag_lo:lag_hi + 1] / denom[:, None]
    return np.count_nonzero(np.abs(rho) > 1.96 / math.sqrt(n), axis=-1)


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b >= m: a power of two alone can nearly double m."""
    return min(3**b << (-(-m // 3**b) - 1).bit_length() for b in range(m.bit_length()))


def acf_significance(series, lag_lo: int = ACF_LAG_LO,
                     lag_hi: int = ACF_LAG_HI) -> AcfSignificance:
    """Count autocorrelations in [lag_lo, lag_hi] beyond the 1.96/sqrt(n) band.
    A non-finite value raises ValueError naming its row."""
    series = np.asarray(series, dtype=float).reshape(-1, 1)
    _check_finite(series, (0,))
    count = int(_acf_counts(series, lag_lo, lag_hi)[0])
    return AcfSignificance(count, count >= 1)


def subject_graph(subject: SubjectSeries, alpha: float,
                  block_rule=DefaultBlocks()) -> EdgeSet:
    """Edges whose precision entry has |Omega_hat_jk| above the simultaneous
    half width n^{-1/2} q_hat(1 - alpha); the margin is kept as a score.

    A non-finite value, a near-singular covariance or a series too short for
    the block rule raises its own error type, naming the subject."""
    data = subject.data
    n, p = data.shape
    if p >= n:
        raise HighDimensionError(f"subject {subject.id!r}: p = {p} >= n = {n}")
    try:
        _check_finite(data, subject.labels)
        omega_hat = sample_precision(sample_covariance(data))
        l = resolve_block_length(block_rule, n, p)
    except NearSingularError as exc:
        raise NearSingularError(f"subject {subject.id!r}: {exc}", exc.condition_estimate,
                                exc.smallest_eigenvalue) from exc
    except ValueError as exc:
        raise ValueError(f"subject {subject.id!r}: {exc}") from exc
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

    A constant column raises ZeroVarianceError naming the subject and column; a
    non-finite value, ValueError naming the subject, row and column; a series
    too short or a lag range it cannot hold, ValueError naming the subject.
    """
    data = subject.data
    try:
        _check_finite(data, subject.labels)
        hurst = _hurst_columns(data)
        counts = _acf_counts(data, lag_lo, min(lag_hi, data.shape[0] - 1))
    except ZeroVarianceError as exc:
        raise ZeroVarianceError(f"subject {subject.id!r}, column "
                                f"{subject.labels[exc.column]!r}: {exc}", exc.column) from exc
    except ValueError as exc:
        raise ValueError(f"subject {subject.id!r}: {exc}") from exc
    return list(zip(subject.labels, hurst.tolist(), counts.tolist()))


class _CsvFields(dict):
    """text -> text as one CSV field, quoted as the default csv.writer does:
    only a field holding a comma, a quote, CR or LF, its quotes doubled.  Each
    distinct text is quoted once, so a writer pays one lookup per field."""

    def __missing__(self, text: str) -> str:
        quote = "," in text or '"' in text or "\r" in text or "\n" in text
        self[text] = field = '"%s"' % text.replace('"', '""') if quote else text
        return field


def write_edges_csv(edge_set: EdgeSet, path) -> None:
    field = _CsvFields()
    with open(path, "w", newline="\n") as fh:
        fh.write("source,target,count,score\n")
        for (a, b), stat in _ranked(edge_set.edges):
            fh.write(f"{field[a]},{field[b]},{stat.count},{stat.score:.10g}\n")


def write_diagnostics_csv(rows_by_subject: Iterable[tuple[str, list]], path) -> None:
    """rows_by_subject yields (SubjectSeries.id, subject_diagnostics(...)) pairs."""
    field = _CsvFields()
    with open(path, "w", newline="\n") as fh:
        fh.write("subject,column,hurst,acf_count\n")
        for subject, rows in rows_by_subject:
            subject = field[subject]
            for label, hurst, acf_count in rows:
                fh.write(f"{subject},{field[label]},{hurst:.10g},{acf_count}\n")
