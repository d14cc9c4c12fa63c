import csv
import io
import math
import re
import warnings

import numpy as np
import pytest

from lrdcov import (AcfSignificance, DefaultBlocks, EdgeSet, EdgeStat,
                    HighDimensionError, NearSingularError, SimulationPlan,
                    SubjectSeries, ZeroVarianceError, acf_significance, aggregate_group,
                    banded_spec, hurst_exponent, ingest, precision_blocks,
                    quantile, resolve_block_length, sample_covariance,
                    sample_precision, simulate_multidimensional,
                    subject_diagnostics, subject_graph, toeplitz_spec,
                    write_diagnostics_csv, write_edges_csv)
from lrdcov.bootstrap import FixedBlocks
from lrdcov.errors import first_nonfinite
from lrdcov.pipeline import (_acf_counts, _column_extremes, _CsvFields, _fft_length,
                             _hurst_columns, _ranked, _time_major_rs)

LABELS5 = tuple("abcde")


def make_subject(data, labels=None):
    data = np.asarray(data, dtype=float)
    labels = labels or tuple(f"c{j}" for j in range(data.shape[1]))
    return SubjectSeries("test", data - data.mean(axis=0), labels)


# --- ingest --------------------------------------------------------------------

LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def over_line_ends(values):
    """(value, end) parameters over each line end; the LF case keeps its value's id."""
    return [pytest.param(value, end, id=value + ("" if name == "lf" else f"-{name}"))
            for name, end in LINE_ENDS.items() for value in values]


def write_lines(path, text, end):
    """`text` with each LF written as `end`: the body is parsed through translated
    line ends and diagnosed through untranslated ones, so both must agree."""
    path.write_bytes(text.replace("\n", end).encode())


def test_ingest_zero_table(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("left,right\n0,0\n0,0\n")
    subject = ingest(path)
    assert subject.labels == ("left", "right")
    assert np.array_equal(subject.data, np.zeros((2, 2)))
    assert subject.id == "zeros"


def test_ingest_demeans_constant_column(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("a,b\n5,1\n5,2\n5,3\n")
    subject = ingest(path)
    assert np.allclose(subject.data[:, 0], 0.0)
    assert abs(subject.data[:, 1].mean()) < 1e-10


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_ingest_ragged_row_names_row(tmp_path, end):
    path = tmp_path / "ragged.csv"
    write_lines(path, "a,b\n1,2\n3\n", end)
    with pytest.raises(ValueError, match="row 3"):
        ingest(path)


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_ingest_non_numeric_names_row_and_column(tmp_path, end):
    path = tmp_path / "bad.csv"
    write_lines(path, "a,b\n1,2\n3,oops\n", end)
    with pytest.raises(ValueError, match="row 3.*'b'"):
        ingest(path)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ingest(path)


def ingest_oracle(path):
    """The per-cell parse `ingest` replaced: csv rows, one float() per cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    labels = tuple(cell.strip() for cell in rows[0])
    data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    return labels, data - data.mean(axis=0, keepdims=True)


@pytest.mark.parametrize("text", [
    "a,b\n\n1,2\n\n3,4.5\n\n",
    "\na,b\r\n1,2\r\n\r\n3,4.5\r\n",
    "a,b\r1,2\r\r3,4.5\r",
    '"a","b"\n"1",2\n3,"4.5"\n',
    " a , b \n 1 ,2\n3 , 4.5 \n",
    "a,b\n1e0,+2\n-3E-1,.5\n7,8",
], ids=["blank_lines", "crlf", "cr", "quoted", "whitespace", "literals"])
def test_ingest_matches_per_cell_parse(tmp_path, text):
    path = tmp_path / "subject.csv"
    path.write_bytes(text.encode())
    labels, data = ingest_oracle(path)
    subject = ingest(path)
    assert subject.labels == labels == ("a", "b")
    assert np.array_equal(subject.data, data)


@pytest.mark.parametrize("cell, end", over_line_ends(["2#3", "#3"]))
def test_ingest_rejects_comment_cells(tmp_path, cell, end):
    path = tmp_path / "hash.csv"
    write_lines(path, f"a,b\n1,2\n3,{cell}\n", end)
    with pytest.raises(ValueError, match="row 3, column 'b'.*non-numeric"):
        ingest(path)


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_ingest_rejects_digit_separators(tmp_path, end):
    # float() accepts "1_0"; the C parser does not, and its error is re-raised.
    path = tmp_path / "underscore.csv"
    write_lines(path, "a,b\n1,2\n3,1_0\n", end)
    with pytest.raises(ValueError, match="1_0") as info:
        ingest(path)
    assert info.value.__cause__ is not None


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_ingest_names_cells_that_float_takes_but_numpy_rejects(tmp_path, cell):
    path = tmp_path / "digits.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(ValueError, match=f"row 3, column 'b': non-numeric field '{cell}'"):
        ingest(path)


@pytest.mark.parametrize("header, columns, label", [("a,a,b", "1 and 2", "a"),
                                                    ("a,b, a", "1 and 3", "a"),
                                                    ("x,b,b ", "2 and 3", "b")],
                         ids=["first-two", "padded", "trailing-space"])
def test_ingest_rejects_repeated_labels(tmp_path, header, columns, label):
    # edges are keyed by label pair, so a repeated label would merge two columns' edges
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError) as err:
        ingest(path)
    assert str(err.value) == f"{path}: columns {columns} share the label {label!r}"


@pytest.mark.parametrize("labels, message", [
    (("a", "a", "b"), "columns 1 and 2 share the label 'a'"),
    (("a", "b", "a"), "columns 1 and 3 share the label 'a'"),
    (("a", "b"), "2 labels for 3 columns"), (("a", "b", "c", "d"), "4 labels for 3 columns")],
    ids=["repeated", "repeated-apart", "too-few", "too-many"])
def test_subject_series_needs_one_distinct_label_per_column(labels, message):
    # a repeated label merged two columns' edges in subject_graph, and a missing
    # one raised a bare IndexError there
    data = np.random.default_rng(2).standard_normal((40, 3))
    with pytest.raises(ValueError) as err:
        SubjectSeries("s07", data, labels)
    assert str(err.value) == f"subject 's07': {message}"


def test_ingest_rejects_overflowing_squares(huge_csv):
    with pytest.raises(ValueError, match=r"huge\.csv: column 'b'.*not finite"):
        ingest(huge_csv)


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_ingest_rejects_consistent_wrong_width(tmp_path, end):
    path = tmp_path / "wide.csv"
    write_lines(path, "a,b\n1,2,3\n4,5,6\n", end)
    with pytest.raises(ValueError, match="row 2 has 3 fields, expected 2"):
        ingest(path)


@pytest.mark.parametrize("body, end", over_line_ends(["", "\n", "\r\n\n"]))
def test_ingest_header_only_raises_without_warning(tmp_path, body, end):
    path = tmp_path / "header.csv"
    write_lines(path, "a,b\n" + body, end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            ingest(path)


@pytest.mark.parametrize("cell, end", over_line_ends(["nan", "inf", "-Infinity"]))
def test_ingest_rejects_non_finite(tmp_path, cell, end):
    path = tmp_path / "nonfinite.csv"
    write_lines(path, f"a,b\n1,2\n\n3,{cell}\n", end)
    with pytest.raises(ValueError, match="row 3, column 'b'.*non-finite"):
        ingest(path)


@pytest.mark.parametrize("raw", [b"a,\xffb\n1,2\n", b"a,b\n" + b"1.25,2\n" * 20_000 + b"3,\xff\n"],
                         ids=["header", "large-body"])
def test_ingest_names_an_undecodable_file_and_its_byte_offset(tmp_path, raw):
    # the decoder's position counts from its chunk; the message counts from the file start
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        ingest(path)
    offset = raw.index(b"\xff")
    assert str(err.value) == f"{path}: not UTF-8: invalid start byte at byte offset {offset}"


def test_ingest_reads_a_byte_order_mark_as_no_label(tmp_path):
    text = "a,b\n1,2\n3,5\n4,4\n"
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
    plain, bom = ingest(tmp_path / "plain.csv"), ingest(tmp_path / "bom.csv")
    assert bom.labels == plain.labels == ("a", "b")
    assert np.array_equal(bom.data, plain.data)


# labels as _CsvFields quotes them: a comma, a doubled quote, LF, CR and CRLF
QUOTED_LABELS = ("roi,a", 'roi "b"', "two\nlines", "cr\rhere", "crlf\r\nhere")


@pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
def test_ingest_reads_back_labels_holding_newlines(tmp_path, end):
    # a header cell holding a newline is read with untranslated line ends, where
    # universal newlines would turn its CR into LF
    field = _CsvFields()
    data = np.random.default_rng(14).standard_normal((40, len(QUOTED_LABELS)))
    lines = [",".join(field[label] for label in QUOTED_LABELS)]
    lines += [",".join(map(repr, row)) for row in data.tolist()]
    path = tmp_path / "quoted.csv"
    path.write_bytes((end.join(lines) + end).encode())
    labels, expected = ingest_oracle(path)
    subject = ingest(path)
    assert subject.labels == labels == QUOTED_LABELS
    assert np.array_equal(subject.data, expected)


@pytest.mark.parametrize("shape, index", [((4, 3), (2, 1)), ((5,), (3,)), ((2, 3, 4), (1, 0, 2))])
def test_first_nonfinite_finds_the_first_entry_in_c_order(shape, index):
    X = np.arange(float(np.prod(shape))).reshape(shape)
    assert first_nonfinite(X) is None
    X[index] = np.nan
    X.flat[-1] = np.inf  # a later entry
    assert first_nonfinite(X) == index


# --- Hurst exponent --------------------------------------------------------------

def test_hurst_white_noise_band():
    hits = 0
    for child in np.random.SeedSequence(1000).spawn(100):
        x = np.random.default_rng(child).standard_normal(4096)
        hits += 0.4 <= hurst_exponent(x) <= 0.6
    assert hits >= 90


def variance_slope_oracle(spec, n):
    """Theoretical R/S-scale slope: OLS of 0.5 log Var(S_w) on log w over the
    same dyadic window grid the estimator uses."""
    from lrdcov import autocovariance_sequence
    sizes = []
    w = 8
    while w <= n // 2:
        sizes.append(w)
        w *= 2
    gam = autocovariance_sequence(spec, sizes[-1])[:, 0, 0]
    logs = []
    for w in sizes:
        k = np.arange(1, w)
        var = w * gam[0] + 2.0 * ((w - k) * gam[1:w]).sum()
        logs.append(0.5 * math.log(var))
    design = np.column_stack([np.ones(len(sizes)), np.log(sizes)])
    return float(np.linalg.lstsq(design, np.asarray(logs), rcond=None)[0][1])


def test_hurst_long_memory_process():
    # The asymptotic index is (3 - 2 beta)/2 = 0.6, but at these window sizes
    # the exact partial-sum variance slope is still well above it; compare the
    # estimator against that finite-window oracle and require a clear
    # long-memory verdict.
    spec = toeplitz_spec(0.9, 1, truncation=4096 * 64)
    batch = simulate_multidimensional(
        SimulationPlan(spec, n=4096, seed=2024, N=4096 * 256, copies_requested=60))
    oracle = variance_slope_oracle(spec, 4096)
    estimates = np.array([hurst_exponent(batch.data[k, :, 0]) for k in range(60)])
    assert (estimates > 0.55).mean() >= 0.9
    assert abs(estimates.mean() - oracle) < 0.12


def test_hurst_affine_invariance():
    x = np.random.default_rng(3).standard_normal(512)
    base = hurst_exponent(x)
    assert hurst_exponent(5.0 * x - 37.0) == pytest.approx(base, rel=1e-12)


def test_hurst_errors():
    with pytest.raises(ValueError):
        hurst_exponent(np.zeros(16))
    with pytest.raises(ZeroVarianceError):
        hurst_exponent(np.full(128, 3.14))


# --- ACF significance -------------------------------------------------------------

def test_acf_white_noise_count_small():
    x = np.random.default_rng(12).standard_normal(10_000)
    result = acf_significance(x)
    assert isinstance(result, AcfSignificance)
    assert result.count < 15  # null expectation is about 0.05 * 80 = 4


def test_acf_periodic_series_flags():
    n = 1000
    x = np.sin(2 * math.pi * np.arange(n) / 25.0)
    result = acf_significance(x)
    assert result.flag
    assert result.count > 10


def test_acf_long_memory_prevalence():
    spec = toeplitz_spec(0.9, 1, truncation=100_000)
    batch = simulate_multidimensional(
        SimulationPlan(spec, n=1024, seed=55, N=1024 * 128, copies_requested=100))
    flags = sum(acf_significance(batch.data[k, :, 0]).flag for k in range(100))
    assert flags >= 80


def test_acf_lag_range_validated():
    x = np.random.default_rng(1).standard_normal(50)
    with pytest.raises(ValueError):
        acf_significance(x, 21, 100)  # lag_hi >= n
    with pytest.raises(ZeroVarianceError):
        acf_significance(np.zeros(200))


# --- diagnostics kernels against the per-column loops -------------------------

def rs_points(x):
    """(log w, log mean R/S) of one column at each window size with a varying window."""
    n = x.size
    sizes = []
    w = 8
    while w <= n // 2:
        sizes.append(w)
        w *= 2
    log_w, log_rs = [], []
    for w in sizes:
        blocks = x[:(n // w) * w].reshape(n // w, w)
        centered = blocks - blocks.mean(axis=1, keepdims=True)
        spread = centered.std(axis=1)
        cumdev = np.cumsum(centered, axis=1)
        ranges = cumdev.max(axis=1) - cumdev.min(axis=1)
        keep = spread > 0
        if keep.any():
            log_w.append(math.log(w))
            log_rs.append(math.log((ranges[keep] / spread[keep]).mean()))
    return log_w, log_rs


def hurst_oracle(x):
    """The per-column R/S loop the stacked kernel replaced."""
    log_w, log_rs = rs_points(x)
    design = np.column_stack([np.ones(len(log_w)), log_w])
    slope = np.linalg.lstsq(design, np.asarray(log_rs), rcond=None)[0][1]
    return min(max(slope, 0.0), 1.0)


def acf_count_oracle(x, lag_lo, lag_hi):
    """The per-lag dot-product loop the stacked kernel replaced."""
    centered = x - x.mean()
    denom = centered @ centered
    threshold = 1.96 / math.sqrt(x.size)
    return sum(abs(centered[:-h] @ centered[h:] / denom) > threshold
               for h in range(lag_lo, lag_hi + 1))


def diagnostics_panel(n, p, seed):
    """White noise, random walks and long memory side by side."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, p))
    X = noise + np.linspace(0.0, 0.3, p) * noise.cumsum(axis=0)
    if p > 2:  # zero-spread windows in column 2; every window size keeps some
        X[:n // 3, 2] = 1.5
    return X


@pytest.mark.parametrize("n, p", [(1000, 1), (2000, 5), (120, 6), (64, 3), (47, 2)])
def test_diagnostics_kernels_match_per_column_loops(n, p):
    X = diagnostics_panel(n, p, seed=n + p)
    if n == 120:
        # Column 3 varies only in its last 20 rows: no window of size 32 varies,
        # so that column fits its slope on sizes 8 and 16 alone.
        X[:100, 3] = -2.0
    subject = make_subject(X)
    lag_hi = min(100, n - 1)  # the clamp subject_diagnostics applies
    rows = subject_diagnostics(subject)
    for j, (label, hurst, count) in enumerate(rows):
        x = subject.data[:, j]
        assert label == subject.labels[j]
        assert hurst == pytest.approx(hurst_oracle(x), rel=1e-12, abs=0)
        assert hurst_exponent(x) == pytest.approx(hurst_oracle(x), rel=1e-12, abs=0)
        assert count == acf_count_oracle(x, 21, lag_hi)
        assert acf_significance(x, 21, lag_hi).count == count


def test_hurst_slopes_match_polyfit_per_column():
    # At n 250 the sizes 8, 16, 32 and 64 read the first 248, 240, 224 and 192
    # rows, so a column constant up to row 200 or 230 fits fewer sizes.
    X = np.random.default_rng(12).standard_normal((250, 5)).cumsum(axis=0)
    X[:200, 1] = 0.5
    X[:230, 3] = -1.0
    assert [len(rs_points(X[:, j])[0]) for j in range(5)] == [4, 3, 4, 2, 4]
    for j, slope in enumerate(_hurst_columns(X)):
        log_w, log_rs = rs_points(X[:, j])
        expected = min(max(np.polyfit(log_w, log_rs, 1)[0], 0.0), 1.0)
        assert slope == pytest.approx(expected, rel=1e-12, abs=0)
    X[:245, 2] = 3.0  # only size 8 has a varying window
    with pytest.raises(ZeroVarianceError, match="not enough varying") as info:
        _hurst_columns(X)
    assert info.value.column == 2


@pytest.mark.parametrize("demean", [False, True], ids=["raw", "demeaned"])
def test_hurst_constant_stretch_has_no_varying_window(demean):
    # Summed row after row, equal terms round (8 x 0.1 reads 0.7999999999999999),
    # so a constant window's mean misses its value by an ulp and its spread reads
    # about 1e-17: judged by its spread, it would count as varying, with an R/S
    # of about w - 1.
    X = np.random.default_rng(6).standard_normal((2000, 4))
    X[:1024] = [0.1, 0.3, 0.7, 1 / 3]
    if demean:
        X -= X.mean(axis=0)
    for j, hurst in enumerate(_hurst_columns(X)):
        assert hurst == pytest.approx(hurst_oracle(X[:, j]), rel=1e-12, abs=0)


def mixed_panel(n, seed):
    """White noise, a random walk, long memory and a constant stretch side by side."""
    rng = np.random.default_rng(seed)
    spec = toeplitz_spec(0.9, 1, truncation=64 * n)
    long_memory = simulate_multidimensional(
        SimulationPlan(spec, n=n, seed=seed, N=64 * n, copies_requested=1)).data[0, :, 0]
    stretch = rng.standard_normal(n)
    stretch[:n // 2] = 0.1
    return np.column_stack([rng.standard_normal(n), rng.standard_normal(n).cumsum(),
                            long_memory, stretch])


@pytest.mark.parametrize("n", [120, 2000, 4096])
def test_stacked_kernels_are_column_independent(n):
    # 120 runs every R/S size time-major, 2000 its two largest window-major; 4096
    # fits nine window sizes, where a sum over sizes could change order with p
    X = mixed_panel(n, seed=n)
    hurst, counts = _hurst_columns(X), _acf_counts(X, 21, 100)
    for j in range(X.shape[1]):
        assert hurst[j] == hurst_exponent(X[:, j])
        assert counts[j] == acf_significance(X[:, j], 21, 100).count


@pytest.mark.parametrize("w", [8, 16])
def test_row_adds_are_the_running_sum_of_cumsum(w):
    blocks = np.random.default_rng(w).standard_normal((w, 1250))
    varies, ranges, spread = _time_major_rs(blocks.copy())
    running = np.cumsum(blocks - blocks.mean(axis=0), axis=0)
    assert np.array_equal(ranges, running.max(axis=0) - running.min(axis=0))
    assert varies.all()


# a block taller than it is wide is folded before reducing: (128, 75) is the
# largest time-major R/S block at n 2000, p 5
@pytest.mark.parametrize("w, k", [(512, 15), (256, 35), (128, 75), (64, 155), (2048, 1), (8, 3)])
def test_column_extremes_match_plain_reductions(w, k):
    blocks = np.random.default_rng(w + k).standard_normal((w, k))
    high, low = _column_extremes(blocks)
    assert np.array_equal(high, blocks.max(axis=0))
    assert np.array_equal(low, blocks.min(axis=0))


# n + lag_hi is already 2^a 3^b at 33 + 3, 47 + 1, 64 + 32, 101 + 7, 120 + 96, 2000 + 187
@pytest.mark.parametrize("n, lags", [(33, [(21, 32), (1, 3)]), (47, [(21, 46), (1, 1)]),
                                     (64, [(21, 63), (1, 32)]), (101, [(21, 100), (7, 7)]),
                                     (120, [(21, 100), (1, 96)]),
                                     (2000, [(21, 100), (1, 187)])])
def test_acf_counts_match_per_lag_loop(n, lags):
    X = mixed_panel(n, seed=n)
    for lag_lo, lag_hi in lags:
        counts = _acf_counts(X, lag_lo, lag_hi)
        assert counts.tolist() == [acf_count_oracle(X[:, j], lag_lo, lag_hi)
                                   for j in range(X.shape[1])]


def test_fft_length_is_the_smallest_two_three_smooth_length():
    smooth = sorted(2**a * 3**b for a in range(14) for b in range(9))
    assert [_fft_length(m) for m in range(1, 6000)] == [
        next(s for s in smooth if s >= m) for m in range(1, 6000)]


def test_diagnostics_constant_column_names_subject_and_column():
    X = np.random.default_rng(4).standard_normal((200, 3))
    X[:, 1] = 7.0
    subject = SubjectSeries("subj07", X - X.mean(axis=0), ("left", "mid", "right"))
    with pytest.raises(ZeroVarianceError, match="subj07.*'mid'"):
        subject_diagnostics(subject)


@pytest.mark.parametrize("n, lag_lo, message", [
    (20, 21, r"series too short for R/S analysis \(n = 20 < 32\)"),
    (200, 0, r"lag range \[0, 100\] invalid for n = 200"),
    (40, 50, r"lag range \[50, 39\] invalid for n = 40")])
def test_diagnostics_value_errors_name_the_subject(n, lag_lo, message):
    X = np.random.default_rng(4).standard_normal((n, 3))
    subject = SubjectSeries("subj07", X - X.mean(axis=0), ("left", "mid", "right"))
    with pytest.raises(ValueError, match=rf"^subject 'subj07': {message}$"):
        subject_diagnostics(subject, lag_lo=lag_lo)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_diagnostics_name_the_row_and_column_of_a_non_finite_value(bad):
    X = np.random.default_rng(4).standard_normal((200, 3))
    X[57, 1] = bad
    subject = SubjectSeries("subj07", X, ("left", "mid", "right"))
    where = re.escape(f"row 57, column 'mid': non-finite value {bad}")
    with pytest.raises(ValueError, match=f"^subject 'subj07': {where}$"):
        subject_diagnostics(subject)
    for diagnostic in (hurst_exponent, acf_significance):
        with pytest.raises(ValueError, match=re.escape(f"row 57, column 0: non-finite "
                                                       f"value {bad}")):
            diagnostic(X[:, 1])


# --- subject graphs ---------------------------------------------------------------

def test_subject_graph_null_false_edges():
    false_counts = {}
    runs = 100
    for child in np.random.SeedSequence(77).spawn(runs):
        X = np.random.default_rng(child).standard_normal((1000, 5))
        edges = subject_graph(make_subject(X, LABELS5), alpha=0.05).edges
        for pair in edges:
            false_counts[pair] = false_counts.get(pair, 0) + 1
    worst = max(false_counts.values()) / runs if false_counts else 0.0
    assert worst <= 0.15


def test_subject_graph_structure_properties():
    X = np.random.default_rng(5).standard_normal((500, 4))
    edge_set = subject_graph(make_subject(X), alpha=0.5)
    for (a, b), stat in edge_set.edges.items():
        assert a != b
        assert (a, b) == tuple(sorted((a, b)))
        assert stat.score >= 0.0
        assert stat.lower is not None and stat.upper is not None
        assert not (stat.lower <= 0.0 <= stat.upper)


def edges_oracle(subject, alpha):
    """The double loop over j < k that subject_graph's edge mask replaced."""
    data = subject.data
    n, p = data.shape
    omega_hat = sample_precision(sample_covariance(data))
    dist = precision_blocks(data, resolve_block_length(DefaultBlocks(), n, p),
                            omega=omega_hat)
    half_width = quantile(dist, 1.0 - alpha) / math.sqrt(n)
    edges = {}
    for j in range(p):
        for k in range(j + 1, p):
            entry = omega_hat[j, k]
            if abs(entry) > half_width:
                pair = tuple(sorted((subject.labels[j], subject.labels[k])))
                edges[pair] = EdgeStat(1, abs(entry) - half_width,
                                       entry - half_width, entry + half_width)
    return edges


def test_subject_graph_edges_match_double_loop():
    X = np.random.default_rng(11).standard_normal((400, 8))
    X[:, 1:] += 0.6 * X[:, :-1]  # a chain of neighbour couplings
    labels = ("h", "b", "g", "a", "f", "c", "e", "d")  # sorting reorders pairs
    subject = make_subject(X, labels)
    for alpha in (0.05, 0.5, 0.99):
        got = subject_graph(subject, alpha).edges
        want = edges_oracle(subject, alpha)
        assert got
        assert list(got.items()) == list(want.items())


def test_subject_graph_requires_low_dimension():
    X = np.random.default_rng(6).standard_normal((4, 6))
    with pytest.raises(HighDimensionError, match=r"^subject 'test': p = 6 >= n = 4$"):
        subject_graph(make_subject(X), alpha=0.1)


def test_subject_graph_names_the_subject_of_a_short_series():
    X = np.random.default_rng(6).standard_normal((7, 2))
    with pytest.raises(ValueError, match=r"^subject 's1': block-length rule requires n >= 8"):
        subject_graph(SubjectSeries("s1", X, ("a", "b")), alpha=0.1)


def test_subject_graph_names_the_subject_of_a_singular_covariance():
    X = np.random.default_rng(6).standard_normal((100, 3))
    X[:, 2] = X[:, 0]
    with pytest.raises(NearSingularError) as plain:
        sample_precision(sample_covariance(X))
    with pytest.raises(NearSingularError, match=r"^subject 's1': smallest eigenvalue") as named:
        subject_graph(SubjectSeries("s1", X, ("a", "b", "c")), alpha=0.1)
    assert named.value.condition_estimate == plain.value.condition_estimate
    assert named.value.smallest_eigenvalue == plain.value.smallest_eigenvalue


def test_subject_graph_names_the_subject_row_and_column_of_a_nan():
    X = np.random.default_rng(6).standard_normal((100, 3))
    X[40, 1] = np.nan
    with pytest.raises(ValueError, match=r"^subject 's1': row 40, column 'b': non-finite"):
        subject_graph(SubjectSeries("s1", X, ("a", "b", "c")), alpha=0.1)


def test_subject_graph_infinite_quantile_gives_empty(monkeypatch):
    subject = make_subject(np.random.default_rng(8).standard_normal((100, 3)))
    # subject_graph takes its half width from bootstrap.confidence_region
    import lrdcov.bootstrap as B
    monkeypatch.setattr(B, "quantile", lambda dist, level: math.inf)
    edge_set = subject_graph(subject, alpha=0.1, block_rule=FixedBlocks(20))
    assert edge_set.edges == {}


def test_banded_truth_band_recovery():
    spec = banded_spec(2.0, 5, bandwidth=1)
    batch = simulate_multidimensional(
        SimulationPlan(spec, n=2000, seed=31, copies_requested=100))
    band = {tuple(sorted((LABELS5[j], LABELS5[j + 1]))) for j in range(4)}
    hits = 0
    for run in range(10):
        graphs = [subject_graph(
            SubjectSeries(f"r{run}s{k}", batch.data[run * 10 + k], LABELS5),
            alpha=0.1) for k in range(10)]
        agg = aggregate_group(graphs, sparsity=0.4)  # keeps ceil(0.4 * 10) = 4 edges
        hits += set(agg.edges) == band
    assert hits >= 8


# --- aggregation ------------------------------------------------------------------

def test_aggregate_single_subject_full_sparsity():
    edges = {("a", "b"): EdgeStat(1, 0.5), ("b", "c"): EdgeStat(1, 0.2)}
    agg = aggregate_group([EdgeSet(LABELS5, dict(edges))], sparsity=1.0)
    assert set(agg.edges) == set(edges)
    assert all(agg.edges[p].count == 1 for p in edges)


def test_aggregate_tie_breaking():
    a = EdgeSet(LABELS5, {("a", "b"): EdgeStat(1, 0.1)})
    b = EdgeSet(LABELS5, {("a", "c"): EdgeStat(1, 0.4)})
    agg = aggregate_group([a, b], sparsity=0.1)  # cap = ceil(0.1 * 10) = 1
    assert set(agg.edges) == {("a", "c")}  # equal counts, larger score wins
    c = EdgeSet(LABELS5, {("a", "d"): EdgeStat(1, 0.4)})
    agg = aggregate_group([b, c], sparsity=0.1)
    assert set(agg.edges) == {("a", "c")}  # equal counts and scores: lexicographic


def test_aggregate_size_cap_exact():
    rng = np.random.default_rng(9)
    sets = []
    for _ in range(6):
        edges = {}
        for j in range(5):
            for k in range(j + 1, 5):
                if rng.random() < 0.7:
                    edges[(LABELS5[j], LABELS5[k])] = EdgeStat(1, float(rng.random()))
        sets.append(EdgeSet(LABELS5, edges))
    for sparsity in (0.1, 0.3, 0.5, 1.0):
        agg = aggregate_group(sets, sparsity)
        assert len(agg.edges) <= math.ceil(sparsity * 10 - 1e-9)
        assert all(stat.count <= 6 for stat in agg.edges.values())


def test_aggregate_label_mismatch():
    a = EdgeSet(LABELS5, {})
    b = EdgeSet(tuple("abcdf"), {})
    with pytest.raises(ValueError):
        aggregate_group([a, b], sparsity=0.5)
    with pytest.raises(ValueError):
        aggregate_group([], sparsity=0.5)
    with pytest.raises(ValueError):
        aggregate_group([a], sparsity=0.0)


# --- outputs ---------------------------------------------------------------------

def test_edge_and_diagnostics_csv(tmp_path):
    edges = EdgeSet(LABELS5, {("a", "b"): EdgeStat(3, 1.25),
                              ("b", "c"): EdgeStat(5, 0.5)})
    epath = tmp_path / "edges.csv"
    write_edges_csv(edges, epath)
    lines = epath.read_text().splitlines()
    assert lines[0] == "source,target,count,score"
    assert lines[1].startswith("b,c,5,")  # higher count first
    assert lines[2].startswith("a,b,3,")

    subject = make_subject(np.random.default_rng(10).standard_normal((256, 2)),
                           ("x", "y"))
    rows = subject_diagnostics(subject, lag_lo=5, lag_hi=50)
    assert [r[0] for r in rows] == ["x", "y"]
    dpath = tmp_path / "diag.csv"
    write_diagnostics_csv([(subject.id, rows)], dpath)
    lines = dpath.read_text().splitlines()
    assert lines[0] == "subject,column,hurst,acf_count"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "test"


def test_csv_fields_are_quoted_as_the_default_csv_writer_quotes_them():
    field = _CsvFields()
    for text in ("roi_b", "", " padded ", "a,b", 'say "hi"', "two\nlines", "cr\rhere"):
        buf = io.StringIO()
        csv.writer(buf).writerow([text, "x"])
        assert buf.getvalue() == f"{field[text]},x\r\n", text


def test_outputs_quote_labels_and_ids_that_ingest_accepts(tmp_path):
    # a subject id with a comma and labels with a comma and a quote, read back
    # field for field; labels that need no quoting keep their bytes
    labels = ("roi,a", "roi_b", 'roi "c"')
    z = np.random.default_rng(12).standard_normal((400, 3))
    data = np.column_stack([z[:, 0], z[:, 0] + 0.5 * z[:, 1], z[:, 1] + 0.5 * z[:, 2]])
    path = tmp_path / "s,1.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([labels, *data.tolist()])
    assert path.read_text().splitlines()[0] == '"roi,a",roi_b,"roi ""c"""'
    subject = ingest(path)
    assert (subject.id, subject.labels) == ("s,1", labels)

    group = aggregate_group([subject_graph(subject, 0.1)], sparsity=1.0)
    write_edges_csv(group, tmp_path / "edges.csv")
    with open(tmp_path / "edges.csv", newline="") as fh:
        edges = list(csv.reader(fh))
    assert edges[0] == ["source", "target", "count", "score"]
    assert [tuple(row[:2]) for row in edges[1:]] == [pair for pair, _ in _ranked(group.edges)]
    assert {label for row in edges[1:] for label in row[:2]} == set(labels)
    assert all(len(row) == 4 for row in edges)

    rows = subject_diagnostics(subject)
    write_diagnostics_csv([(subject.id, rows), ("plain", rows)], tmp_path / "diag.csv")
    with open(tmp_path / "diag.csv", newline="") as fh:
        diagnostics = list(csv.reader(fh))
    assert diagnostics[1:] == [[subject_id, label, f"{hurst:.10g}", str(count)]
                               for subject_id in ("s,1", "plain")
                               for label, hurst, count in rows]
    lines = (tmp_path / "diag.csv").read_text().splitlines()
    assert lines[1].startswith('"s,1","roi,a",') and lines[5].startswith("plain,roi_b,")
