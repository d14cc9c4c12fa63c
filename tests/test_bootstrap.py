import math
import tracemalloc

import numpy as np
import pytest

from lrdcov import (BootstrapDistribution, DefaultBlocks, FixedBlocks,
                    TheoreticalBlocks, confidence_region, covariance_blocks,
                    default_block_length, precision_blocks, quantile,
                    resolve_block_length, theoretical_block_length,
                    theoretical_rates)
from lrdcov import bootstrap
from lrdcov.bootstrap import REFRESH_INTERVAL, _window_maxima
from lrdcov.errors import OutOfRegimeError


def naive_blocks(X, l, omega=None):
    """Per-window recomputation straight from the definition."""
    n, p = X.shape
    sigma_hat = X.T @ X / n
    vals = []
    for end in range(l, n + 1):
        window = X[end - l:end]
        dev = sum(np.outer(row, row) for row in window) - l * sigma_hat
        if omega is not None:
            dev = omega @ dev @ omega
        vals.append(np.abs(dev).max() / math.sqrt(l))
    return np.sort(np.array(vals))


def chunked_reference(X, l):
    """The untiled kernel: one cumsum over each whole refresh chunk."""
    n, p = X.shape
    target = l * (X.T @ X / n)
    count = n - l + 1
    vals = np.empty(count)
    chunk = min(REFRESH_INTERVAL, count)
    windows, leaving = np.empty((chunk, p, p)), np.empty((chunk - 1, p, p))
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        block, steps = windows[:stop - start], windows[1:stop - start]
        first = X[start:start + l]
        block[0] = first.T @ first
        enter, leave = X[start + l:stop + l - 1], X[start:stop - 1]
        np.multiply(enter[:, :, None], enter[:, None, :], out=steps)
        steps -= np.multiply(leave[:, :, None], leave[:, None, :], out=leaving[:len(leave)])
        np.cumsum(steps, axis=0, out=steps)
        steps += block[0]
        block -= target
        vals[start:stop] = np.abs(block, out=block).max(axis=(1, 2))
    return vals / math.sqrt(l)


def test_full_window_cancels():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    dist = covariance_blocks(X, 50)
    assert len(dist) == 1
    assert dist.values[0] <= 1e-12


def test_hand_computed_scalar_case():
    X = np.array([[1.0], [0.0]])
    dist = covariance_blocks(X, 1)
    assert np.allclose(dist.values, [0.5, 0.5])
    assert dist.l == 1
    assert dist.kind == "covariance"


def test_block_length_out_of_range():
    X = np.random.default_rng(1).standard_normal((20, 2))
    with pytest.raises(ValueError):
        covariance_blocks(X, 0)
    with pytest.raises(ValueError):
        covariance_blocks(X, 21)


def test_rejects_input_without_columns():
    with pytest.raises(ValueError):
        covariance_blocks(np.empty((20, 0)), 5)
    with pytest.raises(ValueError):
        covariance_blocks(np.ones(20), 5)


@pytest.mark.parametrize("seed, size", [
    (1, None), (2, None), (3, None),  # n, p and l drawn from the seed
    (25, (400, 20, 30)),
    (25, (200, 80, 30)),   # p > 64: tiles of 10 windows
    (25, (300, 150, 30)),  # 271 windows in one refresh chunk, tiles of 2
], ids=["1", "2", "3", "400-20-30", "200-80-30", "300-150-30"])
def test_sliding_window_matches_naive(seed, size):
    rng = np.random.default_rng(seed)
    if size is None:
        n = int(rng.integers(50, 300))
        p = int(rng.integers(1, 6))
        l = int(rng.integers(2, n // 2))
    else:
        n, p, l = size
    X = rng.standard_normal((n, p))
    dist = covariance_blocks(X, l)
    oracle = naive_blocks(X, l)
    assert len(dist) == n - l + 1
    assert np.all(dist.values >= 0)
    assert np.allclose(dist.values, oracle, rtol=1e-9)
    from lrdcov import sample_covariance, sample_precision
    omega = sample_precision(sample_covariance(X))
    assert np.allclose(precision_blocks(X, l).values, naive_blocks(X, l, omega=omega),
                       rtol=1e-9)


def test_precision_matches_naive():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((200, 3))
    from lrdcov import sample_covariance, sample_precision
    omega = sample_precision(sample_covariance(X))
    dist = precision_blocks(X, 34)
    oracle = naive_blocks(X, 34, omega=omega)
    assert np.allclose(dist.values, oracle, rtol=1e-9)
    assert dist.kind == "precision"


def test_precision_equals_covariance_for_identity_gram():
    # rows chosen so the sample covariance is exactly the identity
    X = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
    cov = covariance_blocks(X, 2)
    prec = precision_blocks(X, 2)
    assert np.array_equal(cov.values, prec.values)


def test_precision_full_window_zero():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 2))
    dist = precision_blocks(X, 40)
    assert len(dist) == 1
    assert dist.values[0] <= 1e-10


def test_windows_match_naive_across_refresh_boundary():
    rng = np.random.default_rng(21)
    n, p, l = 1100, 20, 60
    assert n - l + 1 > REFRESH_INTERVAL
    X = rng.standard_normal((n, p)) @ (np.eye(p) + 0.4 * np.eye(p, k=1))
    from lrdcov import sample_covariance, sample_precision
    omega = sample_precision(sample_covariance(X))
    assert np.allclose(covariance_blocks(X, l).values, naive_blocks(X, l), rtol=1e-9)
    assert np.allclose(precision_blocks(X, l).values,
                       naive_blocks(X, l, omega=omega), rtol=1e-9)


def test_precision_with_supplied_omega_matches_naive():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((180, 6))
    root = rng.standard_normal((6, 6))
    omega = root @ root.T + 6.0 * np.eye(6)  # SPD, unrelated to Sigma_hat
    dist = precision_blocks(X, 25, omega=omega)
    assert np.allclose(dist.values, naive_blocks(X, 25, omega=omega), rtol=1e-9)


def test_precision_rejects_nonsymmetric_omega():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((60, 3))
    omega = np.eye(3)
    omega[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        precision_blocks(X, 10, omega=omega)
    with pytest.raises(ValueError):
        precision_blocks(X, 10, omega=np.eye(4))


def test_window_memory_bounded_by_chunk():
    # Buffers hold one refresh chunk's rows and one block of triangle entries;
    # only the per-window outputs (a few doubles each) may grow with n.
    rng = np.random.default_rng(24)
    peaks = {}
    for n in (2048, 8192):
        X = rng.standard_normal((n, 8))
        tracemalloc.start()
        covariance_blocks(X, 64)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[8192] - peaks[2048] <= 24 * (8192 - 2048)


@pytest.mark.parametrize("n, p, l", [
    (1100, 20, 60),    # 1041 windows: a refresh at 1024, blocks of 60 entries
    (1100, 3, 60),     # one block per refresh chunk
    (300, 50, 17),     # blocks of 218 entries, last block of 185
    (200, 1, 1), (200, 1, 200), (40, 1, 7),
    (60, 4, 1), (60, 4, 60), (80, 30, 80), (80, 30, 1),
])
def test_tiled_kernel_matches_chunked_reference(n, p, l):
    X = np.random.default_rng(n + p + l).standard_normal((n, p))
    assert np.array_equal(_window_maxima(X, l), chunked_reference(X, l))


def test_window_memory_bounded_by_tiles():
    # n 120, p 50: 97 windows in one refresh chunk; blocks of 546 of the 1275
    # triangle entries hold 120 products and 96 sums each (0.94 MB) instead of
    # all 1275 entries (2.2 MB), within the bound of two 2**16-double buffers
    X = np.random.default_rng(28).standard_normal((120, 50))
    tile_bytes = 2 * (bootstrap._TILE_DOUBLES // 2500) * 2500 * 8
    tracemalloc.start()
    covariance_blocks(X, 24)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= tile_bytes + 2**18


@pytest.mark.parametrize("p, entries", [
    (3, 1), (3, 2), (3, 5), (5, 1), (5, 2), (5, 14),
    (20, 1), (20, 2), (20, 21), (20, 209), (50, 1), (50, 2), (50, 51), (50, 1274),
])
def test_any_entry_block_matches_chunked_reference(monkeypatch, p, entries):
    # blocks of 1, 2, one row's length + 1 and q - 1 of the q = p(p + 1)/2
    # triangle entries, most of them starting mid-row, across a refresh
    # boundary: rows of 60 + 1023 products each
    l = 60
    monkeypatch.setattr(bootstrap, "_TILE_DOUBLES", entries * (l + REFRESH_INTERVAL - 1))
    X = np.random.default_rng(30 + p).standard_normal((1100, p))
    assert np.array_equal(_window_maxima(X, l), chunked_reference(X, l))


@pytest.mark.parametrize("case", ["last-chunk-one-window", "fortran", "strided-columns"])
def test_entry_major_matches_chunked_reference(case):
    # the triangle holds every maximum only because the window Gram and the
    # target are exactly symmetric, also for inputs BLAS cannot take as they are
    rng = np.random.default_rng(32)
    l = 60
    X = {"last-chunk-one-window": lambda: rng.standard_normal((REFRESH_INTERVAL + l, 5)),
         "fortran": lambda: np.asfortranarray(rng.standard_normal((1100, 5))),
         "strided-columns": lambda: rng.standard_normal((1100, 10))[:, ::2]}[case]()
    assert np.array_equal(_window_maxima(X, l), chunked_reference(X, l))


def test_entry_major_memory_bounded_by_chunk():
    # n 8192, p 5, l 2048: 15 triangle entries and 1023 windows after each
    # refresh. The buffers hold the 1023 leaving and 1023 entering rows
    # transposed, their products and the running sums; a transpose of more
    # than one chunk's rows (5 x 8192 doubles for the whole series) would not
    # fit. A ufunc over strided rows may add two iteration buffers of 8192 doubles.
    X = np.random.default_rng(33).standard_normal((8192, 5))
    buffers = 8 * ((5 + 15) * 2046 + 15 * 1023)
    outputs = 2 * 8 * (8192 - 2048 + 1)  # the maxima and their sorted copy
    tracemalloc.start()
    covariance_blocks(X, 2048)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= buffers + outputs + 2**17


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_blocks_reject_non_finite_cell(bad):
    X = np.random.default_rng(29).standard_normal((120, 3))
    X[50, 1] = bad
    X[70, 0] = bad
    for blocks in (covariance_blocks, precision_blocks):
        with pytest.raises(ValueError, match="row 50, column 1"):
            blocks(X, 24)
    with pytest.raises(ValueError, match="row 50, column 1"):
        precision_blocks(X, 24, omega=np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_precision_rejects_non_finite_omega(bad):
    X = np.random.default_rng(30).standard_normal((60, 3))
    omega = np.eye(3)
    omega[1, 2] = bad
    with pytest.raises(ValueError, match="finite symmetric"):
        precision_blocks(X, 10, omega=omega)
    omega[2, 1] = bad  # symmetric, still not finite
    with pytest.raises(ValueError, match="finite symmetric"):
        precision_blocks(X, 10, omega=omega)


@pytest.mark.parametrize("n", [0, -5, float("nan")])
def test_confidence_region_rejects_non_positive_n(n):
    dist = BootstrapDistribution(np.linspace(0.0, 1.0, 10), l=2, kind="covariance")
    with pytest.raises(ValueError, match="n = "):
        confidence_region(np.zeros((2, 2)), dist, n, alpha=0.1)


def test_quantile_examples():
    dist = BootstrapDistribution(np.arange(1.0, 11.0), l=4, kind="covariance")
    assert quantile(dist, 0.9) == 9.0
    dist4 = BootstrapDistribution(np.array([1.0, 2.0, 3.0, 4.0]), l=2, kind="covariance")
    assert quantile(dist4, 0.5) == 2.0
    with pytest.raises(ValueError):
        quantile(dist4, 0.0)
    with pytest.raises(ValueError):
        quantile(dist4, 1.0)
    with pytest.raises(ValueError, match="empty bootstrap distribution"):
        quantile(BootstrapDistribution(np.array([]), l=2, kind="covariance"), 0.5)


def test_quantile_scan_oracle_and_semantics():
    rng = np.random.default_rng(8)
    for _ in range(100):
        values = np.sort(rng.standard_normal(int(rng.integers(1, 60))))
        dist = BootstrapDistribution(values, l=3, kind="covariance")
        level = float(rng.uniform(0.01, 0.99))
        got = quantile(dist, level)
        # scan oracle: smallest value whose rank / N reaches the level
        count = values.size
        oracle = next(values[i] for i in range(count) if (i + 1) / count >= level)
        assert got == oracle
        ecdf_at = np.searchsorted(values, got, side="right") / count
        assert ecdf_at >= level
        below = values[values < got]
        if below.size:
            assert np.searchsorted(values, below[-1], side="right") / count < level


def test_quantile_monotone_and_member():
    values = np.sort(np.random.default_rng(13).standard_normal(37))
    dist = BootstrapDistribution(values, l=5, kind="covariance")
    levels = np.linspace(0.05, 0.95, 19)
    quants = [quantile(dist, lv) for lv in levels]
    assert all(a <= b for a, b in zip(quants, quants[1:]))
    assert all(q in values for q in quants)


def test_confidence_region_trivial():
    center = np.zeros((2, 2))
    values = np.sort(np.abs(np.random.default_rng(3).standard_normal(25)))
    dist = BootstrapDistribution(values, l=4, kind="covariance")
    n = 100
    region = confidence_region(center, dist, n, alpha=1e-9)
    assert region.half_width == pytest.approx(values[-1] / math.sqrt(n))
    boundary = center + region.half_width
    assert region.contains(boundary)
    assert not region.contains(boundary + 1e-9)
    with pytest.raises(ValueError, match="shape mismatch with the region center"):
        region.contains(np.zeros((3, 3)))

    zeros = BootstrapDistribution(np.zeros(10), l=2, kind="covariance")
    degenerate = confidence_region(center, zeros, n, alpha=0.1)
    assert degenerate.contains(center)
    assert not degenerate.contains(center + 1e-15)


def test_contains_monotone_in_half_width():
    center = np.zeros((2, 2))
    probe = center + 0.3
    values = np.linspace(0.0, 5.0, 50)
    dist = BootstrapDistribution(values, l=4, kind="covariance")
    verdicts = [confidence_region(center, dist, 1, alpha).contains(probe)
                for alpha in (0.9, 0.5, 0.1, 0.01)]
    # half width grows as alpha falls, so containment can only switch on
    assert verdicts == sorted(verdicts)


def test_default_block_length():
    assert default_block_length(1000) == 100
    assert default_block_length(200) == 34
    assert default_block_length(8) == 4
    assert default_block_length(2000) == 158
    with pytest.raises(ValueError):
        default_block_length(7)


def test_theoretical_block_length_formula():
    n, p, beta, eps = 10_000, 10, 1.0, 0.5
    rates = theoretical_rates(beta, n, p, eps)
    oracle = min(max(round(n ** rates["phi"] * math.log(p) ** rates["psi_exp"]), 2), n)
    assert theoretical_block_length(n, p, beta, eps) == oracle
    # unclamped regime: short memory keeps l well below n
    rates2 = theoretical_rates(2.0, n, p, eps)
    oracle2 = round(n ** rates2["phi"] * math.log(p) ** rates2["psi_exp"])
    assert 2 < oracle2 < n
    assert theoretical_block_length(n, p, 2.0, eps) == oracle2
    assert theoretical_block_length(n, p, beta, eps, scale=1e-9) == 2
    assert theoretical_block_length(n, p, beta, eps, scale=1e9) == n
    with pytest.raises(OutOfRegimeError):
        theoretical_block_length(n, p, 0.6, eps)
    with pytest.raises(ValueError):
        theoretical_block_length(n, p, beta, eps, scale=0.0)



@pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf])
def test_theoretical_rule_needs_a_finite_scale(scale):
    # round() of an infinite length raised OverflowError, which no caller catches
    with pytest.raises(ValueError, match=f"scale in \\(0, inf\\), got 0.5 and {scale}"):
        TheoreticalBlocks(0.5, scale)
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        theoretical_block_length(2000, 5, 2.0, 0.5, scale)


def test_theoretical_block_length_clamps_an_overflowing_product():
    # a finite scale whose product passes the float range is clamped to n
    assert theoretical_block_length(2000, 5, 2.0, 0.5, 1e308) == 2000

def test_block_length_exponent_limits():
    # epsilon -> 0 and very short memory: phi -> 2/3 (the trivial rule's low end)
    rates = theoretical_rates((1e8 + 1) / 2, 1000, 10, 1e-9)
    assert rates["phi"] == pytest.approx(2 / 3, rel=1e-6)
    # beta_tilde -> 0+: phi -> 1
    rates = theoretical_rates(0.7500001, 1000, 10, 1e-9)
    assert rates["phi"] == pytest.approx(1.0, rel=1e-5)


def test_resolve_block_length_rules():
    assert resolve_block_length(DefaultBlocks(), 1000) == 100
    assert resolve_block_length(FixedBlocks(17), 1000) == 17
    with pytest.raises(ValueError):
        resolve_block_length(FixedBlocks(0), 1000)
    got = resolve_block_length(TheoreticalBlocks(0.5), 10_000, 10, beta=1.0)
    assert got == theoretical_block_length(10_000, 10, 1.0, 0.5)
    with pytest.raises(OutOfRegimeError):
        resolve_block_length(TheoreticalBlocks(0.5), 10_000, 10)
    for beta in (math.nan, math.inf):  # named, not left to fail in int()
        with pytest.raises(ValueError, match=f"finite beta .*, got {beta} and 0.5"):
            resolve_block_length(TheoreticalBlocks(0.5), 10_000, 10, beta=beta)
    with pytest.raises(TypeError, match="unknown block rule 'fixed:8'"):
        resolve_block_length("fixed:8", 1000)
