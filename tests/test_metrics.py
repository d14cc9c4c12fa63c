import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdcov import (distance_report, ecdf_points, kolmogorov_distance, qq_pairs,
                    wasserstein1)


def ks_scan_oracle(a, b):
    """Evaluate both ECDFs on a fine grid spanning the data."""
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    grid = np.concatenate([a, b])
    best = 0.0
    for u in grid:
        fa = (a <= u).mean()
        fb = (b <= u).mean()
        best = max(best, abs(fa - fb))
    return best


def test_ks_trivial_cases():
    assert kolmogorov_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert kolmogorov_distance([0, 1], [10, 11]) == 1.0
    assert kolmogorov_distance([1, 2, 3], [2, 3, 4]) == pytest.approx(1 / 3)


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        kolmogorov_distance([], [1.0])


def test_ks_matches_scan_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal(int(rng.integers(1, 40)))
        b = rng.standard_normal(int(rng.integers(1, 40))) + rng.uniform(-1, 1)
        assert kolmogorov_distance(a, b) == pytest.approx(ks_scan_oracle(a, b), abs=1e-12)


def test_ks_handles_ties():
    a = [0.0, 0.0, 1.0]
    b = [0.0, 1.0, 1.0]
    # at 0: |2/3 - 1/3| = 1/3; at 1: 0
    assert kolmogorov_distance(a, b) == pytest.approx(1 / 3)


def test_ks_invariances():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(30)
    b = rng.standard_normal(45)
    d = kolmogorov_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert kolmogorov_distance(b, a) == d
    assert kolmogorov_distance(np.exp(a), np.exp(b)) == pytest.approx(d, abs=1e-12)


def test_ks_equal_sizes_rank_displacement():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(25)
    b = rng.standard_normal(25)
    d = kolmogorov_distance(a, b)
    # classical equal-size statistic: max rank displacement / n over merged order
    merged = np.concatenate([np.sort(a), np.sort(b)])
    labels = np.concatenate([np.ones(25), -np.ones(25)])
    order = np.argsort(merged, kind="stable")
    walk = np.cumsum(labels[order])
    assert d == pytest.approx(np.abs(walk).max() / 25)


def test_w1_trivial_cases():
    assert wasserstein1([1, 2, 3], [1, 2, 3]) == 0.0
    assert wasserstein1([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0)
    assert wasserstein1([0, 0], [0, 2]) == pytest.approx(1.0)


def test_w1_translation_and_scaling():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(20)
    b = rng.standard_normal(20)
    w = wasserstein1(a, b)
    assert wasserstein1(b, a) == pytest.approx(w)
    assert wasserstein1(a + 3.0, b + 3.0) == pytest.approx(w, rel=1e-12)
    assert wasserstein1(2.5 * a, 2.5 * b) == pytest.approx(2.5 * w, rel=1e-12)


def test_w1_unequal_sizes_grid_approximation():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(64)
    b = rng.standard_normal(32) + 1.0
    # shifting both samples leaves the value unchanged
    w = wasserstein1(a, b)
    assert wasserstein1(a - 2.0, b - 2.0) == pytest.approx(w, rel=1e-12)
    # a shift of 5 between unequal samples of one law costs at least 4
    assert wasserstein1(a, a[:32] + 5.0) >= 4.0


def w1_lcm_oracle(a, b):
    """Repeat each sample up to lcm(n1, n2) values, then pair order statistics."""
    size = math.lcm(len(a), len(b))
    return np.abs(np.repeat(np.sort(a), size // len(a))
                  - np.repeat(np.sort(b), size // len(b))).mean()


def ks_merged_oracle(a, b):
    """Largest gap of both ECDFs on the merged support: the bits KS must keep."""
    sa, sb = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    grid = np.union1d(sa, sb)
    fa = np.searchsorted(sa, grid, side="right") / sa.size
    fb = np.searchsorted(sb, grid, side="right") / sb.size
    return float(np.abs(fa - fb).max())


# small integers make ties within and across the samples
sample_values = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-200))


@settings(max_examples=300, deadline=None)
@given(a=st.lists(sample_values, min_size=1, max_size=60), data=st.data())
def test_w1_matches_the_lcm_repeat_oracle(a, data):
    b = data.draw(st.one_of(st.lists(sample_values, min_size=len(a), max_size=len(a)),
                            st.lists(sample_values, min_size=1, max_size=60)))
    assert wasserstein1(a, b) == pytest.approx(w1_lcm_oracle(a, b), rel=1e-12, abs=0)
    assert kolmogorov_distance(a, b) == ks_merged_oracle(a, b)
    report = distance_report(a, b)
    assert (report.kolmogorov, report.wasserstein1) == (kolmogorov_distance(a, b),
                                                        wasserstein1(a, b))


def test_w1_unequal_sizes_is_exact():
    # a midpoint grid of 8 max(n1, n2) quantile levels read 1.66071 here
    assert wasserstein1([0.0, 1.0, 3.0], np.arange(7.0)) == pytest.approx(5 / 3, rel=1e-15)


def test_qq_pairs_examples():
    a = np.arange(1.0, 21.0)
    pairs = qq_pairs(a, a, q=9)
    assert all(x == y for x, y in pairs)
    shifted = qq_pairs(a, a + 2.5, q=9)
    assert all(y - x == pytest.approx(2.5) for x, y in shifted)
    with pytest.raises(ValueError):
        qq_pairs(a, a, q=1)


def test_qq_pairs_scan_oracle():
    rng = np.random.default_rng(10)
    a = np.sort(rng.standard_normal(17))
    b = np.sort(rng.standard_normal(23))
    q = 7
    for k, (x, y) in enumerate(qq_pairs(a, b, q), start=1):
        level = k / (q + 1)
        xa = next(a[i] for i in range(a.size) if (i + 1) / a.size >= level)
        xb = next(b[i] for i in range(b.size) if (i + 1) / b.size >= level)
        assert (x, y) == (xa, xb)


def test_ecdf_points_examples():
    assert ecdf_points([1, 2, 3]) == [(1.0, pytest.approx(1 / 3)),
                                      (2.0, pytest.approx(2 / 3)),
                                      (3.0, pytest.approx(1.0))]
    assert ecdf_points([5, 5]) == [(5.0, 1.0)]


def test_ecdf_points_counting_oracle():
    rng = np.random.default_rng(11)
    sample = rng.integers(0, 5, size=40).astype(float)
    for x, level in ecdf_points(sample):
        assert level == pytest.approx((sample <= x).mean())


def test_distance_report_fields():
    report = distance_report([1.0, 2.0], [1.0, 2.0, 3.0])
    assert report.n1 == 2 and report.n2 == 3
    assert report.kolmogorov == pytest.approx(1 / 3)
    assert report.kolmogorov == 0.0 or report.kolmogorov > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    for first, second, name in (([1.0, bad], [1.0, 2.0], "first"),
                                ([1.0, 2.0], [bad, 3.0, 1.0], "second")):
        for distance in (kolmogorov_distance, wasserstein1, distance_report):
            with pytest.raises(ValueError, match=f"{name} sample has non-finite"):
                distance(first, second)
    with pytest.raises(ValueError, match="non-finite"):
        ecdf_points([0.5, bad, 2.0])
    with pytest.raises(ValueError, match="non-finite"):
        qq_pairs([0.5, 1.0, 2.0], [bad, 1.0], 3)
