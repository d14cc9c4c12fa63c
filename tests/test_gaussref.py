import math

import numpy as np
import pytest

import lrdcov.gaussref as gaussref
import lrdcov.harness as harness
from lrdcov import build_reference, kolmogorov_distance, sample_max_abs
from lrdcov import (MatrixReference, banded_spec, gaussian_long_run_covariance,
                    omega_transformed_long_run, run_cell, toeplitz_spec)


def test_zero_covariance():
    ref = build_reference(np.zeros((3, 3)))
    assert np.array_equal(ref.factor, np.zeros((3, 3)))
    draws = sample_max_abs(ref, 50, seed=1)
    assert np.array_equal(draws, np.zeros(50))


def test_scalar_factor():
    ref = build_reference(np.array([[4.0]]))
    assert abs(abs(ref.factor[0, 0]) - 2.0) < 1e-14


def test_reconstruction_random_psd():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((9, 9))
    cov = A @ A.T
    ref = build_reference(cov)
    assert np.abs(ref.factor @ ref.factor.T - cov).max() < 1e-10


def test_rank_deficient_clipping():
    v = np.array([[1.0], [2.0], [3.0]])
    cov = v @ v.T  # rank one, eigenvalues {14, 0, 0} up to rounding
    ref = build_reference(cov)
    assert np.abs(ref.factor @ ref.factor.T - cov).max() < 1e-10


def test_asymmetric_and_indefinite_rejected():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        build_reference(bad)
    indefinite = np.diag([1.0, -0.5])
    with pytest.raises(ValueError):
        build_reference(indefinite)


def test_scalar_half_normal_mean():
    ref = build_reference(np.array([[4.0]]))
    draws = sample_max_abs(ref, 10 ** 5, seed=7)
    target = 2.0 * math.sqrt(2.0 / math.pi)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3 * se


def test_diagonal_identity_maximum_cdf():
    from math import erf
    ref = build_reference(np.eye(4))
    draws = np.sort(sample_max_abs(ref, 10 ** 5, seed=11))
    # max of 4 independent |N(0,1)|: F(u) = (2 Phi(u) - 1)^4
    grid = draws
    analytic = (np.vectorize(erf)(grid / math.sqrt(2.0))) ** 4
    empirical = np.arange(1, draws.size + 1) / draws.size
    assert np.abs(empirical - analytic).max() < 0.01


def test_determinism_and_seed_independence():
    ref = build_reference(np.diag([1.0, 2.0]))
    a = sample_max_abs(ref, 1000, seed=5)
    b = sample_max_abs(ref, 1000, seed=5)
    assert np.array_equal(a, b)
    c = sample_max_abs(ref, 1000, seed=6)
    assert not np.array_equal(a, c)


def test_sign_flip_invariance_in_distribution():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((4, 4))
    cov = A @ A.T
    ref = build_reference(cov)
    flipped = build_reference(cov)
    object.__setattr__(flipped, "factor", ref.factor * np.array([1.0, -1.0, 1.0, -1.0]))
    a = sample_max_abs(ref, 10 ** 4, seed=3)
    b = sample_max_abs(flipped, 10 ** 4, seed=4)
    crit = 1.36 * math.sqrt(2.0 / 10 ** 4)  # 5% two-sample KS critical value
    assert kolmogorov_distance(a, b) < crit


def test_quadratic_scaling_is_exact():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((5, 5))
    cov = A @ A.T
    base = sample_max_abs(build_reference(cov), 500, seed=9)
    scaled = sample_max_abs(build_reference(4.0 * cov), 500, seed=9)
    assert np.array_equal(scaled, 2.0 * base)


def test_reps_validated():
    ref = build_reference(np.eye(2))
    with pytest.raises(ValueError):
        sample_max_abs(ref, 0, seed=1)


def harness_references(spec, monkeypatch):
    """The truth and the (cov_ga, prec_ga) references a run_cell of spec draws from."""
    truths, refs = [], []
    real_truth, real_draw = harness.process_truth, harness.sample_max_abs

    def truth(*args, **kwargs):
        truths.append(real_truth(*args, **kwargs))
        return truths[-1]

    def draw(ref, *args):
        refs.append(ref)
        return real_draw(ref, *args)

    monkeypatch.setattr(harness, "process_truth", truth)
    monkeypatch.setattr(harness, "sample_max_abs", draw)
    run_cell(spec, n=30, replicates=10, seed=1, targets=("cov_ga", "prec_ga"))
    (truth,), (cov_ref, prec_ref) = truths, refs
    return truth, cov_ref, prec_ref


def matrix_map(ref):
    """The linear map g -> vec(Z) of ref.transform as a p^2 x p^2 matrix K,
    with vec column-major as in the assembled reference."""
    p = ref.factor.shape[0]
    basis = np.eye(p * p).reshape(p * p, p, p)
    return ref.transform(basis).transpose(0, 2, 1).reshape(p * p, p * p).T


BUILT_IN = [toeplitz_spec(2.0, 4), banded_spec(1.5, 5, 1)]


@pytest.mark.parametrize("spec", BUILT_IN, ids=["toeplitz", "banded"])
def test_matrix_reference_covariance_is_the_assembled_one(spec, monkeypatch):
    truth, cov_ref, prec_ref = harness_references(spec, monkeypatch)
    assert isinstance(cov_ref, MatrixReference) and isinstance(prec_ref, MatrixReference)
    for ref, oracle in ((cov_ref, gaussian_long_run_covariance(truth, None)),
                        (prec_ref, omega_transformed_long_run(truth, None))):
        K = matrix_map(ref)
        assert np.abs(K @ K.T - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("spec", BUILT_IN, ids=["toeplitz", "banded"])
def test_matrix_draws_match_assembled_sampler(spec, monkeypatch):
    truth, cov_ref, prec_ref = harness_references(spec, monkeypatch)
    reps = 2 * 10 ** 4
    crit = 1.36 * math.sqrt(2.0 / reps)  # 5% two-sample KS critical value
    for ref, cov in ((cov_ref, gaussian_long_run_covariance(truth, None)),
                     (prec_ref, omega_transformed_long_run(truth, None))):
        matrix = sample_max_abs(ref, reps, seed=12)
        assembled = sample_max_abs(build_reference(cov), reps, seed=13)
        assert kolmogorov_distance(matrix, assembled) < crit


def test_matrix_draws_do_not_depend_on_chunking(monkeypatch):
    ref = MatrixReference(np.tril(np.ones((3, 3))), 1.5)
    whole = sample_max_abs(ref, 50, seed=2)
    monkeypatch.setattr(gaussref, "_CHUNK_ELEMENTS", 9 * 7)  # 7 draws per chunk
    assert np.array_equal(sample_max_abs(ref, 50, seed=2), whole)


def _frozen_transform(ref, gauss):
    """MatrixReference.transform as it was first written: S built (k, p, p)."""
    sym = gauss + gauss.swapaxes(1, 2)
    sym *= ref.scale / math.sqrt(2.0)
    half = np.einsum("ij,kjl->kil", ref.factor, sym)
    return np.einsum("kil,ml->kim", half, ref.factor)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 10, 13, 16, 17, 30, 31, 50, 100])
def test_matrix_transform_keeps_the_bits_of_the_frozen_formula(p):
    # a non-symmetric factor, and draw counts of one, odd and up to 200
    rng = np.random.default_rng(p)
    ref = MatrixReference(rng.standard_normal((p, p)), 1.3)
    for take in (1, 2, 7, 33, 200):
        if take * p ** 3 <= 2 * 10 ** 7:
            gauss = rng.standard_normal((take, p, p))
            assert np.array_equal(ref.transform(gauss), _frozen_transform(ref, gauss))


@pytest.mark.parametrize("p, reps, per_chunk", [(3, 50, 7), (10, 200, 64), (30, 100, 33),
                                                (50, 20, 3)])
def test_matrix_draws_keep_the_bits_of_the_frozen_formula(monkeypatch, p, reps, per_chunk):
    # sample_max_abs in chunks of per_chunk draws and in one chunk, against the
    # frozen formula applied to the same normals
    ref = MatrixReference(np.random.default_rng(p).standard_normal((p, p)), 0.7)
    gauss = np.random.default_rng(np.random.SeedSequence(9)).standard_normal((reps, p, p))
    want = np.abs(_frozen_transform(ref, gauss)).reshape(reps, -1).max(axis=1)
    assert np.array_equal(sample_max_abs(ref, reps, seed=9), want)
    monkeypatch.setattr(gaussref, "_CHUNK_ELEMENTS", per_chunk * p * p)
    assert gaussref._draws_per_chunk(p * p, reps) == per_chunk
    assert np.array_equal(sample_max_abs(ref, reps, seed=9), want)


@pytest.mark.parametrize("cov", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))])
def test_build_reference_rejects_a_non_square_matrix(cov):
    with pytest.raises(ValueError, match="covariance must be a square matrix"):
        build_reference(cov)
