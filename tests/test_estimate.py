import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdcov.estimate as estimate

from lrdcov import (HighDimensionError, NearSingularError, SimulationPlan,
                    max_deviation, process_truth, sample_covariance,
                    sample_precision, simulate_multidimensional, toeplitz_spec)
from lrdcov import EstimateResult, NotInvertibleError


def test_single_row_outer_product():
    X = np.array([[1.0, 0.0, 0.0]])
    est = sample_covariance(X)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(est.sigma_hat, expected)


def test_repeated_row_gives_rank_one():
    x = np.array([2.0, -1.0])
    X = np.tile(x, (6, 1))
    est = sample_covariance(X)
    assert np.allclose(est.sigma_hat, np.outer(x, x), rtol=1e-15)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        sample_covariance(np.empty((0, 3)))


def test_row_permutation_invariance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 4))
    shuffled = X[rng.permutation(40)]
    assert np.allclose(sample_covariance(X).sigma_hat,
                       sample_covariance(shuffled).sigma_hat, rtol=1e-12)


def test_scaling_covariance_and_precision():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    base = sample_covariance(X)
    scaled = sample_covariance(2.0 * X)
    assert np.array_equal(scaled.sigma_hat, 4.0 * base.sigma_hat)
    assert np.allclose(sample_precision(scaled), sample_precision(base) / 4.0,
                       rtol=1e-10)


def test_precision_trivial_cases():
    est = sample_covariance(np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(est.sigma_hat, np.eye(2))
    assert np.array_equal(sample_precision(est), np.eye(2))

    from lrdcov import EstimateResult
    result = EstimateResult(np.diag([2.0, 4.0]), n=10)
    assert np.allclose(sample_precision(result), np.diag([0.5, 0.25]), rtol=1e-14)


def test_precision_random_spd_residual():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 5))
    from lrdcov import EstimateResult
    result = EstimateResult(A @ A.T + 5 * np.eye(5), n=100)
    omega = sample_precision(result)
    assert np.abs(omega @ result.sigma_hat - np.eye(5)).max() < 1e-8


def test_precision_high_dimension_error():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, 5))
    with pytest.raises(HighDimensionError):
        sample_precision(sample_covariance(X))


def test_precision_near_singular_error():
    X = np.zeros((10, 2))
    X[:, 0] = np.random.default_rng(8).standard_normal(10)  # second column constant 0
    with pytest.raises(NearSingularError) as err:
        sample_precision(sample_covariance(X))
    assert err.value.condition_estimate is None or err.value.condition_estimate > 1e10


def test_max_deviation_examples():
    assert max_deviation(np.eye(2), np.eye(2), 50) == 0.0
    est = np.zeros((2, 2))
    tru = np.zeros((2, 2))
    est[0, 1] = 0.5
    assert max_deviation(est, tru, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        max_deviation(np.eye(2), np.eye(3), 4)


def test_max_deviation_loop_oracle_and_triangle():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 10))
    B = rng.standard_normal((10, 10))
    C = rng.standard_normal((10, 10))
    n = 17
    brute = max(abs(A[i, j] - B[i, j]) for i in range(10) for j in range(10))
    assert max_deviation(A, B, n) == pytest.approx(math.sqrt(n) * brute, rel=1e-15)
    assert max_deviation(A, B, n) == max_deviation(B, A, n)
    assert max_deviation(A, C, n) <= max_deviation(A, B, n) + max_deviation(B, C, n) + 1e-12


def test_mc_sanity_against_truth():
    spec = toeplitz_spec(2.0, 2, truncation=100_000)
    truth = process_truth(spec, lags=1)
    batch = simulate_multidimensional(
        SimulationPlan(spec, n=4000, seed=1234, copies_requested=1))
    est = sample_covariance(batch.data[0])
    bound = 5.0 * math.sqrt(math.log(2) / 4000)
    assert np.abs(est.sigma_hat - truth.sigma).max() < bound


def random_spd_stack(rng, shape, p):
    A = rng.standard_normal((*shape, p, p))
    return A @ np.swapaxes(A, -1, -2) + p * np.eye(p)


def test_stacked_estimators_match_per_copy_calls():
    rng = np.random.default_rng(10)
    n, p = 40, 5
    X = rng.standard_normal((2, 4, n, p))
    est = sample_covariance(X)
    assert est.n == n and est.sigma_hat.shape == (2, 4, p, p)
    for idx in np.ndindex(2, 4):
        assert np.array_equal(est.sigma_hat[idx], sample_covariance(X[idx]).sigma_hat)

    for sigma in (est.sigma_hat, random_spd_stack(rng, (2, 4), p)):
        omegas = sample_precision(EstimateResult(sigma, n))
        assert omegas.shape == (2, 4, p, p)
        for idx in np.ndindex(2, 4):
            assert np.array_equal(omegas[idx],
                                  sample_precision(EstimateResult(sigma[idx], n)))

    truth = rng.standard_normal((p, p))
    devs = max_deviation(omegas, truth, n)
    assert devs.shape == (2, 4)
    for idx in np.ndindex(2, 4):
        assert devs[idx] == max_deviation(omegas[idx], truth, n)


def test_stack_with_one_singular_member_raises():
    rng = np.random.default_rng(11)
    p = 4
    stack = random_spd_stack(rng, (6,), p)
    v = rng.standard_normal(p)
    stack[3] = np.outer(v, v)  # rank one
    with pytest.raises(NearSingularError) as err:
        sample_precision(EstimateResult(stack, n=50))
    assert isinstance(err.value, NotInvertibleError)
    assert err.value.smallest_eigenvalue < 1e-12 * np.abs(v).max() ** 2
    # the members before and after the singular one invert on their own
    sample_precision(EstimateResult(np.delete(stack, 3, axis=0), n=50))


def spectral_stack(rng, copies, p, kappa, scale=1.0):
    """copies x p x p symmetric matrices Q diag(lam) Q^T, lam log-spaced from scale
    down to scale / kappa, each with its own random orthogonal Q."""
    lam = scale * np.logspace(0.0, -np.log10(kappa), p)
    Q = np.linalg.qr(rng.standard_normal((copies, p, p)))[0]
    return (Q * lam) @ np.swapaxes(Q, -1, -2)


def max_residual(omega, sigma):
    return np.abs(omega @ sigma - np.eye(sigma.shape[-1])).max(axis=(-2, -1))


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 50), log_kappa=st.floats(0.0, 8.0), copies=st.integers(1, 4),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
@example(p=20, log_kappa=8.0, copies=2, log_scale=0.0, seed=1016)  # eigh fallback
def test_spd_inverse_matches_the_eigh_oracle(p, log_kappa, copies, log_scale, seed):
    stack = spectral_stack(np.random.default_rng(seed), copies, p, 10.0 ** log_kappa,
                           10.0 ** log_scale)
    tols = (estimate._REL_EIG_FLOOR, estimate._RESIDUAL_TOL)
    try:
        oracle = np.array([estimate._eigh_inverse(sigma, *tols) for sigma in stack])
    except NearSingularError:
        oracle = None
    if log_kappa <= 4.0:
        # well conditioned: every copy is certified without an eigendecomposition
        with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh")):
            omega = estimate._spd_inverse(stack, *tols)
        rel = (np.abs(omega - oracle).max(axis=(-2, -1))
               / np.abs(oracle).max(axis=(-2, -1)))
        assert rel.max() <= 1e-10
    else:
        try:
            omega = estimate._spd_inverse(stack, *tols)
        except NearSingularError:
            assert oracle is None  # rejects only what the eigh path rejects
            return
    assert np.array_equal(omega, np.swapaxes(omega, -1, -2))
    assert max_residual(omega, stack).max() <= estimate._RESIDUAL_TOL
    if oracle is not None:
        assert max_residual(oracle, stack).max() <= estimate._RESIDUAL_TOL
    for k in range(copies):
        assert np.array_equal(omega[k], estimate._spd_inverse(stack[k], *tols))


def raised(inverse, sigma, floor, tol):
    with pytest.raises(NotInvertibleError) as err:
        inverse(sigma, floor, tol)
    return type(err.value), str(err.value), err.value.smallest_eigenvalue


def indefinite(rng, p):
    sigma = spectral_stack(rng, 1, p, 10.0)[0]
    v = rng.standard_normal(p)
    return sigma - 2.0 * np.outer(v, v) / (v @ v)  # along v: at most 1 - 2 < 0


def below_floor(rng, p, floor):
    # smallest eigenvalue 0.9 floor times the mean diagonal, so at most 0.9 times the
    # floor on the largest diagonal entry
    lam = np.linspace(1.0, 2.0, p)
    lam[0] = 0.9 * floor * lam.mean()
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (Q * lam) @ Q.T


def rank_deficient(rng, p):
    B = rng.standard_normal((p, p - 1))
    return B @ B.T


@pytest.mark.parametrize("case, floor, tol", [
    ("rank_one", 1e-12, 1e-8),
    ("indefinite", 1e-12, 1e-8),
    ("below_floor", 1e-12, 1e-8),
    ("below_floor", 1e-6, 1e-8),  # inverts within the tolerance: the floor alone rejects
    ("residual", 1e-12, 1e-8),
    ("rank_deficient", 0.0, 1e-10),
    ("exactly_singular", 0.0, 1e-10),
])
@pytest.mark.parametrize("position", [0, 3, 5])
def test_spd_inverse_raises_what_the_eigh_path_raises(case, floor, tol, position):
    rng = np.random.default_rng(12)
    p = 6
    stack = random_spd_stack(rng, (6,), p)
    if case == "rank_one":
        v = rng.standard_normal(p)
        stack[position] = np.outer(v, v)
    elif case == "indefinite":
        stack[position] = indefinite(rng, p)
    elif case == "below_floor":
        stack[position] = below_floor(rng, p, floor)
    elif case == "residual":
        stack[position] = spectral_stack(rng, 1, p, 1e11)[0]
    elif case == "rank_deficient":
        stack[position] = rank_deficient(rng, p)
    else:
        stack[position] = np.diag(np.arange(p, dtype=float))
    expected = raised(estimate._eigh_inverse, stack[position], floor, tol)
    assert raised(estimate._spd_inverse, stack, floor, tol) == expected
    # the same copy fails on its own, and the rest of the stack inverts
    assert raised(estimate._spd_inverse, stack[position], floor, tol) == expected
    if case == "residual":
        assert expected[1].startswith("inversion residual")
    elif case in ("below_floor", "rank_one", "indefinite"):
        assert expected[1].startswith("smallest eigenvalue")
    estimate._spd_inverse(np.delete(stack, position, axis=0), floor, tol)


def test_sample_precision_of_a_well_conditioned_stack_runs_no_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(estimate.np.linalg, "eigh", refuse)
    X = np.random.default_rng(13).standard_normal((100, 100, 30))  # the mc_wide shape
    est = sample_covariance(X)
    omegas = sample_precision(est)
    assert max_residual(omegas, est.sigma_hat).max() <= estimate._RESIDUAL_TOL


TOLS = (estimate._REL_EIG_FLOOR, estimate._RESIDUAL_TOL)
MEMBERS = ("good", "below_floor", "rank_one", "indefinite", "residual", "singular")


def member(rng, kind, p):
    """One p x p matrix of `kind`: well conditioned ("good"), or built for
    _spd_inverse to reject at TOLS."""
    if kind == "good":
        return random_spd_stack(rng, (), p)
    if kind == "below_floor":
        return below_floor(rng, p, TOLS[0])
    if kind == "rank_one":
        v = rng.standard_normal(p)
        return np.outer(v, v)
    if kind == "indefinite":
        return indefinite(rng, p)
    if kind == "residual":
        return spectral_stack(rng, 1, p, 1e11)[0]  # kappa 1e11
    return np.diag(np.arange(p, dtype=float))  # exactly singular


def alone(sigma):
    """What _spd_inverse gives `sigma` on its own: its inverse or its error."""
    try:
        return estimate._spd_inverse(sigma, *TOLS)
    except NotInvertibleError as exc:
        return exc


def member_layout(shape):
    """A stack shape and the kind of each of its members, in C order."""
    count = int(np.prod(shape))
    return st.tuples(st.just(shape), st.lists(st.sampled_from(MEMBERS), min_size=count,
                                              max_size=count))


@settings(max_examples=80, deadline=None)
@given(layout=st.one_of(st.tuples(st.integers(1, 6)),
                        st.tuples(st.integers(1, 3), st.integers(1, 3))).flatmap(member_layout),
       p=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@example(layout=((4,), ["good", "residual", "good", "rank_one"]), p=6, seed=12)
def test_a_stack_gives_what_each_member_gives_alone(layout, p, seed):
    # each member is decided alone, so a residual failure is named before a later
    # floor failure
    shape, kinds = layout
    rng = np.random.default_rng(seed)
    stack = np.array([member(rng, kind, p) for kind in kinds]).reshape(*shape, p, p)
    outcomes = [alone(stack[idx]) for idx in np.ndindex(shape)]
    failures = [out for out in outcomes if isinstance(out, Exception)]
    if not failures:
        omega = estimate._spd_inverse(stack, *TOLS)
        assert all(np.array_equal(omega[idx], out)
                   for idx, out in zip(np.ndindex(shape), outcomes))
        return
    first = failures[0]  # in C order
    assert raised(estimate._spd_inverse, stack, *TOLS) == (
        type(first), str(first), first.smallest_eigenvalue)


def record_eigh_inverse(monkeypatch):
    """Every matrix _spd_inverse sends to _eigh_inverse."""
    calls, original = [], estimate._eigh_inverse

    def recording(sigma, *tols):
        calls.append(sigma.copy())
        return original(sigma, *tols)

    monkeypatch.setattr(estimate, "_eigh_inverse", recording)
    return calls


def test_eigh_fallback_runs_once_per_rejected_member(monkeypatch):
    rng = np.random.default_rng(14)
    p = 6
    stack = random_spd_stack(rng, (2, 3), p)
    calls = record_eigh_inverse(monkeypatch)
    certified = estimate._spd_inverse(stack, *TOLS)
    assert calls == []
    # eigenvalues 1 and 1.5e-12: above the floor, but 1/tr(Omega) = 3e-13 is not
    stack[1, 0] = np.diag([1.0] + [1.5e-12] * (p - 1))
    omega = estimate._spd_inverse(stack, *TOLS)
    assert len(calls) == 1 and np.array_equal(calls[0], stack[1, 0])
    assert np.allclose(omega[1, 0], np.diag([1.0] + [1.0 / 1.5e-12] * (p - 1)),
                       rtol=1e-14, atol=0)
    keep = np.ones((2, 3), bool)
    keep[1, 0] = False
    assert np.array_equal(omega[keep], certified[keep])


def test_a_failed_batched_cholesky_keeps_each_certified_lu_inverse(monkeypatch):
    rng = np.random.default_rng(15)
    p = 5
    stack = random_spd_stack(rng, (4,), p)
    certified = estimate._spd_inverse(stack, *TOLS)
    stack[3] = indefinite(rng, p)  # the batched Cholesky fails on the last member
    calls = record_eigh_inverse(monkeypatch)
    expected = raised(estimate._spd_inverse, stack[3], *TOLS)
    calls.clear()
    assert raised(estimate._spd_inverse, stack, *TOLS) == expected
    assert len(calls) == 1 and np.array_equal(calls[0], stack[3])

    # a batched Cholesky that fails while every member's own succeeds
    cholesky = np.linalg.cholesky

    def stack_refusing(a):
        if a.ndim > 2:
            raise np.linalg.LinAlgError("forced failure")
        return cholesky(a)

    monkeypatch.setattr(estimate.np.linalg, "cholesky", stack_refusing)
    calls.clear()
    assert np.array_equal(estimate._spd_inverse(stack[:3], *TOLS), certified[:3])
    assert calls == []
