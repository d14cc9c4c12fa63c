import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import lags

import lrdcov.model as model
from lrdcov import (CoefficientSpec, NotInvertibleError, OutOfRegimeError,
                    SimulationPlan, TruncationExceededError, autocovariance,
                    autocovariance_sequence, banded_spec, beta_tilde, coefficient,
                    condition1_constant, condition2_partial, custom_spec,
                    gamma_tail_bound, gaussian_long_run_covariance,
                    omega_transformed_long_run, process_truth, simulate_multidimensional,
                    theoretical_rates, toeplitz_spec)

ZETA4 = math.pi ** 4 / 90.0          # sum (t+1)^-4
GAMMA1_SCALAR = math.pi ** 2 / 3 - 3  # sum (t+1)^-2 (t+2)^-2


def brute_gamma_scalar(beta, k, terms):
    t = np.arange(terms, dtype=float)
    return float(((t + 1.0) ** -beta * (t + 1.0 + k) ** -beta).sum())


# --- coefficient --------------------------------------------------------------

def test_coefficient_toeplitz_p2_t0():
    expected = np.array([[1.0, 0.25], [0.25, 1.0]])
    assert np.array_equal(coefficient(toeplitz_spec(2.0, 2), 0), expected)


def test_coefficient_scalar_lag3():
    assert coefficient(toeplitz_spec(2.0, 1), 3) == pytest.approx(np.array([[1 / 16]]))


def test_coefficient_banded_zeroes_outside_band():
    mat = coefficient(banded_spec(2.0, 5, bandwidth=3), 0)
    assert mat[0, 4] == 0.0
    assert mat[4, 0] == 0.0
    # inside the band the Toeplitz value survives
    assert mat[0, 3] == pytest.approx((0 + 1.0) ** -2 * (3 + 1.0) ** -2)


def test_coefficient_negative_lag_rejected():
    with pytest.raises(ValueError):
        coefficient(toeplitz_spec(2.0, 2), -1)


def test_coefficient_custom_shape_validated():
    # the constructor checks the array once: its shape, then its entries lag by lag
    for shape in ((3, 2), (3, 2, 2, 1), (0, 2, 2), (1, 2, 2)):
        with pytest.raises(ValueError, match=re.escape(
                f"custom coefficient shape {shape} is not (H + 1, p, d), H > 0")):
            custom_spec(np.zeros(shape), beta=1.0)
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = np.ones((5, 2, 3))
        coeffs[2, 1, 0] = coeffs[4, 0, 0] = bad
        with pytest.raises(ValueError, match="custom coefficient A_2 has a non-finite entry"):
            custom_spec(coeffs, beta=1.0)
    spec = custom_spec([[[1.0, 2.0]], [[3.0, 4.0]]], beta=1.0)  # any array-like
    assert (spec.p, spec.d, spec.truncation) == (1, 2, 1)


def test_custom_spec_keeps_a_read_only_copy():
    coeffs = lags(lambda t: (t + 1.0) ** -1.5 * np.array([[1.0, 0.3], [-0.2, 0.8]]), 6)
    spec = custom_spec(coeffs, beta=1.5)
    gamma = autocovariance(spec, 1)
    coeffs[:] = 99.0  # the caller's array is still the caller's
    assert np.array_equal(autocovariance(spec, 1), gamma)
    assert coefficient(spec, 0)[0, 0] == 1.0
    for view in (spec.coeffs, coefficient(spec, 3)):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 0.0
    assert spec == custom_spec(coeffs, beta=1.5)  # equality ignores the coefficients
    assert hash(spec) == hash(custom_spec(coeffs, beta=1.5))


def test_custom_coefficient_past_the_truncation_raises():
    spec = custom_spec(np.ones((5, 2, 2)), beta=1.0)
    assert np.array_equal(coefficient(spec, 4), np.ones((2, 2)))
    with pytest.raises(TruncationExceededError, match="lag 5 exceeds truncation 4"):
        coefficient(spec, 5)
    with pytest.raises(TruncationExceededError, match="lag 3 exceeds truncation 2"):
        coefficient(replace(spec, truncation=2), 3)
    with pytest.raises(ValueError, match=r"requires coefficients A_0\.\.A_truncation"):
        replace(spec, truncation=5)  # a horizon past the array


# --- autocovariance -----------------------------------------------------------

def test_autocovariance_iid_custom(iid_spec_p2):
    assert np.array_equal(autocovariance(iid_spec_p2, 0), np.eye(2))
    assert np.array_equal(autocovariance(iid_spec_p2, 1), np.zeros((2, 2)))


def test_autocovariance_scalar_brute_oracle():
    spec = toeplitz_spec(2.0, 1)
    for k in (0, 1, 3):
        oracle = brute_gamma_scalar(2.0, k, spec.truncation + 1)
        assert autocovariance(spec, k)[0, 0] == pytest.approx(oracle, rel=1e-12)


def test_autocovariance_matches_analytic_constants():
    spec = toeplitz_spec(2.0, 1)
    assert abs(autocovariance(spec, 0)[0, 0] - ZETA4) < 1e-6
    assert abs(autocovariance(spec, 1)[0, 0] - GAMMA1_SCALAR) < 1e-6


def test_autocovariance_negative_lag_transposes():
    # asymmetric coefficients so Gamma_k is not symmetric
    a0 = np.array([[1.0, 0.5], [0.0, 1.0]])
    a1 = np.array([[0.2, 0.0], [0.7, 0.1]])
    spec = custom_spec(lags(lambda t: [a0, a1][t] if t < 2 else np.zeros((2, 2)), 6),
                       beta=1.0)
    gam1 = autocovariance(spec, 1)
    assert np.abs(gam1 - gam1.T).max() > 1e-3  # genuinely asymmetric
    assert np.array_equal(autocovariance(spec, -1), gam1.T)


def test_autocovariance_lag_beyond_truncation():
    spec = toeplitz_spec(2.0, 1, truncation=10)
    with pytest.raises(TruncationExceededError):
        autocovariance(spec, 11)


def test_autocovariance_sequence_matches_single_lags():
    spec = toeplitz_spec(0.9, 3, truncation=500)
    seq = autocovariance_sequence(spec, 4)
    for k in range(5):
        assert np.allclose(seq[k], autocovariance(spec, k), rtol=1e-12)


def test_toeplitz_gamma_decays_in_lag():
    spec = toeplitz_spec(2.0, 3, truncation=2000)
    seq = autocovariance_sequence(spec, 6)
    norms = np.abs(seq).max(axis=(1, 2))
    assert np.all(np.diff(norms) < 0)


def test_separable_matches_generic_custom_route():
    p, beta = 3, 1.2
    reference = toeplitz_spec(beta, p, truncation=300)
    mirrored = custom_spec(lags(lambda t: coefficient(reference, t), 300), beta=beta)
    for k in (0, 2):
        assert np.allclose(autocovariance(reference, k), autocovariance(mirrored, k),
                           rtol=1e-10)


def test_truncation_doubling_below_tail_bound():
    short = toeplitz_spec(2.0, 2, truncation=200)
    long = toeplitz_spec(2.0, 2, truncation=400)
    shift = np.abs(autocovariance(long, 0) - autocovariance(short, 0)).max()
    assert shift < gamma_tail_bound(short)
    assert shift > 0


@pytest.mark.parametrize("beta", [0.55, 0.9, 1.2, 2.0])
def test_fft_lag_sums_match_the_loop(monkeypatch, beta):
    # FFT rounding is a fraction of the largest sum g_0; elementwise, the beta 2
    # tail (g_777 about 1e-6 g_0) agrees only to about 1e-11.
    for T, max_lag in ((777, 3), (777, 777), (10_000, 100), (100_000, 777)):
        assert (T + 1) * (max_lag + 1) <= model._FFT_WORK_THRESHOLD  # default: the loop
        spec = toeplitz_spec(beta, 1, truncation=T)
        loop = model._lag_sums(spec, max_lag)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_FFT_WORK_THRESHOLD", 0)
            fft = model._lag_sums(spec, max_lag)
        np.testing.assert_allclose(fft, loop, rtol=0, atol=1e-12 * loop[0])


def asymmetric_custom_spec(beta, truncation):
    """p 2, d 3: A_t = (t+1)^-beta (C + t/(t+2) I_{2x3}), no symmetry in A_t or Gamma_k."""
    base = np.array([[1.0, 0.4, -0.3], [-0.6, 0.2, 0.9]])

    def coeff(t):
        return (t + 1.0) ** -beta * (base + t / (t + 2.0) * np.eye(2, 3))

    return custom_spec(lags(coeff, truncation), beta=beta)


@pytest.mark.parametrize("beta", [0.55, 0.9, 2.0])
def test_matrix_fft_lag_products_match_the_loop(monkeypatch, beta):
    for T, max_lag in ((12, 12), (300, 300), (2000, 50)):
        spec = asymmetric_custom_spec(beta, T)
        assert (T + 1) * 2 * 2 * 3 * (max_lag + 1) <= model._FFT_WORK_THRESHOLD
        loop = autocovariance_sequence(spec, max_lag)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_FFT_WORK_THRESHOLD", 0)
            fft = autocovariance_sequence(spec, max_lag)
        np.testing.assert_allclose(fft, loop, rtol=0, atol=1e-12 * np.abs(loop[0]).max())


@pytest.mark.parametrize("beta", [0.55, 0.9, 2.0])
@pytest.mark.parametrize("T", [40, 10_000, 100_000])
def test_long_run_factor_is_the_sum_of_squared_lag_sums(beta, T):
    # T 1e5 takes the FFT branch of the lag sums, the others the loop
    spec = toeplitz_spec(beta, 1, truncation=T)
    g = model._lag_sums(spec, T)
    assert model._long_run_factor(spec) == pytest.approx(
        g[0] ** 2 + 2.0 * (g[1:] ** 2).sum(), rel=1e-12)


# --- precision ----------------------------------------------------------------

def test_true_precision_identity(iid_spec_p2):
    truth = process_truth(iid_spec_p2, lags=1)
    assert np.allclose(truth.omega, np.eye(2), atol=1e-12)


def test_true_precision_diagonal():
    spec = custom_spec(lags(
        lambda t: np.diag([math.sqrt(2.0), 2.0]) if t == 0 else np.zeros((2, 2)), 2), beta=1.0)
    truth = process_truth(spec, lags=1)
    assert np.allclose(truth.sigma, np.diag([2.0, 4.0]), rtol=1e-12)
    assert np.allclose(truth.omega, np.diag([0.5, 0.25]), rtol=1e-12)


def test_true_precision_residual_toeplitz():
    truth = process_truth(toeplitz_spec(2.0, 3, truncation=5000), lags=2)
    omega = truth.omega
    assert np.abs(omega @ truth.sigma - np.eye(3)).max() < 1e-10


def test_true_precision_singular_reports_eigenvalue():
    spec = custom_spec(lags(
        lambda t: np.array([[1.0, 0.0], [1.0, 0.0]]) if t == 0 else np.zeros((2, 2)), 2),
        beta=1.0)
    truth = process_truth(spec, lags=1)
    assert truth.omega is None
    with pytest.raises(NotInvertibleError) as err:  # the call process_truth makes
        model._spd_inverse(truth.sigma, 0.0, model._TRUTH_RESIDUAL_TOL)
    assert err.value.smallest_eigenvalue is not None
    assert err.value.smallest_eigenvalue < 1e-12


# --- Gaussian reference covariance ---------------------------------------------

def test_long_run_iid_scalar_entry_is_two(iid_spec_p1):
    truth = process_truth(iid_spec_p1, lags=2)
    for n in (1, 5, 50, None):
        assert gaussian_long_run_covariance(truth, n) == pytest.approx(np.array([[2.0]]))


def test_long_run_scalar_double_loop_oracle():
    spec = toeplitz_spec(2.0, 1, truncation=20000)
    truth = process_truth(spec, lags=2)
    n = 3
    gammas = {k: brute_gamma_scalar(2.0, abs(k), spec.truncation + 1)
              for k in range(-2, 3)}
    oracle = 0.0
    for k in range(-n + 1, n):
        oracle += (n - abs(k)) / n * 2.0 * gammas[k] ** 2
    value = gaussian_long_run_covariance(truth, n)[0, 0]
    assert value == pytest.approx(oracle, rel=1e-10)


def truncated_gamma(spec, k):
    """sum_{t=0}^{H-k} A_t A_{t+k}^T: lag-k autocovariance of the process
    truncated at H = spec.truncation; negative lags by transposition."""
    H, kk = spec.truncation, abs(k)
    gam = sum(coefficient(spec, t) @ coefficient(spec, t + kk).T
              for t in range(H + 1 - kk))
    return gam if k >= 0 else gam.T


@pytest.mark.parametrize("make_spec", [
    lambda: toeplitz_spec(0.55, 3, truncation=12),
    lambda: banded_spec(0.55, 4, bandwidth=1, truncation=12),
    lambda: asymmetric_custom_spec(0.55, 12),
], ids=["toeplitz", "banded", "custom"])
def test_autocovariance_sequence_is_the_truncated_sum(make_spec):
    spec = make_spec()
    seq = autocovariance_sequence(spec, spec.truncation)
    scale = np.abs(seq[0]).max()
    for k in range(spec.truncation + 1):
        np.testing.assert_allclose(seq[k], truncated_gamma(spec, k), rtol=0,
                                   atol=1e-12 * scale)


def test_custom_spec_sums_only_its_first_lags_up_to_the_truncation():
    # lags past H = 12 are huge: any sum that read one would be far off the oracle
    H = 12
    coeffs = lags(lambda t: (t + 1.0) ** -0.55 * np.array([[1.0, 0.2], [-0.3, 0.9]]), H + 8)
    coeffs[H + 1:] = 1e6
    spec = replace(custom_spec(coeffs, beta=0.55), truncation=H)
    oracle = custom_spec(coeffs[:H + 1], beta=0.55)
    for k in (-H, H):
        np.testing.assert_allclose(autocovariance(spec, k), truncated_gamma(oracle, k),
                                   rtol=1e-14)
    truth, want = process_truth(spec), process_truth(oracle)
    assert truth.gamma.shape == (H + 1, 2, 2)
    assert np.array_equal(truth.gamma, want.gamma)
    assert np.array_equal(truth.omega, want.omega)
    for n in (5, 50, None):
        assert np.array_equal(gaussian_long_run_covariance(truth, n),
                              gaussian_long_run_covariance(want, n))
        assert np.array_equal(omega_transformed_long_run(truth, n),
                              omega_transformed_long_run(want, n))
    assert condition1_constant(spec) == condition1_constant(oracle)
    assert gamma_tail_bound(spec) == gamma_tail_bound(oracle)


def test_condition1_constant_custom_scans_lags_up_to_200():
    def coeff(t):
        return (t + 1.0) ** -1.5 * np.array([[1.0, 0.5], [2.0, 0.0]]) * (1 + (t == 150))

    expected = max(float(np.sqrt((coeff(t) ** 2).sum(axis=1)).max()) * max(1, t) ** 1.5
                   for t in range(201))
    spec = custom_spec(lags(coeff, 10_000), beta=1.5)
    assert condition1_constant(spec) == pytest.approx(expected, rel=1e-12)
    short = custom_spec(lags(coeff, 100), beta=1.5)
    assert condition1_constant(short) < expected


def direct_long_run(spec, transform=None, n=None):
    """Sum over |k| <= H of the pair product, entry by entry: unweighted, or for an
    integer n with Fejer weights (n - |k|) / n over |k| <= min(n - 1, H)."""
    p = spec.p
    K = spec.truncation if n is None else min(n - 1, spec.truncation)
    total = np.zeros((p * p, p * p))
    for k in range(-K, K + 1):
        gam = truncated_gamma(spec, k)
        weight = 1.0 if n is None else (n - abs(k)) / n
        if transform is not None:
            gam = transform @ gam @ transform
        for s1 in range(p):
            for t1 in range(p):
                for s2 in range(p):
                    for t2 in range(p):
                        total[s1 + p * t1, s2 + p * t2] += weight * (
                            gam[s1, s2] * gam[t1, t2] + gam[s1, t2] * gam[t1, s2])
    return total


@pytest.mark.parametrize("make_spec", [
    lambda: toeplitz_spec(0.55, 3, truncation=40),
    lambda: banded_spec(0.9, 3, bandwidth=1, truncation=25),
    lambda: custom_spec(lags(lambda t: (t + 1.0) ** -0.7 * np.array([[1.0, 0.3], [-0.2, 0.8]]),
                             15), beta=0.7),
], ids=["toeplitz", "banded", "custom"])
def test_long_run_unweighted_direct_oracle(make_spec):
    spec = make_spec()
    truth = process_truth(spec, lags=2)
    plain = gaussian_long_run_covariance(truth, None)
    assert np.allclose(plain, direct_long_run(spec), rtol=1e-12, atol=0.0)
    transformed = omega_transformed_long_run(truth, None)
    oracle = direct_long_run(spec, truth.omega)
    assert np.allclose(transformed, oracle, rtol=1e-12,
                       atol=1e-12 * np.abs(oracle).max())


@pytest.mark.parametrize("n", [None, 7])
@pytest.mark.parametrize("make_spec", [
    lambda: custom_spec(lags(lambda t: (t + 1.0) ** -0.7 * np.array([[1.0, 0.3], [-0.2, 0.8]]),
                             15), beta=0.7),
    lambda: asymmetric_custom_spec(0.7, 15),
], ids=["asymmetric", "p2_d3"])
def test_long_run_fejer_direct_oracle(make_spec, n):
    spec = make_spec()
    truth = process_truth(spec, lags=2)
    oracle = direct_long_run(spec, n=n)
    np.testing.assert_allclose(gaussian_long_run_covariance(truth, n), oracle,
                               rtol=1e-12, atol=0.0)
    oracle = direct_long_run(spec, truth.omega, n)
    np.testing.assert_allclose(omega_transformed_long_run(truth, n), oracle, rtol=1e-12,
                               atol=1e-12 * np.abs(oracle).max())


def test_long_run_iid_p2_hand_enumeration(iid_spec_p2):
    truth = process_truth(iid_spec_p2, lags=2)
    got = gaussian_long_run_covariance(truth, 10)
    # with Gamma_0 = I the entry is delta(s1,s2) delta(t1,t2) + delta(s1,t2) delta(t1,s2)
    expected = np.zeros((4, 4))
    for s1 in range(2):
        for t1 in range(2):
            for s2 in range(2):
                for t2 in range(2):
                    expected[s1 + 2 * t1, s2 + 2 * t2] = (
                        (s1 == s2) * (t1 == t2) + (s1 == t2) * (t1 == s2))
    assert np.array_equal(got, expected)
    assert got.diagonal().tolist() == [2.0, 1.0, 1.0, 2.0]


def test_long_run_symmetric_psd_small_instances():
    for beta, p, n in ((2.0, 2, 40), (0.9, 4, 25), (1.5, 5, 60)):
        truth = process_truth(toeplitz_spec(beta, p, truncation=2000), lags=2)
        cov = gaussian_long_run_covariance(truth, n)
        assert np.abs(cov - cov.T).max() < 1e-10
        assert np.linalg.eigvalsh(cov)[0] >= -1e-8 * cov.diagonal().max()


def test_long_run_dimension_cap(monkeypatch):
    from lrdcov import DimensionTooLargeError
    truth = process_truth(toeplitz_spec(2.0, 4, truncation=100), lags=2)
    monkeypatch.setattr(model, "MEMORY_BUDGET", 48 * 4**4)
    assert gaussian_long_run_covariance(truth, 10).shape == (16, 16)
    monkeypatch.setattr(model, "MEMORY_BUDGET", 48 * 4**4 - 1)  # fits p = 3 only
    with pytest.raises(DimensionTooLargeError,
                       match=f"estimated {48 * 4**4} bytes, over the budget of {48 * 4**4 - 1}"):
        gaussian_long_run_covariance(truth, 10)


def test_default_dimension_cap_fits_memory_and_refuses_before_allocating():
    from lrdcov import DimensionTooLargeError
    # the dense reference (assembly, then its eigh factor) peaks near 48 B per p^4 element
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert model.MEMORY_BUDGET == memory
    largest = math.isqrt(math.isqrt(memory // 48))  # the largest p that fits
    assert 48 * largest ** 4 <= memory < 48 * (largest + 1) ** 4
    model._check_dense_cap(largest)
    truth = process_truth(toeplitz_spec(2.0, largest + 1, truncation=10), lags=2)
    tracemalloc.start()
    try:
        for build in (gaussian_long_run_covariance, omega_transformed_long_run):
            with pytest.raises(DimensionTooLargeError, match=f"over the budget of {memory} "):
                build(truth, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_one_budget_moves_both_size_guards(monkeypatch):
    from lrdcov import DimensionTooLargeError, MemoryBudgetError
    monkeypatch.setattr(model, "MEMORY_BUDGET", 48 * 3**4)
    model._check_dense_cap(3)
    with pytest.raises(DimensionTooLargeError, match="over the budget of 3888 bytes"):
        model._check_dense_cap(4)
    # a p = 1 plan needs 56 bytes per element of N
    simulate_multidimensional(SimulationPlan(toeplitz_spec(2.0, 1), n=8, seed=0, N=69))
    with pytest.raises(MemoryBudgetError, match="over the budget of 3888 bytes"):
        simulate_multidimensional(SimulationPlan(toeplitz_spec(2.0, 1), n=8, seed=0, N=70))


def test_omega_transform_identity_covariance(iid_spec_p2):
    truth = process_truth(iid_spec_p2, lags=2)
    plain = gaussian_long_run_covariance(truth, 20)
    transformed = omega_transformed_long_run(truth, 20)
    assert np.array_equal(plain, transformed)


def test_omega_transform_scaled_identity():
    spec = custom_spec(lags(
        lambda t: math.sqrt(2.0) * np.eye(2) if t == 0 else np.zeros((2, 2)), 2), beta=1.0)
    truth = process_truth(spec, lags=1)
    transformed = omega_transformed_long_run(truth, 10)
    assert transformed[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_omega_transform_two_pass_oracle():
    spec = toeplitz_spec(2.0, 2, truncation=3000)
    truth = process_truth(spec, lags=2)
    n = 50
    omega = truth.omega
    p = 2
    oracle = np.zeros((p * p, p * p))
    for k in range(-n + 1, n):
        gam = omega @ autocovariance(spec, k) @ omega
        w = (n - abs(k)) / n
        for s1 in range(p):
            for t1 in range(p):
                for s2 in range(p):
                    for t2 in range(p):
                        oracle[s1 + p * t1, s2 + p * t2] += w * (
                            gam[s1, s2] * gam[t1, t2] + gam[s1, t2] * gam[t1, s2])
    got = omega_transformed_long_run(truth, n)
    assert np.allclose(got, oracle, rtol=1e-9, atol=1e-12)


def test_omega_transform_requires_precision():
    spec = custom_spec(lags(
        lambda t: np.array([[1.0, 0.0], [1.0, 0.0]]) if t == 0 else np.zeros((2, 2)), 2),
        beta=1.0)
    truth = process_truth(spec, lags=1)
    with pytest.raises(NotInvertibleError):
        omega_transformed_long_run(truth, 10)


# --- rates ----------------------------------------------------------------------

def test_beta_tilde_examples():
    assert beta_tilde(1.0) == pytest.approx(1.0)
    assert beta_tilde(2.0) == pytest.approx(3.0)
    assert beta_tilde(0.9) == pytest.approx(0.6)


def test_rates_beta_one_exponents():
    n, p = 10_000, 10
    rates = theoretical_rates(1.0, n, p, epsilon=0.5)
    logpn = math.log(p * n)
    assert rates["psi"] == pytest.approx(logpn ** (17 / 12) / n ** (1 / 12), rel=1e-12)
    assert rates["phi"] == pytest.approx(12 / 13, rel=1e-12)
    assert rates["psi_exp"] == pytest.approx(17 / 2 / 6.5, rel=1e-12)


def test_rates_short_memory_limit():
    # beta_tilde -> infinity gives psi ~ log^(5/4)(pn) / n^(1/4)
    beta = (1e6 + 1.0) / 2.0  # beta_tilde = 1e6
    n, p = 10_000, 10
    rates = theoretical_rates(beta, n, p, epsilon=0.5)
    limit = math.log(p * n) ** 1.25 / n ** 0.25
    assert abs(rates["psi"] - limit) / limit < 0.01


def test_rates_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        theoretical_rates(0.75, 1000, 10, 0.5)
    with pytest.raises(OutOfRegimeError):
        theoretical_rates(0.55, 1000, 10, 0.5)


def test_rates_epsilon_validated():
    with pytest.raises(ValueError):
        theoretical_rates(2.0, 1000, 10, 0.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_rates_reject_a_non_finite_beta(beta):
    # not four NaNs: a NaN or infinite beta passes the beta <= 3/4 check
    with pytest.raises(ValueError, match=re.escape(
            f"rates need a finite beta and epsilon in (0, 1), got {beta} and 0.5")):
        theoretical_rates(beta, 100, 2, 0.5)


def test_rates_monotone_in_n_and_p():
    # decreasing in n holds once log(pn) clears the turning point of the rate
    p = 10
    grid = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    psis = [theoretical_rates(2.0, n, p, 0.3)["psi"] for n in grid]
    assert all(a > b for a, b in zip(psis, psis[1:]))
    psis_b = [theoretical_rates(2.0, n, p, 0.3)["psi_B"] for n in grid]
    assert all(a > b for a, b in zip(psis_b, psis_b[1:]))
    # increasing in p always
    n = 10 ** 5
    by_p = [theoretical_rates(2.0, n, q, 0.3)["psi"] for q in (2, 10, 100, 1000)]
    assert all(a < b for a, b in zip(by_p, by_p[1:]))


# --- conditions -----------------------------------------------------------------

def test_condition1_constant_toeplitz():
    spec = toeplitz_spec(2.0, 4)
    c0 = condition1_constant(spec)
    row_norms = np.sqrt((coefficient(spec, 0) ** 2).sum(axis=1))
    assert c0 == pytest.approx(float(row_norms.max()), rel=1e-12)
    # Condition holds along the sequence with this constant
    for t in (0, 1, 5, 50):
        rows = np.sqrt((coefficient(spec, t) ** 2).sum(axis=1)).max()
        assert rows <= c0 * max(1, t) ** -2.0 + 1e-15


def test_condition2_partial_positive():
    truth = process_truth(toeplitz_spec(2.0, 3, truncation=2000), lags=50)
    partial = condition2_partial(truth)
    assert partial.min() > 0.1


def test_condition2_partial_matches_the_lag_loop():
    truth = process_truth(asymmetric_custom_spec(0.9, 40), lags=30)
    gam = truth.gamma
    oracle = np.zeros((2, 2))
    for k in range(gam.shape[0]):
        for s in range(2):
            for t in range(2):
                oracle[s, t] += (1 if k == 0 else 2) * (
                    gam[k, s, s] * gam[k, t, t] + gam[k, s, t] * gam[k, t, s])
    np.testing.assert_allclose(condition2_partial(truth), oracle, rtol=1e-13)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        toeplitz_spec(-1.0, 2)
    with pytest.raises(ValueError):
        banded_spec(2.0, 3, bandwidth=0)
    with pytest.raises(ValueError):
        CoefficientSpec("toeplitz", 2.0, 3, 2, 100)  # d != p
    for args, message in [(("ar1", 2.0, 2, 2, 10), "unknown structure 'ar1'"),
                          (("toeplitz", math.nan, 2, 2, 10), "finite and positive, got nan"),
                          (("toeplitz", math.inf, 2, 2, 10), "finite and positive, got inf"),
                          (("toeplitz", 2.0, 0, 2, 10), "dimensions must be positive"),
                          (("toeplitz", 2.0, 2, 2, 0), "truncation must be positive"),
                          (("custom", 2.0, 2, 2, 10), "custom structure requires coefficients")]:
        with pytest.raises(ValueError, match=message):
            CoefficientSpec(*args)
    custom = custom_spec(lags(lambda t: np.eye(2), 10), beta=2.0)
    with pytest.raises(ValueError, match="custom specs have no separable template"):
        model.template(custom)


def test_long_run_and_rates_reject_n_below_one():
    truth = process_truth(toeplitz_spec(2.0, 2, truncation=10), lags=0)
    with pytest.raises(ValueError, match="n must be positive"):
        gaussian_long_run_covariance(truth, 0)
    with pytest.raises(ValueError, match="n and p must be positive"):
        theoretical_rates(2.0, 0, 3, 0.5)
