"""Analytic ground truth for a long-range dependent Gaussian linear process.

Builds the polynomially decaying Toeplitz coefficient family, sums its
autocovariances, inverts the covariance, and assembles the closed-form
covariance of the Gaussian reference for the scaled estimation error.

Run: python demos/01_process_model.py
"""

import math

import numpy as np

from lrdcov import (autocovariance, beta_tilde, condition1_constant,
                    condition2_partial, gaussian_long_run_covariance,
                    omega_transformed_long_run, process_truth, theoretical_rates,
                    toeplitz_spec)

# Scalar process, short memory: the lag sums have closed forms to check against.
scalar = toeplitz_spec(beta=2.0, p=1)
print("scalar gamma_0 =", autocovariance(scalar, 0)[0, 0],
      "(zeta(4) =", math.pi ** 4 / 90, ")")
print("scalar gamma_1 =", autocovariance(scalar, 1)[0, 0],
      "(pi^2/3 - 3 =", math.pi ** 2 / 3 - 3, ")")

# A 4-dimensional long-memory process.
spec = toeplitz_spec(beta=0.9, p=4)
truth = process_truth(spec, lags=50)
print("\nbeta = 0.9, p = 4")
print("beta_tilde =", beta_tilde(spec.beta))
print("Sigma =\n", np.round(truth.sigma, 4))
omega = truth.omega
print("|Omega Sigma - I|_inf =", np.abs(omega @ truth.sigma - np.eye(4)).max())
print("decay-condition constant C0 =", condition1_constant(spec))
print("variance lower-bound partial sums, min over entries:",
      condition2_partial(truth).min().round(4))

# Closed-form covariance of the Gaussian reference at sample size n.
n = 500
cov_z = gaussian_long_run_covariance(truth, n)
cov_zs = omega_transformed_long_run(truth, n)
print(f"\nreference covariance at n = {n}: shape {cov_z.shape}, "
      f"min eigenvalue {np.linalg.eigvalsh(cov_z)[0]:.2e}")
print("precision-side reference diagonal head:", np.round(cov_zs.diagonal()[:4], 3))

# Finite-sample rate exponents (constants unknown; orders only).
for beta in (2.0, 0.9):
    rates = theoretical_rates(beta, n=10_000, p=100, epsilon=0.3)
    print(f"beta = {beta}: psi = {rates['psi']:.3f}, psi_B = {rates['psi_B']:.3f}, "
          f"block exponents phi = {rates['phi']:.3f}, psi_exp = {rates['psi_exp']:.3f}")
