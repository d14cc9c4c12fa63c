"""Coefficient sequences and analytic ground truth for Gaussian linear processes.

A process X_i = sum_t A_t eps_{i-t} is described by a :class:`CoefficientSpec`.
The built-in structures are polynomially decaying Toeplitz and banded matrices,

    (A_t)_{jk} = (t+1)^{-beta} (|j-k|+1)^{-2}        (Toeplitz)
    (A_t)_{jk} = same, zeroed where |j-k| > bandwidth  (banded)

plus an escape hatch for arbitrary callables.  Both built-ins factor as
A_t = c_t * M with c_t = (t+1)^{-beta} and a fixed template M, which the
analytic routines exploit: autocovariances become scalar lag sums times a
constant matrix, and the p^2 x p^2 reference covariance collapses to a single
template product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionTooLargeError,
    NotInvertibleError,
    OutOfRegimeError,
    TruncationExceededError,
)

TOEPLITZ = "toeplitz"
BANDED = "banded"
CUSTOM = "custom"

_DEFAULT_TRUNCATION_SCALAR = 10**6
_DEFAULT_TRUNCATION_MATRIX = 10**4

# Above this many multiply-adds the scalar lag sums switch to FFT correlation.
_FFT_WORK_THRESHOLD = 2 * 10**8


@dataclass(frozen=True)
class CoefficientSpec:
    """Generative description of the coefficient sequence A_t."""

    structure: str
    beta: float
    p: int
    d: int
    truncation: int
    bandwidth: Optional[int] = None
    custom: Optional[Callable[[int], np.ndarray]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.structure not in (TOEPLITZ, BANDED, CUSTOM):
            raise ValueError(f"unknown structure {self.structure!r}")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.p < 1 or self.d < 1:
            raise ValueError("dimensions must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.structure == BANDED and (self.bandwidth is None or self.bandwidth < 1):
            raise ValueError("banded structure requires a positive bandwidth")
        if self.structure == CUSTOM and self.custom is None:
            raise ValueError("custom structure requires a callback")
        if self.structure in (TOEPLITZ, BANDED) and self.d != self.p:
            raise ValueError("Toeplitz/banded coefficients are square (d = p)")

    @property
    def separable(self) -> bool:
        """True when A_t = (t+1)^-beta times a fixed template matrix."""
        return self.structure in (TOEPLITZ, BANDED)


def toeplitz_spec(beta: float, p: int, truncation: Optional[int] = None) -> CoefficientSpec:
    return CoefficientSpec(TOEPLITZ, beta, p, p, _default_truncation(p, truncation))


def banded_spec(beta: float, p: int, bandwidth: int,
                truncation: Optional[int] = None) -> CoefficientSpec:
    return CoefficientSpec(BANDED, beta, p, p, _default_truncation(p, truncation),
                           bandwidth=bandwidth)


def custom_spec(fn: Callable[[int], np.ndarray], beta: float, p: int, d: int,
                truncation: int) -> CoefficientSpec:
    return CoefficientSpec(CUSTOM, beta, p, d, truncation, custom=fn)


def _default_truncation(p: int, truncation: Optional[int]) -> int:
    if truncation is not None:
        return truncation
    return _DEFAULT_TRUNCATION_SCALAR if p == 1 else _DEFAULT_TRUNCATION_MATRIX


def template(spec: CoefficientSpec) -> np.ndarray:
    """Lag-independent factor M of a separable spec (A_t = (t+1)^-beta M)."""
    if not spec.separable:
        raise ValueError("custom specs have no separable template")
    j = np.arange(spec.p)
    mat = 1.0 / (np.abs(j[:, None] - j[None, :]) + 1.0) ** 2
    if spec.structure == BANDED:
        mat = np.where(np.abs(j[:, None] - j[None, :]) <= spec.bandwidth, mat, 0.0)
    return mat


def decay_sequence(spec: CoefficientSpec, count: int) -> np.ndarray:
    """Scalar decay factors c_t = (t+1)^-beta for t = 0..count-1."""
    return (np.arange(count, dtype=float) + 1.0) ** (-spec.beta)


def coefficient(spec: CoefficientSpec, t: int) -> np.ndarray:
    """Coefficient matrix A_t; pure and deterministic."""
    if t < 0:
        raise ValueError("lag t must be nonnegative")
    if spec.structure == CUSTOM:
        mat = np.asarray(spec.custom(t), dtype=float)
        if mat.shape != (spec.p, spec.d):
            raise ValueError(f"custom callback returned shape {mat.shape}, "
                             f"expected {(spec.p, spec.d)}")
        return mat
    return (t + 1.0) ** (-spec.beta) * template(spec)


def _lag_sums(spec: CoefficientSpec, max_lag: int) -> np.ndarray:
    """g_k = sum_{t=0}^{truncation} c_t c_{t+k} for k = 0..max_lag."""
    T = spec.truncation
    c = decay_sequence(spec, T + 1 + max_lag)
    head = c[:T + 1]
    if (T + 1) * (max_lag + 1) <= _FFT_WORK_THRESHOLD:
        return np.array([head @ c[k:k + T + 1] for k in range(max_lag + 1)])
    # Cross-correlation via FFT: conv(head reversed, c)[T + k] = g_k.
    nfft = 1 << int(math.ceil(math.log2(len(head) + len(c) - 1)))
    spec_prod = np.fft.rfft(head[::-1], nfft) * np.fft.rfft(c, nfft)
    conv = np.fft.irfft(spec_prod, nfft)
    return conv[T:T + max_lag + 1]


def _custom_coeff_stack(spec: CoefficientSpec, count: int) -> np.ndarray:
    stack = np.empty((count, spec.p, spec.d))  # no list of count arrays held
    for t in range(count):
        stack[t] = coefficient(spec, t)
    return stack


def autocovariance(spec: CoefficientSpec, k: int) -> np.ndarray:
    """Gamma_k = sum_{t=0}^{truncation} A_t A_{t+|k|}^T, with Gamma_{-k} = Gamma_k^T."""
    if abs(k) > spec.truncation:
        raise TruncationExceededError(
            f"lag |{k}| exceeds truncation {spec.truncation}")
    kk = abs(k)
    if spec.separable:
        mat = template(spec)
        gam = _lag_sums(spec, kk)[kk] * (mat @ mat.T)
    else:
        stack = _custom_coeff_stack(spec, spec.truncation + 1 + kk)
        gam = np.einsum("tpd,tqd->pq", stack[:spec.truncation + 1],
                        stack[kk:kk + spec.truncation + 1])
    return gam if k >= 0 else gam.T


def autocovariance_sequence(spec: CoefficientSpec, max_lag: int) -> np.ndarray:
    """Stack of Gamma_0..Gamma_max_lag, shape (max_lag + 1, p, p)."""
    if max_lag > spec.truncation:
        raise TruncationExceededError(
            f"lag {max_lag} exceeds truncation {spec.truncation}")
    if spec.separable:
        mat = template(spec)
        base = mat @ mat.T
        return _lag_sums(spec, max_lag)[:, None, None] * base[None, :, :]
    stack = _custom_coeff_stack(spec, spec.truncation + 1 + max_lag)
    head = stack[:spec.truncation + 1]
    return np.stack([np.einsum("tpd,tqd->pq", head,
                               stack[k:k + spec.truncation + 1])
                     for k in range(max_lag + 1)])


def beta_tilde(beta: float) -> float:
    """Effective rate exponent (4*beta - 3) ^ (2*beta - 1)."""
    return min(4.0 * beta - 3.0, 2.0 * beta - 1.0)


@dataclass(frozen=True)
class ProcessTruth:
    """Analytic ground truth derived from a coefficient spec."""

    spec: CoefficientSpec
    gamma: np.ndarray            # (lags + 1, p, p)
    sigma: np.ndarray            # p x p, equals gamma[0]
    omega: Optional[np.ndarray]  # p x p inverse, None if sigma is singular
    beta_tilde: float

    @property
    def lags(self) -> int:
        return self.gamma.shape[0] - 1


def process_truth(spec: CoefficientSpec, lags: Optional[int] = None) -> ProcessTruth:
    """Compute autocovariances, covariance and (when possible) precision."""
    if lags is None:
        lags = min(100, spec.truncation)
    gamma = autocovariance_sequence(spec, lags)
    sigma = gamma[0]
    try:
        omega = _spd_inverse(sigma)
    except NotInvertibleError:
        omega = None
    return ProcessTruth(spec, gamma, sigma, omega, beta_tilde(spec.beta))


def _spd_inverse(sigma: np.ndarray, residual_tol: float = 1e-10) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(sigma)
    if eigvals[0] <= 0.0:
        raise NotInvertibleError(
            f"covariance not positive definite (smallest eigenvalue {eigvals[0]:.3e})",
            smallest_eigenvalue=float(eigvals[0]))
    omega = (eigvecs / eigvals) @ eigvecs.T
    resid = np.abs(omega @ sigma - np.eye(sigma.shape[0])).max()
    if resid > residual_tol:
        raise NotInvertibleError(
            f"inverse residual {resid:.3e} exceeds {residual_tol:.1e}",
            smallest_eigenvalue=float(eigvals[0]))
    return omega


def true_precision(truth: ProcessTruth) -> np.ndarray:
    """Omega = Sigma^{-1} with max-abs residual at most 1e-10."""
    return _spd_inverse(truth.sigma)


def _pair_product(gam: np.ndarray) -> np.ndarray:
    """Entry ((s1,t1),(s2,t2)) = G_{s1 s2} G_{t1 t2} + G_{s1 t2} G_{t1 s2}.

    Composite indices stack column-major: (s, t) -> s + p * t (0-based).
    """
    p = gam.shape[0]
    out = np.einsum("ik,jl->ijkl", gam, gam) + np.einsum("il,jk->ijkl", gam, gam)
    return out.transpose(1, 0, 3, 2).reshape(p * p, p * p)


def _ensure_gammas(truth: ProcessTruth, max_lag: int) -> np.ndarray:
    if truth.lags >= max_lag:
        return truth.gamma[:max_lag + 1]
    return autocovariance_sequence(truth.spec, max_lag)


def _truncated_gammas(spec: CoefficientSpec) -> np.ndarray:
    """Lag-k autocovariances of the process truncated at H = spec.truncation:
    sum_{t=0}^{H-k} A_t A_{t+k}^T for k = 0..H, shape (H + 1, p, p)."""
    H = spec.truncation
    stack = _custom_coeff_stack(spec, H + 1)
    return np.stack([np.einsum("tpd,tqd->pq", stack[:H + 1 - k], stack[k:])
                     for k in range(H + 1)])


def _long_run_factor(spec: CoefficientSpec) -> float:
    """sum_{|k|<=H} g_k^2 with g_k = sum_{t=0}^{H-k} c_t c_{t+k}, H = spec.truncation.

    |c_hat|^2 over L >= 2H + 1 points is the alias-free DFT of g, so by
    Parseval the sum is L^-1 sum_w |c_hat(w)|^4, read off one half spectrum.
    """
    H = spec.truncation
    L = 1 << (2 * H).bit_length()
    quartic = np.abs(np.fft.rfft(decay_sequence(spec, H + 1), L)) ** 4
    # L is even, so only the DC and Nyquist bins appear once in the full spectrum.
    return float((2.0 * quartic.sum() - quartic[0] - quartic[-1]) / L)


def _long_run_covariance(truth: ProcessTruth, n: Optional[int],
                         transform: Optional[np.ndarray], p_cap: int) -> np.ndarray:
    p = truth.sigma.shape[0]
    if p > p_cap:
        raise DimensionTooLargeError(
            f"p = {p} exceeds cap {p_cap} for dense p^2 x p^2 assembly")
    spec = truth.spec
    if n is None:
        max_lag, weights = spec.truncation, None
    else:
        if n < 1:
            raise ValueError("n must be positive")
        max_lag = min(n - 1, spec.truncation)
        weights = (n - np.arange(max_lag + 1, dtype=float)) / n
    if spec.separable:
        if weights is None:
            factor = _long_run_factor(spec)
        else:
            g = _lag_sums(spec, max_lag)
            factor = g[0] ** 2 + 2.0 * (weights[1:] * g[1:] ** 2).sum()
        base = template(spec)
        base = base @ base.T
        if transform is not None:
            base = transform @ base @ transform
        return factor * _pair_product(base)
    if weights is None:
        gammas, weights = _truncated_gammas(spec), np.ones(max_lag + 1)
    else:
        gammas = _ensure_gammas(truth, max_lag)
    if transform is not None:
        gammas = np.einsum("ij,kjl,lm->kim", transform, gammas, transform)
    total = weights[0] * _pair_product(gammas[0])
    for k in range(1, max_lag + 1):
        total += weights[k] * (_pair_product(gammas[k]) + _pair_product(gammas[k].T))
    return total


def gaussian_long_run_covariance(truth: ProcessTruth, n: Optional[int],
                                 p_cap: int = 150) -> np.ndarray:
    """Covariance of the Gaussian reference for the covariance error.

    With an integer n this is the finite-n covariance: entry ((s1,t1),(s2,t2))
    equals
    sum_{k=-n+1}^{n-1} ((n-|k|)/n) [ (G_k)_{s1 s2}(G_k)_{t1 t2}
                                   + (G_k)_{s1 t2}(G_k)_{t1 s2} ]
    with G_k the lag-k autocovariance of :func:`autocovariance`.

    With n=None it is the long-run covariance: the same pair product summed
    unweighted over every lag |k| <= H of the process truncated at
    H = spec.truncation, whose lag sums are G_k = sum_{t=0}^{H-k} A_t A_{t+k}^T.
    Those stop at t <= H - k, unlike :func:`autocovariance`, which sums
    t = 0..H and so reaches coefficients up to lag H + k.  For separable specs
    the scalar factor is sum_{|k|<=H} g_k^2, computed by Parseval from one FFT.
    """
    return _long_run_covariance(truth, n, None, p_cap)


def omega_transformed_long_run(truth: ProcessTruth, n: Optional[int],
                               p_cap: int = 150) -> np.ndarray:
    """Same closed form with every G_k replaced by Omega G_k Omega.

    An integer n gives the finite-n covariance and n=None the long-run
    covariance of the process truncated at spec.truncation, exactly as in
    :func:`gaussian_long_run_covariance`.
    """
    if truth.omega is None:
        raise NotInvertibleError("process truth carries no precision matrix")
    return _long_run_covariance(truth, n, truth.omega, p_cap)


def theoretical_rates(beta: float, n: int, p: int, epsilon: float) -> dict:
    """Finite-sample rate exponents for the Gaussian and bootstrap approximations.

    Returns psi (Gaussian approximation rate), psi_B (bootstrap rate at the
    given epsilon), and the block-length exponents phi (power of n) and
    psi_exp (power of log p).  Constants are not known, so only orders of
    magnitude and monotonicity are meaningful.
    """
    if beta <= 0.75:
        raise OutOfRegimeError(
            f"beta = {beta} is at or below 3/4; the Gaussian limit fails")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    bt = beta_tilde(beta)
    logpn = math.log(p * n)
    psi = logpn ** ((5.0 * bt + 12.0) / (4.0 * bt + 8.0)) / n ** (bt / (4.0 * bt + 8.0))
    denom_b = (6.0 - 2.0 * epsilon) * bt + 8.0
    psi_b = logpn ** ((5.0 * bt + 12.0) / denom_b) / n ** (bt / denom_b)
    denom_l = (3.0 - epsilon) * bt + 4.0
    phi = (2.0 * bt + 4.0) / denom_l
    psi_exp = (5.0 * bt + 12.0) * (1.0 - epsilon) / denom_l
    return {"psi": psi, "psi_B": psi_b, "phi": phi, "psi_exp": psi_exp}


def condition1_constant(spec: CoefficientSpec, t_max: int = 200) -> float:
    """Smallest C with max_j |(A_t)_{j.}|_2 <= C (1 v t)^-beta over t <= t_max."""
    if spec.separable:
        mat = template(spec)
        return float(np.sqrt((mat ** 2).sum(axis=1)).max())
    best = 0.0
    for t in range(min(t_max, spec.truncation) + 1):
        row_norm = np.sqrt((coefficient(spec, t) ** 2).sum(axis=1)).max()
        best = max(best, float(row_norm) * max(1, t) ** spec.beta)
    return best


def condition2_partial(truth: ProcessTruth) -> np.ndarray:
    """Partial sums sum_k [(G_k)_ss (G_k)_tt + (G_k)_st (G_k)_ts] over stored lags.

    The underlying sum runs over all integer lags; only the truncated horizon
    is reported here, so treat small values as inconclusive rather than as a
    violation.
    """
    gam = truth.gamma
    diag = np.einsum("kss->ks", gam)
    total = diag[0][:, None] * diag[0][None, :] + gam[0] * gam[0].T
    for k in range(1, gam.shape[0]):
        total += 2.0 * (diag[k][:, None] * diag[k][None, :] + gam[k] * gam[k].T)
    return total


def gamma_tail_bound(spec: CoefficientSpec) -> float:
    """Upper bound on entrywise Gamma_0 error from truncating the defining sum."""
    if spec.beta <= 0.5:
        return math.inf
    c0 = condition1_constant(spec)
    return c0 * c0 * spec.truncation ** (1.0 - 2.0 * spec.beta) / (2.0 * spec.beta - 1.0)
