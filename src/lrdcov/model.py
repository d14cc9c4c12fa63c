"""Coefficient sequences and analytic ground truth for Gaussian linear processes.

A process X_i = sum_t A_t eps_{i-t} is described by a :class:`CoefficientSpec`.
The built-in structures are polynomially decaying Toeplitz and banded matrices,

    (A_t)_{jk} = (t+1)^{-beta} (|j-k|+1)^{-2}        (Toeplitz)
    (A_t)_{jk} = same, zeroed where |j-k| > bandwidth  (banded)

plus custom coefficient arrays A_0..A_H.  Both built-ins factor as
A_t = c_t * M with c_t = (t+1)^{-beta} and a fixed template M, which the
analytic routines exploit: autocovariances become scalar lag sums times a
constant matrix, and the p^2 x p^2 reference covariance collapses to a single
template product.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionTooLargeError,
    MemoryBudgetError,
    NotInvertibleError,
    OutOfRegimeError,
    TruncationExceededError,
)
from .estimate import _spd_inverse

TOEPLITZ = "toeplitz"
BANDED = "banded"
CUSTOM = "custom"

_DEFAULT_TRUNCATION_SCALAR = 10**6
_DEFAULT_TRUNCATION_MATRIX = 10**4

# Above this many multiply-adds every lag sum (scalar or matrix) is one FFT.
_FFT_WORK_THRESHOLD = 2 * 10**8
_CONDITION1_LAGS = 200  # lags a custom spec's condition-1 constant scans
# Largest |Omega Sigma - I|_inf accepted from the analytic inverse (eigenvalue floor 0).
_TRUTH_RESIDUAL_TOL = 1e-10
# Bytes every size guard compares its peak estimate with: physical memory
# (16 GiB where unreported).  Guards read it at call time, as model.MEMORY_BUDGET.
MEMORY_BUDGET = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
                 if hasattr(os, "sysconf") else 2**34)
# The assembled p^2 x p^2 matrix plus build_reference's eigh peak near 48 B per
# p^4 element (RSS: 6.0-6.1 x 8 B at p 50 and 60).
_REFERENCE_BYTES_PER_P4 = 48


def _check_budget(need: int, what: str, error=MemoryBudgetError) -> None:
    """Raise `error` when the estimated `need` bytes exceed MEMORY_BUDGET; `what`
    names the need and its verb ("N*d = 40 needs")."""
    if need > MEMORY_BUDGET:
        raise error(f"{what} an estimated {need} bytes, over the budget of {MEMORY_BUDGET} bytes")


@dataclass(frozen=True)
class CoefficientSpec:
    """Generative description of the coefficient sequence A_t (equality ignores `coeffs`)."""

    structure: str
    beta: float
    p: int
    d: int
    truncation: int
    bandwidth: Optional[int] = None
    coeffs: np.ndarray = field(default=(), repr=False, compare=False)  # custom only

    def __post_init__(self):
        if self.structure not in (TOEPLITZ, BANDED, CUSTOM):
            raise ValueError(f"unknown structure {self.structure!r}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.p < 1 or self.d < 1:
            raise ValueError("dimensions must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.structure == BANDED and (self.bandwidth is None or self.bandwidth < 1):
            raise ValueError("banded structure requires a positive bandwidth")
        if self.structure == CUSTOM and len(self.coeffs) <= self.truncation:
            raise ValueError("custom structure requires coefficients A_0..A_truncation")
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


def custom_spec(coeffs, beta: float) -> CoefficientSpec:
    """A_t = coeffs[t], t = 0..H, from a finite (H + 1, p, d) array kept as a read-only copy."""
    coeffs = np.array(coeffs, dtype=float)
    if coeffs.ndim != 3 or len(coeffs) < 2:
        raise ValueError(f"custom coefficient shape {coeffs.shape} is not (H + 1, p, d), H > 0")
    finite = np.isfinite(coeffs).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"custom coefficient A_{finite.argmin()} has a non-finite entry")
    coeffs.flags.writeable = False
    return CoefficientSpec(CUSTOM, beta, *coeffs.shape[1:], len(coeffs) - 1, coeffs=coeffs)


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
    """Coefficient matrix A_t; a custom spec's is a read-only view, up to its truncation."""
    if t < 0:
        raise ValueError("lag t must be nonnegative")
    if spec.structure == CUSTOM:
        if t > spec.truncation:
            raise TruncationExceededError(f"lag {t} exceeds truncation {spec.truncation}")
        return spec.coeffs[t]
    return (t + 1.0) ** (-spec.beta) * template(spec)


def _lag_products(stack: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_{t=0}^{H-k} a_t a_{t+k}^T for k = 0..max_lag over scalars a_0..a_H, shape
    (H + 1,), or matrices, (H + 1, p, d).  Above _FFT_WORK_THRESHOLD multiply-adds,
    one autocorrelation over nfft > H + max_lag points: no wrapped lag reaches max_lag.
    """
    H, (p, d) = len(stack) - 1, stack.shape[1:] or (1, 1)
    if (H + 1) * p * p * d * (max_lag + 1) <= _FFT_WORK_THRESHOLD:
        if stack.ndim == 1:
            return np.array([stack[:H + 1 - k] @ stack[k:] for k in range(max_lag + 1)])
        return np.stack([np.einsum("tpd,tqd->pq", stack[:H + 1 - k], stack[k:])
                         for k in range(max_lag + 1)])
    nfft = 1 << (H + max_lag).bit_length()
    spectrum = np.fft.rfft(stack, nfft, axis=0)
    spectrum = (np.abs(spectrum) ** 2 if stack.ndim == 1
                else np.einsum("wpd,wqd->wpq", spectrum.conj(), spectrum))
    return np.fft.irfft(spectrum, nfft, axis=0)[:max_lag + 1].copy()  # frees the padding


def _lag_sums(spec: CoefficientSpec, max_lag: int) -> np.ndarray:
    """g_k = sum_{t=0}^{H-k} c_t c_{t+k} for k = 0..max_lag, H = spec.truncation."""
    return _lag_products(decay_sequence(spec, spec.truncation + 1), max_lag)


def autocovariance(spec: CoefficientSpec, k: int) -> np.ndarray:
    """Gamma_k = sum_{t=0}^{H-|k|} A_t A_{t+|k|}^T = Gamma_{-k}^T: the autocovariance of
    the process truncated at H = spec.truncation, the one the simulator draws."""
    gam = autocovariance_sequence(spec, abs(k))[abs(k)]
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
    return _lag_products(spec.coeffs[:spec.truncation + 1], max_lag)


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
        omega = _spd_inverse(sigma, 0.0, _TRUTH_RESIDUAL_TOL)
    except NotInvertibleError:
        omega = None
    return ProcessTruth(spec, gamma, sigma, omega)


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


def _check_dense_cap(p: int) -> None:
    _check_budget(_REFERENCE_BYTES_PER_P4 * p**4, f"p = {p}: the p^2 x p^2 reference needs",
                  DimensionTooLargeError)


def _long_run_covariance(truth: ProcessTruth, n: Optional[int],
                         transform: Optional[np.ndarray]) -> np.ndarray:
    p = truth.sigma.shape[0]
    _check_dense_cap(p)
    if n is not None and n < 1:
        raise ValueError("n must be positive")
    spec = truth.spec
    max_lag = spec.truncation if n is None else min(n - 1, spec.truncation)
    weights = np.ones(max_lag + 1) if n is None else (n - np.arange(max_lag + 1.0)) / n
    if spec.separable:
        if n is None:
            factor = _long_run_factor(spec)
        else:
            g = _lag_sums(spec, max_lag)
            factor = g[0] ** 2 + 2.0 * (weights[1:] * g[1:] ** 2).sum()
        mat = template(spec)
        gammas, weights = (mat @ mat.T)[None], np.array([factor])
    else:
        gammas = (truth.gamma[:max_lag + 1] if truth.lags >= max_lag
                  else autocovariance_sequence(spec, max_lag))
    if transform is not None:
        gammas = transform @ gammas @ transform
    # V = P + P^T for P = sum_k w'_k pair(G_k), w'_0 = w_0 / 2, as pair(G^T) = pair(G)^T
    # with pair(G)_{(s1,t1),(s2,t2)} = G_s1s2 G_t1t2 + G_s1t2 G_t1s2.  pair is bilinear, so P
    # permutes one Gram D_abcd = sum_k w'_k (G_k)_ab (G_k)_cd, laid out (t1, s1, t2, s2).
    weights[0] /= 2.0
    gram = np.tensordot(weights[:, None, None] * gammas, gammas, (0, 0))
    half = (gram.transpose(2, 0, 3, 1) + gram.transpose(2, 0, 1, 3)).reshape(p * p, p * p)
    return half + half.T


def gaussian_long_run_covariance(truth: ProcessTruth, n: Optional[int]) -> np.ndarray:
    """Covariance of the Gaussian reference for the covariance error.

    With an integer n this is the finite-n covariance: entry ((s1,t1),(s2,t2))
    equals
    sum_{k=-n+1}^{n-1} ((n-|k|)/n) [ (G_k)_{s1 s2}(G_k)_{t1 t2}
                                   + (G_k)_{s1 t2}(G_k)_{t1 s2} ]
    with G_k the lag-k autocovariance of :func:`autocovariance`.

    With n=None it is the long-run covariance: the same pair product summed
    unweighted over every lag |k| <= H = spec.truncation.  Both are the axis
    permutations of one weighted Gram matrix of vec(G_0), vec(G_1), ...; for
    separable specs the one term M M^T weighted by sum_{|k|<=H} w_k g_k^2.
    """
    return _long_run_covariance(truth, n, None)


def omega_transformed_long_run(truth: ProcessTruth, n: Optional[int]) -> np.ndarray:
    """Same closed form with every G_k replaced by Omega G_k Omega.

    An integer n gives the finite-n covariance and n=None the long-run
    covariance of the process truncated at spec.truncation, exactly as in
    :func:`gaussian_long_run_covariance`.
    """
    if truth.omega is None:
        raise NotInvertibleError("process truth carries no precision matrix")
    return _long_run_covariance(truth, n, truth.omega)


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
    if not (math.isfinite(beta) and 0.0 < epsilon < 1.0):
        raise ValueError(f"rates need a finite beta and epsilon in (0, 1), "
                         f"got {beta} and {epsilon}")
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


def condition1_constant(spec: CoefficientSpec) -> float:
    """Smallest C with max_j |(A_t)_{j.}|_2 <= C (1 v t)^-beta over scanned lags t."""
    if spec.separable:
        mat = template(spec)
        return float(np.sqrt((mat ** 2).sum(axis=1)).max())
    stack = spec.coeffs[:min(_CONDITION1_LAGS, spec.truncation) + 1]
    decay = np.maximum(1, np.arange(len(stack))) ** spec.beta
    return float((np.sqrt((stack ** 2).sum(axis=2)).max(axis=1) * decay).max())


def condition2_partial(truth: ProcessTruth) -> np.ndarray:
    """Partial sums sum_k [(G_k)_ss (G_k)_tt + (G_k)_st (G_k)_ts] over stored lags.

    The underlying sum runs over all integer lags; only the truncated horizon
    is reported here, so treat small values as inconclusive rather than as a
    violation.
    """
    gam = truth.gamma
    diag = np.einsum("kss->ks", gam)
    terms = diag[:, :, None] * diag[:, None, :] + gam * gam.swapaxes(1, 2)
    return terms[0] + 2.0 * terms[1:].sum(axis=0)


def gamma_tail_bound(spec: CoefficientSpec) -> float:
    """Upper bound on entrywise Gamma_0 error from truncating the defining sum."""
    if spec.beta <= 0.5:
        return math.inf
    c0 = condition1_constant(spec)
    return c0 * c0 * spec.truncation ** (1.0 - 2.0 * spec.beta) / (2.0 * spec.beta - 1.0)
