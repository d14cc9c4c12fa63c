"""Sample covariance/precision estimators and max-deviation statistics, each
applied per copy over the leading axes of a stack (..., n, p) or (..., p, p)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HighDimensionError, NearSingularError

_REL_EIG_FLOOR = 1e-12  # smallest eigenvalue allowed, relative to the largest diagonal
_RESIDUAL_TOL = 1e-8    # largest |Omega_hat Sigma_hat - I|_inf accepted


@dataclass
class EstimateResult:
    sigma_hat: np.ndarray  # (..., p, p)
    n: int


def sample_covariance(X: np.ndarray) -> EstimateResult:
    """Sigma_hat = n^-1 sum_i X_i X_i^T for each (n, p) matrix in X (..., n, p).

    The process model has mean zero, so no centering is applied: callers
    demean real data first (pipeline.ingest does).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-2] < 1:
        raise ValueError("X must be a nonempty n x p matrix or a stack of them")
    n = X.shape[-2]
    return EstimateResult(np.swapaxes(X, -1, -2) @ X / n, n)


def _singular(message: str, eigvals: np.ndarray) -> NearSingularError:
    cond = float(eigvals[-1] / eigvals[0]) if eigvals[0] > 0 else np.inf
    return NearSingularError(message, cond, float(eigvals[0]))


def _eigh_inverse(sigma: np.ndarray, rel_eig_floor: float,
                  residual_tol: float) -> np.ndarray:
    """Inverse of one symmetric matrix `sigma` (p, p) via its eigendecomposition,
    symmetrised as the LU inverse of `_spd_inverse` is.

    Raises NearSingularError when its smallest eigenvalue is at or below
    `rel_eig_floor` times its largest diagonal entry, or else when its residual
    |Omega Sigma - I|_inf exceeds `residual_tol`.
    """
    eigvals, eigvecs = np.linalg.eigh(sigma)
    floor = rel_eig_floor * sigma.diagonal().max()
    if eigvals[0] <= floor:
        raise _singular(f"smallest eigenvalue {eigvals[0]:.3e} at or below floor "
                        f"{floor:.3e}", eigvals)
    omega = (eigvecs / eigvals) @ eigvecs.T
    omega = (omega + omega.T) / 2.0
    resid = np.abs(omega @ sigma - np.eye(len(sigma))).max()
    if resid > residual_tol:
        raise _singular(f"inversion residual {resid:.3e} exceeds {residual_tol:.1e}",
                        eigvals)
    return omega


def _spd_inverse(sigma: np.ndarray, rel_eig_floor: float,
                 residual_tol: float) -> np.ndarray:
    """Inverse of each symmetric positive-definite matrix in `sigma` (..., p, p).

    One batched Cholesky certifies every matrix positive definite and one
    batched LU inverse, symmetrised, inverts it.  A matrix keeps that inverse
    when 1/tr(Omega), a lower bound on its smallest eigenvalue, is above
    `rel_eig_floor` times its largest diagonal entry and its residual
    |Omega Sigma - I|_inf is at most `residual_tol`.  Every other matrix goes
    through `_eigh_inverse` alone, in stack order; when any Cholesky or LU
    factorisation fails, each matrix of the stack starts over on its own.  So a
    stack returns what each of its matrices returns on its own, and raises the
    NearSingularError of its first failing matrix in C order.
    """
    p = sigma.shape[-1]
    try:
        np.linalg.cholesky(sigma)
        omega = np.linalg.inv(sigma)
    except np.linalg.LinAlgError:
        if sigma.ndim == 2:
            return _eigh_inverse(sigma, rel_eig_floor, residual_tol)
        return np.array([_spd_inverse(s, rel_eig_floor, residual_tol)
                         for s in sigma.reshape(-1, p, p)]).reshape(sigma.shape)
    omega = (omega + np.swapaxes(omega, -1, -2)) / 2.0
    floor = rel_eig_floor * sigma.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        resid = np.abs(omega @ sigma - np.eye(p)).max(axis=(-2, -1))
        ok = (1.0 / np.trace(omega, axis1=-2, axis2=-1) > floor) & (resid <= residual_tol)
    if not ok.all():
        for idx in map(tuple, np.argwhere(~ok)):
            omega[idx] = _eigh_inverse(sigma[idx], rel_eig_floor, residual_tol)
    return omega


def sample_precision(result: EstimateResult) -> np.ndarray:
    """Omega_hat = Sigma_hat^{-1} per matrix: a Cholesky-certified LU inverse,
    with an eigendecomposition for any matrix the inverse cannot certify.

    Requires p < n, a minimum eigenvalue above _REL_EIG_FLOOR times the largest
    diagonal entry and a residual |Omega_hat Sigma_hat - I|_inf of at most
    _RESIDUAL_TOL; otherwise raises NearSingularError (see _spd_inverse).
    """
    sigma = result.sigma_hat
    p = sigma.shape[-1]
    if p >= result.n:
        raise HighDimensionError(
            f"p = {p} >= n = {result.n}; sample covariance is singular")
    return _spd_inverse(sigma, _REL_EIG_FLOOR, _RESIDUAL_TOL)


def max_deviation(estimate: np.ndarray, truth: np.ndarray, n: int) -> float | np.ndarray:
    """sqrt(n) * max_{jk} |estimate_{jk} - truth_{jk}| over the last two axes.

    A single matrix gives a float; a stack (..., p, p) gives one value per
    matrix, with `truth` broadcast against it.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape[-2:] != truth.shape[-2:]:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    dev = np.sqrt(n) * np.abs(estimate - truth).max(axis=(-2, -1))
    return float(dev) if dev.ndim == 0 else dev
