"""Sampling the Gaussian reference distributions of max-deviation statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK_ELEMENTS = 2**24
_SYM_TOL = 1e-8  # asymmetry allowed, relative to max(1, |cov|_inf)
_EIG_TOL = 1e-8  # negative eigenvalues down to this, relative to lambda_max, count as zero


@dataclass(frozen=True)
class GaussianReference:
    """Factor of a PSD covariance: factor @ factor.T = cov."""

    factor: np.ndarray


@dataclass(frozen=True)
class MatrixReference:
    """Law of Z = scale * L S L^T: L = factor, S = (G + G^T)/sqrt(2), G iid N(0, 1).

    vec(Z) has covariance scale^2 (B_ik B_jl + B_il B_jk) with B = L L^T: a
    pair-product reference, drawn with no p^2 x p^2 matrix and no basis choice.
    """

    factor: np.ndarray
    scale: float

    def transform(self, gauss: np.ndarray) -> np.ndarray:
        """Z for each G in gauss, shape (k, p, p).  einsum rather than BLAS, so
        the draws do not depend on the BLAS build or its thread count.  S is laid
        out (p, k, p), the index the first product sums over leading: the same
        bits as (k, p, p), in fewer strided passes."""
        take, p = gauss.shape[:2]
        sym = np.empty((p, take, p))
        np.add(gauss.transpose(1, 0, 2), gauss.transpose(2, 0, 1), out=sym)
        sym *= self.scale / math.sqrt(2.0)
        half = np.einsum("ij,jkl->kil", self.factor, sym)
        return np.einsum("kil,ml->kim", half, self.factor)


def build_reference(cov: np.ndarray) -> GaussianReference:
    """Factor a PSD covariance as its symmetric square root Q Lambda^1/2 Q^T, whose
    draws, unlike Q's, do not depend on the eigenbasis eigh returns.

    Eigenvalues up to dim * eps * lambda_max count as zero (numpy's matrix_rank
    rule; duplicated symmetric coordinates make rank deficiency routine); below
    -_EIG_TOL * lambda_max the input is genuinely indefinite.  Cholesky is
    avoided on purpose since it fails on semidefinite input.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    scale = max(1.0, np.abs(cov).max())
    if np.abs(cov - cov.T).max() > _SYM_TOL * scale:
        raise ValueError("covariance is not symmetric")
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    lam_max = max(float(eigvals[-1]), 0.0)
    if eigvals[0] < -_EIG_TOL * lam_max:
        raise ValueError(
            f"covariance is indefinite (eigenvalue {eigvals[0]:.3e} "
            f"vs maximum {lam_max:.3e})")
    keep = eigvals > len(eigvals) * np.finfo(float).eps * lam_max
    return GaussianReference((eigvecs[:, keep] * np.sqrt(eigvals[keep])) @ eigvecs[:, keep].T)


def _draws_per_chunk(dim: int, reps: int) -> int:
    """Draws of a dim-entry Z that sample_max_abs takes at once, out of reps."""
    return min(reps, max(1, _CHUNK_ELEMENTS // max(dim, 1)))


def sample_max_abs(ref: GaussianReference | MatrixReference, reps: int,
                   seed: int) -> np.ndarray:
    """reps independent draws of |Z|_inf: Z = factor @ g with g standard normal
    for a GaussianReference, Z as defined by a MatrixReference."""
    if reps < 1:
        raise ValueError("reps must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    matrix = isinstance(ref, MatrixReference)
    p = ref.factor.shape[1]
    dim = p * p if matrix else p
    out = np.empty(reps)
    chunk = _draws_per_chunk(dim, reps)
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        if matrix:
            draws = ref.transform(rng.standard_normal((take, p, p))).reshape(take, -1)
        else:
            draws = (ref.factor @ rng.standard_normal((dim, take))).T
        out[done:done + take] = np.abs(draws).max(axis=1)
        done += take
    return out
