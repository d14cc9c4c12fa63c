"""Fast batch simulation of truncated Gaussian linear processes.

The process X*_i = sum_{t<=H} A_t eps_{i-t}, H = min(N - 1, truncation), is a
circular convolution of length N over one shared N x d innovation matrix E
(circulant embedding; Wood & Chan 1994, Dietrich & Newsam 1997):
X[i, j] = sum_{t<=H} sum_k A_t[j, k] E[(i - t) mod N, k], diagonalized by a
real FFT along time.  Built-in structures factor as A_t = c_t M, so they take
d scalar convolutions and one product with M^T.  One pass yields floor(N/n)
copies of an n x p path, treated as independent replicates downstream; their
wrap-around dependence is negligible for N >> n (the default is N = n^2).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import InvalidPlanError, MemoryBudgetError
from .model import CoefficientSpec, _custom_coeff_stack, decay_sequence, template

# Estimated peak bytes per N*d element: two (d, N) arrays or transforms alive
# at once plus FFT buffers (measured peak RSS: 18-20 B at d = 10, N >= 10^6).
_BYTES_PER_ELEMENT = 24

_MAGIC = b"LRDSIM1"
_DERIVATION = ("PCG64(SeedSequence(seed)); innovations drawn once as "
               "standard_normal(N*d) and shared across features")


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce a batch of simulated paths."""

    spec: CoefficientSpec
    n: int
    seed: int
    N: Optional[int] = None
    copies_requested: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidPlanError("series length n must be positive")
        if self.N is None:
            object.__setattr__(self, "N", self.n * self.n)
        if self.N < self.n:
            raise InvalidPlanError(f"truncation length N = {self.N} < n = {self.n}")
        if self.copies_requested is None:
            object.__setattr__(self, "copies_requested", self.max_copies)
        if not 1 <= self.copies_requested <= self.max_copies:
            raise InvalidPlanError(
                f"copies_requested = {self.copies_requested} outside "
                f"[1, {self.max_copies}]")

    @property
    def max_copies(self) -> int:
        return self.N // self.n

    @property
    def peak_bytes(self) -> int:
        """Estimated peak bytes of simulating this plan; a custom spec adds its
        (N, p, d) coefficient stack and transform and its (p, N) convolutions."""
        p, d = self.spec.p, self.spec.d
        return _BYTES_PER_ELEMENT * self.N * (d if self.spec.separable else d + p * (d + 1))


@dataclass(frozen=True)
class SampleBatch:
    """Simulated realizations plus the seed provenance that regenerates them."""

    data: np.ndarray          # (copies, n, p)
    master_seed: int
    derivation: str = _DERIVATION

    @property
    def copies(self) -> int:
        return self.data.shape[0]


def simulate_multidimensional(plan: SimulationPlan) -> SampleBatch:
    """Batch of (copies, n, p) paths drawn from one innovation stream.

    d real FFTs of length N convolve lags 0..min(N - 1, truncation) (see the
    module docstring); custom specs are contracted with their transformed
    coefficient stack per frequency.  Raises MemoryBudgetError when the
    estimated peak, plan.peak_bytes, exceeds model.MEMORY_BUDGET.
    """
    spec, n, N, d = plan.spec, plan.n, plan.N, plan.spec.d
    if plan.peak_bytes > model.MEMORY_BUDGET:
        raise MemoryBudgetError(f"N*d = {N * d} needs an estimated {plan.peak_bytes} bytes, "
                                f"over the budget of {model.MEMORY_BUDGET} bytes")

    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    stream = rng.standard_normal(N * d).reshape(N, d)
    # E[s, k] = stream[((s+1)*d - k) mod N*d] fixes which normal feeds which
    # lag, so a seed always draws the same paths.  It is stored feature-major,
    # (d, N), so every transform runs over contiguous memory.
    innov = np.empty((d, N))
    innov[0] = np.roll(stream[:, 0], -1)
    innov[1:] = stream[:, :0:-1].T
    del stream
    innov_fft = np.fft.rfft(innov)
    del innov

    horizon = min(N - 1, spec.truncation)
    needed = plan.copies_requested * n
    if spec.separable:
        innov_fft *= np.fft.rfft(decay_sequence(spec, horizon + 1), n=N)
        scalar = np.fft.irfft(innov_fft, n=N)[:, :needed]
        del innov_fft
        # einsum, not @: the draws stay independent of the BLAS build.
        out = np.einsum("km,jk->mj", scalar, template(spec))
    else:
        coeff_fft = np.fft.rfft(_custom_coeff_stack(spec, horizon + 1), n=N, axis=0)
        series = np.fft.irfft(np.einsum("wjk,kw->jw", coeff_fft, innov_fft), n=N)
        del coeff_fft, innov_fft
        out = np.ascontiguousarray(series[:, :needed].T)
    return SampleBatch(out.reshape(plan.copies_requested, n, spec.p), plan.seed)


def save_batch(batch: SampleBatch, path) -> None:
    """Binary dump: magic, little-endian u64 header (n, p, copies, seed), then
    row-major float64 samples per copy."""
    copies, n, p = batch.data.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQQQ", n, p, copies, batch.master_seed))
        fh.write(np.ascontiguousarray(batch.data, dtype="<f8").tobytes())


def load_batch(path) -> SampleBatch:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a sample-batch file (magic {magic!r})")
        header = fh.read(32)
        if len(header) < 32:
            raise ValueError("sample-batch file is truncated")
        n, p, copies, seed = struct.unpack("<QQQQ", header)
        if not n * p * copies:  # no valid plan writes an empty batch
            raise ValueError(f"sample-batch header has a zero dimension: "
                             f"n = {n}, p = {p}, copies = {copies}")
        # sized against the file before reading: a header can claim terabytes
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - copies * n * p * 8
        if extra:
            raise ValueError("sample-batch file is truncated" if extra < 0 else
                             f"sample-batch file has {extra} trailing bytes after its body")
        body = fh.read(copies * n * p * 8)
    data = np.frombuffer(body, dtype="<f8").reshape(copies, n, p).astype(float)
    return SampleBatch(data, int(seed), derivation=f"loaded from {path}")
