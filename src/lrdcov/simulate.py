"""Fast batch simulation of truncated Gaussian linear processes.

The process X*_i = sum_{t<=H} A_t eps_{i-t}, H = min(N - 1, truncation), is a
circular convolution of length N over one shared N x d innovation matrix E
(circulant embedding; Wood & Chan 1994, Dietrich & Newsam 1997):
X[i, j] = sum_{t<=H} sum_k A_t[j, k] E[(i - t) mod N, k], diagonalized by a
real FFT along time.  Built-in structures factor as A_t = c_t M, so they take
d scalar convolutions and one product with M^T.  One pass yields floor(N/n)
copies of an n x p path, treated as independent replicates downstream; their
wrap-around dependence is negligible for N >> n (the default is N = n^2).

The innovations are drawn in chunks of _CHUNK_ROWS rows of E, each written
straight into one feature-major (d, N) buffer, so the draw never holds the
whole stream twice.  Given an executor, a built-in spec's stream is drawn by
two threads: a tail job on the executor draws the back half of the rows the
calling thread has not begun, from a copy of the bit generator advanced past
the rows before them, and the calling thread finds where the stream's own
normals rejoin that draw (numpy's ziggurat reads one or more raw draws per
normal; Marsaglia & Tsang 2000) and copies the tail from there, or draws it
itself: the stream is the same either way (see _innovations).  One DEBUG
record per built-in simulation, under the "lrdcov.simulate" logger, names the
rows the helper drew or why it drew none.

A built-in spec then convolves the buffer in place, in multi-row transform
calls of as many channels as fit _TRANSFORM_BYTES, and writes the product with
M^T into the output one block of time points at a time, through a small
(p, cols) buffer.  Both steps split their work in two halves, of the channels
and then of the copies; given an executor, one half is queued on it while the
calling thread runs the other, and a half it has not started by then is taken
back.  Every half and every block computes the same bits as the whole, so the
paths do not depend on which thread ran what or on the block sizes.
"""

from __future__ import annotations

import contextvars
import logging
import math
import os
import struct
import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import InvalidPlanError
from .model import CoefficientSpec, _check_budget, decay_sequence, template

# Estimated peak bytes of a built-in spec: 20 per N*d element and 36 per lag,
# fitted to peak-RSS growth, which unlike tracemalloc sees pocketfft's scratch.
# The (d, N) innovations live throughout: first beside the decay's transform
# (8 B per lag) and each running transform call's spectra and FFT scratch (24 B
# per lag for one channel; two calls run at once with a helper and d >= 2),
# then beside the output and the template buffers.  Below N = 65 536 a call
# holds up to _TRANSFORM_BYTES of spectra, d channels' in all at most: about
# the 8 B per element that the output takes later.  The helper's tail of the
# stream, at most half its rows and a 3% slack, lives only during the draw.
# At N 10^6 and 4*10^6, RSS per element reads 40 B at d = 1, 36 at d = 2 with a
# helper (24 without), 22 at d = 4 and 14-18 at d = 10, against estimates of 56,
# 38, 29 and 23.6.  A custom spec takes 14 per lag and entry of (p + 1) x (d + 1):
# its innovations, convolutions and coefficient transforms (RSS 8.8-13.3, p, d 1-10).
_BYTES_PER_ELEMENT = 20
_BYTES_PER_LAG = 36
_CUSTOM_BYTES_PER_ELEMENT = 14
# Bytes of one transform call's spectra and of one template block's (p, cols)
# buffer: blocks that stay in cache.
_TRANSFORM_BYTES = 1 << 20
_TEMPLATE_BYTES = 1 << 18
# Rows of E per standard_normal call: a chunk and its transpose stay in cache.
_CHUNK_ROWS = 1 << 13
# Normals of the stream the caller draws past its rows to find the helper's.
_PROBE = 4

_log = logging.getLogger(__name__)

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
        if not 0 <= self.seed < 2**64:  # the dump header stores it as a u64
            raise InvalidPlanError(f"seed = {self.seed} outside [0, 2^64)")
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
        """Estimated peak bytes of simulating this plan, the spectra each running
        transform call holds included (see _BYTES_PER_ELEMENT), beside the
        coefficients a custom spec already holds (see _CUSTOM_BYTES_PER_ELEMENT)."""
        p, d, N = self.spec.p, self.spec.d, self.N
        if self.spec.separable:
            return _BYTES_PER_ELEMENT * N * d + _BYTES_PER_LAG * N
        return _CUSTOM_BYTES_PER_ELEMENT * N * (p + 1) * (d + 1)


@dataclass(frozen=True)
class SampleBatch:
    """Simulated realizations plus the seed provenance that regenerates them."""

    data: np.ndarray          # (copies, n, p)
    master_seed: int
    derivation: str = _DERIVATION

    @property
    def copies(self) -> int:
        return self.data.shape[0]


def _in_halves(pool: Optional[Executor], fn: Callable[[int, int], object],
               total: int) -> list:
    """[fn(0, h), fn(h, total)] with h = total // 2, or [fn(0, total)] when h is 0.

    The first half is queued on `pool` in a copy of the caller's context while
    this thread runs the second; a first half the pool has not started by then
    is taken back and run here, so a busy pool never holds the caller up.
    Without a pool both halves run here.
    """
    half = total // 2
    if not half:
        return [fn(0, total)]
    # a cancelled job stays queued until the pool is free, so it holds fn, and the
    # arrays fn holds, only through `job`, which taking it back empties
    job = [fn]
    first = (pool.submit(contextvars.copy_context().run, lambda: job.pop()(0, half))
             if pool else None)
    try:
        second = fn(half, total)
    finally:
        if first is not None and first.cancel():
            first = None
            job.clear()
    return [first.result() if first else fn(0, half), second]


class _Tail:
    """The rows mid..N of a stream of N*d normals, drawn on a helper thread from a
    copy of the stream's bit generator, and the caller's progress that the
    helper claims them against, both read and written under `lock`."""

    def __init__(self, state: Optional[dict], N: int, d: int):
        self.lock = threading.Lock()
        self.state, self.N, self.d = state, N, d
        self.begun = 0  # the end of the chunk the caller draws now
        self.mid = N    # where the caller stops: below N once the helper has claimed

    def claim(self) -> int:
        """Claim the back half of the rows the caller has not begun; returns mid."""
        with self.lock:
            self.mid = self.begun + (self.N - self.begun + 1) // 2
            return self.mid

    def draw(self) -> Optional[np.ndarray]:
        """The normals from raw draw mid*d on: those of rows mid..N and _slack more,
        or None when no row is left."""
        mid = self.claim()
        if mid == self.N:
            return None
        bitgen = np.random.PCG64()
        bitgen.state = self.state
        bitgen.advance(mid * self.d)
        return np.random.Generator(bitgen).standard_normal(
            (self.N - mid) * self.d + _slack(mid * self.d))


def _slack(normals: int) -> int:
    """Normals the helper draws past the tail's own, for the `normals` before it:
    numpy's ziggurat reads 2.17-2.26% more raw draws than normals (10 seeds)."""
    return math.ceil(0.03 * normals) + 8


def _scatter(innov: np.ndarray, rows: np.ndarray, lo: int) -> None:
    """Write stream rows lo..lo+len(rows) into their places in `innov`."""
    hi = lo + len(rows)
    innov[1:, lo:hi] = rows[:, :0:-1].T
    if lo:
        innov[0, lo - 1:hi - 1] = rows[:, 0]
    else:  # stream row 0 feeds the last lag of channel 0
        innov[0, :hi - 1], innov[0, -1] = rows[1:, 0], rows[0, 0]


def _draw_rows(rng: np.random.Generator, innov: np.ndarray, chunk: np.ndarray, lo: int,
               tail: _Tail) -> int:
    """Draw stream rows from lo into `innov`, a chunk at a time, up to tail.mid;
    returns where it stopped."""
    while True:
        with tail.lock:
            hi = tail.begun = min(lo + len(chunk), tail.mid)
        if hi == lo:
            return lo
        rows = chunk[:hi - lo]
        rng.standard_normal(out=rows)
        _scatter(innov, rows, lo)
        lo = hi


def _innovations(rng: np.random.Generator, N: int, d: int,
                 pool: Optional[Executor] = None) -> tuple[np.ndarray, str]:
    """The (d, N) transpose of E, E[s, k] = stream[((s+1)*d - k) mod N*d] for the
    stream of N*d standard normals the PCG64 generator `rng` draws next, and
    which rows the helper drew.  Innovation row 0 is the stream's column 0
    rolled by one, the others its columns d-1..1: that map fixes which normal
    feeds which lag, so a seed always draws the same paths.  The stream is
    drawn in chunks of _CHUNK_ROWS rows, the same values as one call.

    Given a pool, a tail job queued on it claims, once started, rows mid..N,
    the back half of those the caller has not begun, and draws them from a
    copy of the bit generator advanced by mid*d raw draws.  Each normal reads
    one or more raw draws, so the stream's normal mid*d starts at or after raw
    draw mid*d: the copy starts at or before it, and from the first raw draw
    on which both start a normal they draw the same values, which comes
    within a few draws and, but for rare cases, before normal mid*d.  The job
    draws _slack(mid*d) normals beyond the tail's; the caller stops at mid,
    draws the next _PROBE normals, finds them in the job's draw and scatters
    the job's normals from there.  When they are not found, or when the job
    has not started by the time the caller has begun every row (it is then
    cancelled), the caller draws the rest itself.  The stream is the same
    either way, but `rng` is left at an unspecified point.  The job holds no
    part of `innov`.
    """
    innov = np.empty((d, N))
    chunk = np.empty((min(N, _CHUNK_ROWS), d))
    tail = _Tail(rng.bit_generator.state if pool else None, N, d)
    job = pool.submit(tail.draw) if pool else None
    try:
        mid = _draw_rows(rng, innov, chunk, 0, tail)
    except BaseException:
        if job is not None:
            job.cancel()
        raise
    if mid == N:
        if job is None or job.cancel():
            return innov, "no rows (no helper)" if job is None else "no rows (not started)"
        job.result()  # a started job found every row begun: it returns at once
        return innov, "no rows (nothing left)"
    need = (N - mid) * d
    saved = rng.bit_generator.state
    probe = rng.standard_normal(min(_PROBE, need))
    drawn = job.result()
    for at in np.flatnonzero(drawn[:len(drawn) - need + 1] == probe[0]):
        if np.array_equal(drawn[at:at + len(probe)], probe):
            rows = drawn[at:at + need].reshape(N - mid, d)
            for lo in range(0, N - mid, _CHUNK_ROWS):
                _scatter(innov, rows[lo:lo + _CHUNK_ROWS], mid + lo)
            return innov, f"rows {mid}..{N}"
    del drawn, job  # the job's future holds its draw too
    rng.bit_generator.state = saved
    tail.mid = N
    _draw_rows(rng, innov, chunk, mid, tail)
    return innov, "no rows (no match)"


def _convolve(innov: np.ndarray, kernel_fft: np.ndarray, lo: int, hi: int) -> None:
    """Circularly convolve channels lo:hi of `innov`, in place, with the kernel
    whose rfft is `kernel_fft`, in blocks of as many channels as their spectra
    fit in _TRANSFORM_BYTES, one multi-row transform call per block: the calls
    are fewer and cheaper per row, and a channel whose spectrum is larger still
    goes alone."""
    rows = max(1, _TRANSFORM_BYTES // kernel_fft.nbytes)
    spectra = np.empty((min(rows, hi - lo), len(kernel_fft)), dtype=complex)
    for start in range(lo, hi, rows):
        block = innov[start:min(start + rows, hi)]
        spectrum = spectra[:len(block)]
        np.fft.rfft(block, out=spectrum)
        for row in spectrum:  # a broadcast product of a small block buffers a copy
            row *= kernel_fft
        np.fft.irfft(spectrum, n=block.shape[1], out=block)


def _apply_template(scalar: np.ndarray, mat: np.ndarray, out: np.ndarray, n: int,
                    lo: int, hi: int) -> None:
    """out[lo:hi] = the (n, p) paths of copies lo:hi: the convolved channels'
    rows lo*n:hi*n times mat^T, one block of time points at a time into a
    (p, cols) buffer whose transpose is copied into the output rows.  einsum,
    not @: the draws stay independent of the BLAS build."""
    channels = scalar[:, lo * n:hi * n]
    paths = out[lo:hi].reshape(channels.shape[1], -1)
    # an eighth of the channels' bytes at most: both halves' buffers fit in the
    # 4 B per element that peak_bytes holds beyond the channels and the output
    cols = max(1, min(_TEMPLATE_BYTES, scalar.nbytes // 8) // (8 * len(mat)))
    buf = np.empty((len(mat), min(cols, len(paths))))
    for t in range(0, len(paths), cols):
        block = buf[:, :len(paths) - t]
        np.einsum("jk,km->jm", mat, channels[:, t:t + block.shape[1]], out=block)
        paths[t:t + block.shape[1]] = block.T


def simulate_multidimensional(plan: SimulationPlan,
                              pool: Optional[Executor] = None) -> SampleBatch:
    """Batch of (copies, n, p) paths drawn from one innovation stream.

    d real FFTs of length N convolve lags 0..min(N - 1, truncation) (see the
    module docstring); custom specs are contracted with their transformed
    coefficient stack per frequency.  A built-in spec's transforms and its
    template product each run in two halves, one of them queued on `pool`
    when one is given (see _in_halves); the paths are the same with or
    without it.  Raises MemoryBudgetError when the estimated peak,
    plan.peak_bytes, exceeds model.MEMORY_BUDGET.
    """
    spec, n, N, d = plan.spec, plan.n, plan.N, plan.spec.d
    copies = plan.copies_requested
    _check_budget(plan.peak_bytes, f"N*d = {N * d} needs")

    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    horizon = min(N - 1, spec.truncation)
    if spec.separable:
        # the decay's transform first: its lag-domain input dies before E is drawn
        decay_fft = np.fft.rfft(decay_sequence(spec, horizon + 1), n=N)
        innov, drawn = _innovations(rng, N, d, pool)
        _log.debug("N %d, d %d: the helper drew %s of the innovations", N, d, drawn)
        _in_halves(pool, partial(_convolve, innov, decay_fft), d)
        del decay_fft
        out = np.empty((copies, n, spec.p))
        _in_halves(pool, partial(_apply_template, innov, template(spec), out, n), copies)
    else:
        innov_fft = np.fft.rfft(_innovations(rng, N, d)[0])
        coeff_fft = np.fft.rfft(spec.coeffs[:horizon + 1], n=N, axis=0)
        series = np.fft.irfft(np.einsum("wjk,kw->jw", coeff_fft, innov_fft), n=N)
        del coeff_fft, innov_fft
        out = np.ascontiguousarray(series[:, :copies * n].T).reshape(copies, n, spec.p)
    return SampleBatch(out, plan.seed)


def save_batch(batch: SampleBatch, path) -> None:
    """Binary dump: magic, little-endian u64 header (n, p, copies, seed), then
    row-major float64 samples per copy."""
    copies, n, p = batch.data.shape
    if not 0 <= batch.master_seed < 2**64:
        raise ValueError(f"master_seed = {batch.master_seed} outside [0, 2^64)")
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
        data = np.empty((copies, n, p), dtype="<f8")  # read in place: no bytes copy
        if fh.readinto(data) != data.nbytes:
            raise ValueError("sample-batch file is truncated")
    data = data.astype(float, copy=False)  # a no-op on little-endian hosts
    return SampleBatch(data, int(seed), derivation=f"loaded from {path}")
