"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host, whose speed swings by up to
2x in stretches of 0.5-5 s as neighbours come and go.  A whole run can fall into
a slow stretch, so a plain wall time (even a median over the run's passes)
moves by more than a regression bound between runs of the same code.

Each timed item (a pass, or a set-up repetition) is therefore bracketed by a
fixed reference kernel that uses numpy and Python only, never lrdcov, so a
change to the program cannot move it.  The kernel mixes the kinds of work the
workloads do: small LAPACK inverses, batched 50x50 products, Python-level float
parsing and an FFT over a 2 MB array.  An item's time divided by the mean of
the two reference times around it is its cost in reference-kernel units;
multiplied by REFERENCE_S it reads as seconds on a host where the kernel takes
REFERENCE_S.  A slower or faster program moves that figure by the same share
as its wall time; a slower host stretch moves the reference kernel too and
cancels out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The reference kernel's time on a 2-vCPU x86_64 VM with AVX-512 (OpenBLAS at
# one thread) in a quiet stretch.  Any constant works; this one keeps the
# scaled figures close to the wall times of a quiet run.
REFERENCE_S = 0.02

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((40, 40))
_STACK = _rng.standard_normal((64, 50, 50))
_SIGNAL = _rng.standard_normal(1 << 18)
_TEXT = ",".join(f"{0.37 * i:.10g}" for i in range(24000))


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    eye = np.eye(_SMALL.shape[0])
    for i in range(60):
        np.linalg.inv(_SMALL + i * eye)
    for _ in range(16):
        _STACK @ _STACK
    sum(float(x) for x in _TEXT.split(","))
    np.fft.irfft(np.fft.rfft(_SIGNAL))
    return time.perf_counter() - start


def scaled_median(items: list[tuple[float, float, float]]) -> float:
    """Median over (time, reference before, reference after) triples of the
    time in reference units, times REFERENCE_S."""
    return REFERENCE_S * statistics.median(
        t / ((before + after) / 2) for t, before, after in items)
