"""Batch simulation of the truncated process via circulant embedding.

One shared innovation stream, convolved by d real FFTs of length N up to the
spec's truncation, yields floor(N/n) copies of the n x p path at once; the
demo verifies pooled moments against the analytic autocovariances (same
truncation) and round-trips the binary dump format.

Run: python demos/02_fft_simulation.py
"""

import math
import tempfile
import time
from pathlib import Path

import numpy as np

from lrdcov import (SimulationPlan, autocovariance, load_batch, save_batch,
                    simulate_multidimensional, toeplitz_spec)

spec = toeplitz_spec(beta=0.9, p=3, truncation=500_000)
plan = SimulationPlan(spec, n=1000, seed=12345, copies_requested=120)
print(f"plan: n = {plan.n}, N = {plan.N}, copies = {plan.copies_requested} "
      f"(max {plan.max_copies})")

start = time.perf_counter()
batch = simulate_multidimensional(plan)
print(f"simulated {batch.data.shape} in {time.perf_counter() - start:.1f}s")
print("seed provenance:", batch.derivation)

X = batch.data
per_copy = np.einsum("knp,knq->kpq", X, X) / plan.n
gamma0 = autocovariance(spec, 0)
se = per_copy.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
print("pooled Gamma_0_hat =\n", np.round(per_copy.mean(axis=0), 4))
print("analytic Gamma_0  =\n", np.round(gamma0, 4))
print("max |error| / SE  =", float((np.abs(per_copy.mean(0) - gamma0) / se).max()))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "batch.lrdsim"
    save_batch(batch, path)
    loaded = load_batch(path)
    print(f"dump round trip: {path.stat().st_size} bytes, "
          f"identical = {np.array_equal(loaded.data, batch.data)}")
