"""Benchmark workloads: the Monte-Carlo study and the precision-graph pipeline.

Every workload makes its inputs from the workload seed alone.  `run_pass`
runs one pass of user-facing work through lrdcov's public API and returns the
latency of each user operation in it (a `run_grid` cell, or one subject from
ingest through diagnostics).  Output checks run outside the timed region and
count into the run's attempted/failed totals.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import statistics
import time
from pathlib import Path
from unittest import mock

import numpy as np

from lrdcov import bootstrap, harness, pipeline
from lrdcov import (ALL_TARGETS, ExperimentConfig, autocovariance, confidence_region,
                    covariance_blocks, default_block_length, quantile,
                    sample_covariance, sample_precision)

from tracing import MB, Span, Tracer, alloc_peak_mb, named, self_times

BETA = 2.0              # short-memory cell of the paper's Monte-Carlo tables
ALPHA = 0.05
SPARSITY = 0.2
ORACLE_RTOL = 1e-9      # tolerance of the exact-oracle acceptance criterion
ORACLE_N = 300          # length of the Monte-Carlo workloads' oracle subject
RANK_RTOL = 1e-10       # factor columns below this share of the largest are not useful
NORMAL = statistics.NormalDist()

# Generated graph inputs: spectral long memory with d = 0.3 (Hurst 0.8) and a
# nearest-neighbour coupling, so subjects have both long memory and edges.
LONG_MEMORY_D = 0.3
COUPLING = 0.4

SIZES = {
    "full": {
        "mc_long": {"n": 250, "p": 10, "replicates": 200},
        "mc_wide": {"n": 100, "p": 30, "replicates": 100},
        "graph_p50": {"n": 120, "p": 50, "subjects": 1},
        "graph_p5": {"n": 2000, "p": 5, "subjects": 10},
    },
    "tiny": {
        "mc_long": {"n": 64, "p": 3, "replicates": 20},
        "mc_wide": {"n": 40, "p": 6, "replicates": 20},
        "graph_p50": {"n": 256, "p": 8, "subjects": 1},
        "graph_p5": {"n": 256, "p": 3, "subjects": 4},
    },
}


class Checks:
    """Attempted operations and the failures among them (exceptions, skipped
    targets and failed output checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def long_memory_panel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """n x p series: fractionally filtered noise, then coupled to its neighbour."""
    freqs = np.fft.rfftfreq(2 * n)
    freqs[0] = freqs[1]
    shocks = np.fft.rfft(rng.standard_normal((2 * n, p)), axis=0)
    series = np.fft.irfft(shocks * freqs[:, None] ** -LONG_MEMORY_D, n=2 * n, axis=0)[:n]
    return series @ (np.eye(p) + COUPLING * np.eye(p, k=1)).T


def write_subject_csv(path: Path, data: np.ndarray) -> None:
    labels = ",".join(f"roi{j:02d}" for j in range(data.shape[1]))
    np.savetxt(path, data, fmt="%.10g", delimiter=",", header=labels, comments="")


def naive_precision_blocks(X: np.ndarray, l: int) -> np.ndarray:
    """Sorted l^{-1/2} |Omega (S_window - l Sigma_hat) Omega|_inf, one window at a time."""
    n = X.shape[0]
    sigma_hat = X.T @ X / n
    omega = np.linalg.inv(sigma_hat)
    values = [np.abs(omega @ (X[e - l:e].T @ X[e - l:e] - l * sigma_hat) @ omega).max()
              for e in range(l, n + 1)]
    return np.sort(values) / math.sqrt(l)


def check_oracle(checks: Checks, X: np.ndarray, l: int, got: np.ndarray) -> None:
    naive = naive_precision_blocks(X, l)
    ok = got.shape == naive.shape
    worst = float(np.max(np.abs(got - naive) / np.abs(naive))) if ok else math.inf
    checks.expect(worst < ORACLE_RTOL,
                  f"precision_blocks vs naive oracle: relative error {worst:.3e}")


def digest_dir(path: Path) -> str:
    sha = hashlib.sha256()
    for item in sorted(path.iterdir()):
        sha.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    return sha.hexdigest()


class Workload:
    """Shared replay check: every pass of a run, and every run with the same
    seed and program, must write byte-identical outputs."""

    def __init__(self, params: dict, seed: int, workdir: Path):
        self.params, self.seed, self.workdir = params, seed, workdir
        self.outdir = workdir / "pass"
        self.digest = None

    def prepare_pass(self, stack: contextlib.ExitStack) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def check_replay(self, checks: Checks) -> None:
        digest = digest_dir(self.outdir)
        if self.digest is None:
            self.digest = digest
        else:
            checks.expect(digest == self.digest,
                          "outputs differ between passes with the same seed")

    def check_store(self, checks: Checks, store: Path, key: str) -> None:
        """Compare with the digest an earlier run of the same key recorded."""
        if self.digest is None:
            return
        path = store / f"{key}.sha256"
        if path.exists():
            checks.expect(path.read_text() == self.digest,
                          f"outputs differ from an earlier run with key {key}")
            return
        store.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(self.digest)
        tmp.replace(path)

    def check_trace(self, spans: list[Span], checks: Checks) -> None:
        """Checks that need the arguments and results kept on traced spans."""


class MonteCarlo(Workload):
    """`run_grid` (the `lrdcov experiment` path) on one Toeplitz cell."""

    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        self.config = ExperimentConfig(
            grid_n=[params["n"]], grid_p=[params["p"]], betas=[BETA],
            structure="toeplitz", replicates=params["replicates"],
            targets=ALL_TARGETS, seed=seed, output_dir=str(self.outdir))
        self.results = []

    def derived(self) -> dict:
        n, p, reps = self.params["n"], self.params["p"], self.params["replicates"]
        N = max(n * n, reps * n)
        return {"N_computed": N, "d_computed": p, "innov_elements_computed": N * p,
                "l_computed": default_block_length(n),
                "reference_dim_computed": p * p,
                "reference_rank_bound_computed": p * (p + 1) // 2,
                "windows_computed": reps}

    def setup(self) -> None:
        warm = ExperimentConfig(grid_n=[64], grid_p=[2], betas=[BETA], replicates=10,
                                seed=self.seed, output_dir=str(self.workdir / "warmup"))
        harness.run_grid(warm, workers=1)

    def instrument(self, tracer: Tracer, stack: contextlib.ExitStack) -> None:
        tracer.wrap(stack, harness, "simulate_multidimensional", "simulate",
                    alloc=True, keep=True)
        tracer.wrap(stack, harness, "process_truth", "model.truth")
        for name in ("gaussian_long_run_covariance", "omega_transformed_long_run"):
            tracer.wrap(stack, harness, name, "model.refcov", alloc=True, keep=True)
        tracer.wrap(stack, harness, "build_reference", "gaussref.factor", keep=True)
        tracer.wrap(stack, harness, "sample_max_abs", "gaussref.draw")
        tracer.wrap(stack, harness, "sample_precision", "estimate.precision")
        for name in ("kolmogorov_distance", "wasserstein1"):
            tracer.wrap(stack, harness, name, "metrics.distance")

    def run_pass(self, tracer: Tracer) -> list[float]:
        with tracer.span("harness"):
            start = time.perf_counter()
            self.results = harness.run_grid(self.config, workers=1)
            return [time.perf_counter() - start]

    def check_pass(self, checks: Checks) -> None:
        by_kind = {r.kind: r for r in self.results}
        for kind in ALL_TARGETS:
            r = by_kind.get(kind)
            checks.expect(r is not None and 0.0 <= r.ks <= 1.0 and math.isfinite(r.w1),
                          f"{kind}: missing, skipped or out of range ({r})")
        self.check_replay(checks)

    def check_trace(self, spans, checks):
        # Simulator fidelity: the batch's mean Gamma_hat_0 against the truth, in
        # standard errors.  One entry may stray 4 SE with probability 6e-5; the
        # bound widens with the p(p+1)/2 distinct entries to keep that rate per run.
        for sp in named(spans, "simulate"):
            plan, X = sp.attrs["args"][0], sp.attrs["result"].data
            p = X.shape[2]
            per_copy = np.einsum("knp,knq->kpq", X, X) / X.shape[1]
            se = per_copy.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
            z = np.abs(per_copy.mean(axis=0) - autocovariance(plan.spec, 0)) / se
            bound = max(4.0, -NORMAL.inv_cdf(NORMAL.cdf(-4.0) / (p * (p + 1) / 2)))
            checks.expect(bool((z < bound).all()),
                          f"simulated Gamma_0 off the truth: worst |error| "
                          f"{z.max():.2f} SE, bound {bound:.2f} SE")

    def finish(self, checks: Checks) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        X = long_memory_panel(rng, ORACLE_N, self.params["p"])
        l = default_block_length(ORACLE_N)
        check_oracle(checks, X, l, bootstrap.precision_blocks(X, l).values)


class Graph(Workload):
    """Per subject: ingest -> subject_graph -> confidence_region(covariance_blocks)
    -> subject_diagnostics; per pass: aggregate_group -> write_*_csv."""

    def __init__(self, params, seed, workdir):
        super().__init__(params, seed, workdir)
        self.n, self.p = params["n"], params["p"]
        self.l = default_block_length(self.n)
        self.paths = [workdir / "inputs" / f"subject{k:03d}.csv"
                      for k in range(params["subjects"])]
        self.captured: list = []
        self.outcomes: list = []

    def derived(self) -> dict:
        per_subject = self.n - self.l + 1
        return {"l_computed": self.l,
                "windows_computed": 2 * per_subject * len(self.paths)}

    def setup(self) -> None:
        self.paths[0].parent.mkdir(parents=True, exist_ok=True)
        children = np.random.SeedSequence(self.seed).spawn(len(self.paths))
        for path, child in zip(self.paths, children):
            write_subject_csv(path, long_memory_panel(np.random.default_rng(child),
                                                      self.n, self.p))
        warm = self.workdir / "warmup.csv"
        write_subject_csv(warm, long_memory_panel(np.random.default_rng(0), 256, 3))
        subject = pipeline.ingest(warm)
        pipeline.subject_graph(subject, ALPHA)
        covariance_blocks(subject.data, default_block_length(256))
        pipeline.subject_diagnostics(subject)

    def instrument(self, tracer, stack):
        tracer.wrap(stack, pipeline, "sample_precision", "estimate.precision")
        tracer.wrap(stack, pipeline, "precision_blocks", "bootstrap.prec_blocks",
                    alloc=True, keep=True)

    def prepare_pass(self, stack):
        super().prepare_pass(stack)
        # Keep each subject's precision bootstrap for the q_hat and oracle checks.
        self.captured = []
        original = pipeline.precision_blocks

        def capture(*args, **kwargs):
            dist = original(*args, **kwargs)
            self.captured.append(dist)
            return dist

        stack.enter_context(mock.patch.object(pipeline, "precision_blocks", capture))

    def run_pass(self, tracer: Tracer) -> list[float]:
        latencies, edge_sets, diagnostics, self.outcomes = [], [], [], []
        for path in self.paths:
            start = time.perf_counter()
            try:
                with tracer.span("pipeline.ingest", path=path):
                    subject = pipeline.ingest(path)
                with tracer.span("pipeline.graph"):
                    edges = pipeline.subject_graph(subject, ALPHA)
                with tracer.span("bootstrap.cov_blocks", alloc=True,
                                 windows=self.n - self.l + 1):
                    region = confidence_region(
                        sample_covariance(subject.data).sigma_hat,
                        covariance_blocks(subject.data, self.l), self.n, ALPHA)
                with tracer.span("pipeline.diag"):
                    rows = pipeline.subject_diagnostics(subject)
            except Exception as exc:  # counted as a failed operation
                self.outcomes.append(f"{path.name}: {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            self.outcomes.append(region.half_width)
            edge_sets.append(edges)
            diagnostics.append((subject.id, rows))
        with tracer.span("pipeline.aggregate"):
            group = pipeline.aggregate_group(edge_sets, SPARSITY)
        with tracer.span("pipeline.write"):
            pipeline.write_edges_csv(group, self.outdir / "edges.csv")
            pipeline.write_diagnostics_csv(diagnostics, self.outdir / "diagnostics.csv")
        return latencies

    def check_pass(self, checks):
        for path, outcome in zip(self.paths, self.outcomes):
            checks.expect(not isinstance(outcome, str) and math.isfinite(outcome),
                          f"{path.name}: failed or covariance half width {outcome}")
        q_hats = [quantile(dist, 1.0 - ALPHA) for dist in self.captured]
        checks.expect(all(math.isfinite(q) for q in q_hats),
                      f"precision q_hat not finite: {q_hats}")
        self.check_replay(checks)

    def finish(self, checks):
        data = pipeline.ingest(self.paths[0]).data
        if self.captured:
            dist = self.captured[0]
        else:
            dist = bootstrap.precision_blocks(data, self.l,
                                              omega=sample_precision(sample_covariance(data)))
        check_oracle(checks, data, self.l, dist.values)


def make_workload(name: str, size: str, seed: int, workdir: Path) -> Workload:
    kind = MonteCarlo if name.startswith("mc_") else Graph
    return kind(SIZES[size][name], seed, workdir)


# Traced-run layer metrics ----------------------------------------------------

# metric -> span whose self time it reports
TIME_LAYERS = {
    "simulate.s": "simulate",
    "model.truth_s": "model.truth",
    "model.refcov_s": "model.refcov",
    "gaussref.factor_s": "gaussref.factor",
    "gaussref.draw_s": "gaussref.draw",
    "estimate.precision_s": "estimate.precision",
    "bootstrap.prec_blocks_s": "bootstrap.prec_blocks",
    "bootstrap.cov_blocks_s": "bootstrap.cov_blocks",
    "metrics.distance_s": "metrics.distance",
    "harness.self_s": "harness",
    "pipeline.ingest_s": "pipeline.ingest",
    "pipeline.graph_self_s": "pipeline.graph",
    "pipeline.diag_s": "pipeline.diag",
    "pipeline.aggregate_s": "pipeline.aggregate",
    "pipeline.write_s": "pipeline.write",
}


def useful_columns(factor: np.ndarray) -> int:
    norms = (factor * factor).sum(axis=0)
    return int(np.count_nonzero(norms > RANK_RTOL * norms.max()))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass; 0 where a layer did not run."""
    own = self_times(spans)
    out = {metric: own.get(span, 0.0) for metric, span in TIME_LAYERS.items()}

    sims = named(spans, "simulate")
    out["simulate.calls"] = len(sims)
    out["simulate.innov_elements"] = sum(sp.attrs["args"][0].N * sp.attrs["args"][0].spec.d
                                         for sp in sims)
    out["simulate.alloc_peak_mb"] = alloc_peak_mb(sims)

    refs = named(spans, "model.refcov")
    out["model.refcov_dim"] = max((sp.attrs["result"].shape[0] for sp in refs), default=0)
    out["model.refcov_alloc_peak_mb"] = alloc_peak_mb(refs)

    factors = [sp.attrs["result"].factor for sp in named(spans, "gaussref.factor")]
    ranks = [useful_columns(f) for f in factors]
    out["gaussref.rank"] = statistics.mean(ranks) if ranks else 0
    out["gaussref.rank_ratio"] = (sum(ranks) / sum(f.shape[0] for f in factors)
                                  if factors else 0.0)

    precisions = named(spans, "estimate.precision")
    out["estimate.precision_calls"] = len(precisions)
    out["estimate.precision_failed"] = sum(sp.failed for sp in precisions)

    prec_blocks = named(spans, "bootstrap.prec_blocks")
    cov_blocks = named(spans, "bootstrap.cov_blocks")
    prec_windows = sum(sp.attrs["args"][0].shape[0] - sp.attrs["args"][1] + 1
                       for sp in prec_blocks)
    out["bootstrap.windows"] = prec_windows + sum(sp.attrs["windows"] for sp in cov_blocks)
    out["bootstrap.prec_us_per_window"] = (1e6 * out["bootstrap.prec_blocks_s"] / prec_windows
                                           if prec_windows else 0.0)
    out["bootstrap.alloc_peak_mb"] = alloc_peak_mb(prec_blocks + cov_blocks)

    out["metrics.calls"] = len(named(spans, "metrics.distance"))

    ingested_mb = sum(os.path.getsize(sp.attrs["path"])
                      for sp in named(spans, "pipeline.ingest")) / MB
    out["pipeline.ingest_mb_per_s"] = (ingested_mb / out["pipeline.ingest_s"]
                                       if ingested_mb else 0.0)
    return out
