"""Monte-Carlo experiment driver.

For each grid cell (n, p, beta) the driver simulates `replicates` process
copies, computes the scaled max-deviation of the sample covariance (and
precision) per copy, draws the matching Gaussian reference sample from the
closed-form covariance, takes one block-bootstrap value per copy at a random
window position, and reports Kolmogorov and Wasserstein-1 distances between
the error sample and each approximation.

One horizon governs a cell.  The simulator convolves N = max(n^2, replicates*n)
lags, so the truth, the reference and the simulation plan all use the spec
with truncation N - 1, the last lag drawn, for the built-in (separable)
structures, and capped at N - 1 for custom ones.  The Gaussian references
are the long-run covariances (``n=None``) of that truncated process, summed
unweighted over all its lags, not the finite-n Fejer-weighted ones.

Every cell owns a seed derived from the experiment seed, so reruns of the
same configuration are byte-identical.  Wall-clock runtimes are measured and
kept on the in-memory results but serialized as 0 by default, because the
results CSV is required to be replay-deterministic.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bootstrap import DefaultBlocks, FixedBlocks, TheoreticalBlocks, resolve_block_length
from .errors import LrdcovError
from .estimate import sample_precision, EstimateResult
from .gaussref import build_reference, sample_max_abs
from .metrics import ecdf_points, kolmogorov_distance, qq_pairs, wasserstein1
from .model import (CoefficientSpec, banded_spec, gaussian_long_run_covariance,
                    omega_transformed_long_run, process_truth, toeplitz_spec)
from .simulate import SimulationPlan, simulate_multidimensional

COV_GA = "cov_ga"
COV_BOOT = "cov_boot"
PREC_GA = "prec_ga"
PREC_BOOT = "prec_boot"
ALL_TARGETS = (COV_GA, COV_BOOT, PREC_GA, PREC_BOOT)

RESULTS_HEADER = "n,p,beta,kind,ks,w1,runtime_ms,seed\n"
SKIPPED_HEADER = "n,p,beta,kind,reason\n"


@dataclass(frozen=True)
class ExperimentConfig:
    grid_n: Sequence[int]
    grid_p: Sequence[int]
    betas: Sequence[float]
    structure: str = "toeplitz"
    replicates: int = 200
    block_rule: object = field(default_factory=DefaultBlocks)
    targets: Sequence[str] = ALL_TARGETS
    seed: int = 0
    output_dir: str = "experiment-out"


@dataclass(frozen=True)
class CellResult:
    n: int
    p: int
    beta: float
    kind: str
    ks: float
    w1: float
    runtime_ms: int
    seed: int


@dataclass(frozen=True)
class SkippedTarget:
    n: int
    p: int
    beta: float
    kind: str
    reason: str


def parse_structure(token: str):
    """'toeplitz' or 'banded:<bandwidth>' -> spec builder (beta, p, truncation)."""
    if token == "toeplitz":
        return lambda beta, p, truncation: toeplitz_spec(beta, p, truncation)
    if token.startswith("banded:"):
        bandwidth = int(token.split(":", 1)[1])
        return lambda beta, p, truncation: banded_spec(beta, p, bandwidth, truncation)
    raise ValueError(f"unknown structure token {token!r}")


def parse_block_rule(token: str):
    """'default', 'fixed:<l>' or 'theoretical:<eps>[:scale]'."""
    if token == "default":
        return DefaultBlocks()
    if token.startswith("fixed:"):
        return FixedBlocks(int(token.split(":", 1)[1]))
    if token.startswith("theoretical:"):
        parts = token.split(":")[1:]
        epsilon = float(parts[0])
        scale = float(parts[1]) if len(parts) > 1 else 1.0
        return TheoreticalBlocks(epsilon, scale)
    raise ValueError(f"unknown block rule token {token!r}")


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def _cell_tag(n: int, p: int, beta: float) -> str:
    return f"n{n}_p{p}_b{beta:.6g}"


def _write_qq(path: Path, approx, errors, q: int) -> None:
    pairs = qq_pairs(approx, errors, q)
    with open(path, "w", newline="\n") as fh:
        fh.write("x,y\n")
        for x, y in pairs:
            fh.write(f"{x:.10g},{y:.10g}\n")


def _write_ecdf(path: Path, samples: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("value,statistic,F\n")
        for label, sample in samples.items():
            for value, level in ecdf_points(sample):
                fh.write(f"{value:.10g},{label},{level:.10g}\n")


def run_cell(spec: CoefficientSpec, n: int, *, replicates: int = 200,
             block_rule=DefaultBlocks(), targets: Sequence[str] = ALL_TARGETS,
             seed: int = 0, output_dir: Optional[str] = None,
             ) -> tuple[list[CellResult], list[SkippedTarget]]:
    """Run one grid cell; returns per-kind results plus skipped targets.

    A built-in spec's truncation is set to N - 1 and a custom one's capped
    there (see the module docstring), so the error is centred on the covariance
    of the process actually drawn.  The Gaussian reference samples come from
    the long-run covariance of that process, for the precision targets
    conjugated by the true Omega.
    """
    targets = tuple(targets)
    for kind in targets:
        if kind not in ALL_TARGETS:
            raise ValueError(f"unknown target {kind!r}")
    start = time.perf_counter()
    p, beta = spec.p, spec.beta
    results: list[CellResult] = []
    skipped: list[SkippedTarget] = []

    root = np.random.SeedSequence(seed)
    sim_ss, window_ss, zcov_ss, zprec_ss = root.spawn(4)

    l = resolve_block_length(block_rule, n, p, beta)
    N = max(n * n, replicates * n)
    spec = replace(spec, truncation=N - 1 if spec.separable else min(spec.truncation, N - 1))
    plan = SimulationPlan(spec, n, seed=_seed_int(sim_ss), N=N,
                          copies_requested=replicates)
    batch = simulate_multidimensional(plan)
    X = batch.data
    sigma_hats = np.einsum("knp,knq->kpq", X, X) / n

    truth = process_truth(spec, lags=min(2, spec.truncation))
    sqrt_n = math.sqrt(n)
    cov_stats = sqrt_n * np.abs(sigma_hats - truth.sigma).max(axis=(1, 2))

    want_prec = [k for k in (PREC_GA, PREC_BOOT) if k in targets]
    omega_hats = None
    prec_stats = None
    if want_prec:
        reason = None
        if p >= n:
            reason = f"precision targets need p < n (p={p}, n={n})"
        elif truth.omega is None:
            reason = "true covariance is not invertible"
        else:
            try:
                omega_hats = np.stack([
                    sample_precision(EstimateResult(sigma_hats[k], n))
                    for k in range(replicates)])
            except LrdcovError as exc:
                reason = f"sample precision failed: {exc}"
        if reason is not None:
            skipped.extend(SkippedTarget(n, p, beta, k, reason) for k in want_prec)
            want_prec = []
        else:
            prec_stats = sqrt_n * np.abs(omega_hats - truth.omega).max(axis=(1, 2))

    # One bootstrap value per copy at a uniformly random window end i in [l, n];
    # the same window serves both the covariance and the precision statistic.
    boot_cov = boot_prec = None
    if COV_BOOT in targets or PREC_BOOT in want_prec:
        rng_w = np.random.default_rng(window_ss)
        ends = rng_w.integers(l, n + 1, size=replicates)
        boot_cov = np.empty(replicates)
        boot_prec = np.empty(replicates) if PREC_BOOT in want_prec else None
        for k in range(replicates):
            rows = X[k, ends[k] - l:ends[k], :]
            dev = rows.T @ rows - l * sigma_hats[k]
            boot_cov[k] = np.abs(dev).max() / math.sqrt(l)
            if boot_prec is not None:
                conj = omega_hats[k] @ dev @ omega_hats[k]
                boot_prec[k] = np.abs(conj).max() / math.sqrt(l)

    samples: dict[str, np.ndarray] = {"cov_error": cov_stats}
    if prec_stats is not None:
        samples["prec_error"] = prec_stats

    def emit(kind: str, errors: np.ndarray, draw) -> None:
        try:
            approx = draw() if callable(draw) else draw
        except LrdcovError as exc:
            skipped.append(SkippedTarget(n, p, beta, kind, str(exc)))
            return
        samples[kind] = approx
        results.append(CellResult(
            n, p, beta, kind,
            kolmogorov_distance(errors, approx), wasserstein1(errors, approx),
            0, seed))

    if COV_GA in targets:
        emit(COV_GA, cov_stats, lambda: sample_max_abs(
            build_reference(gaussian_long_run_covariance(truth, None)),
            replicates, _seed_int(zcov_ss)))
    if COV_BOOT in targets:
        emit(COV_BOOT, cov_stats, boot_cov)
    if PREC_GA in want_prec:
        emit(PREC_GA, prec_stats, lambda: sample_max_abs(
            build_reference(omega_transformed_long_run(truth, None)),
            replicates, _seed_int(zprec_ss)))
    if PREC_BOOT in want_prec:
        emit(PREC_BOOT, prec_stats, boot_prec)

    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    results = [CellResult(r.n, r.p, r.beta, r.kind, r.ks, r.w1, elapsed_ms, r.seed)
               for r in results]

    if output_dir is not None:
        outdir = Path(output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        tag = _cell_tag(n, p, beta)
        q = min(99, replicates)
        for r in results:
            errors = samples["prec_error" if r.kind.startswith("prec") else "cov_error"]
            if q >= 2:
                _write_qq(outdir / f"qq_{tag}_{r.kind}.csv", samples[r.kind], errors, q)
        _write_ecdf(outdir / f"ecdf_{tag}.csv", samples)
    return results, skipped


def _format_result(r: CellResult, record_runtime: bool) -> str:
    runtime = r.runtime_ms if record_runtime else 0
    return (f"{r.n},{r.p},{r.beta:.6g},{r.kind},{r.ks:.6g},{r.w1:.6g},"
            f"{runtime},{r.seed}\n")


def run_grid(config: ExperimentConfig, workers: int = 1,
             record_runtime: bool = False) -> list[CellResult]:
    """Run the whole grid, streaming rows to <output_dir>/results.csv.

    Rows appear in grid order (beta, then n, then p) regardless of worker
    scheduling.  `record_runtime=True` writes measured runtimes into the CSV
    at the cost of replay determinism.
    """
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    build = parse_structure(config.structure)
    cells = [(beta, n, p) for beta in config.betas
             for n in config.grid_n for p in config.grid_p]

    def work(item):
        index, (beta, n, p) = item
        cell_seed = _seed_int(np.random.SeedSequence(config.seed, spawn_key=(index,)))
        spec = build(beta, p, None)  # run_cell sets the horizon to the simulated one
        try:
            return run_cell(spec, n, replicates=config.replicates,
                            block_rule=config.block_rule, targets=config.targets,
                            seed=cell_seed, output_dir=str(outdir))
        except (LrdcovError, ValueError) as exc:
            # whole-cell failure (memory budget, invalid plan, bad block
            # length, ...): mark every target as skipped and keep the grid going
            return [], [SkippedTarget(n, p, beta, kind, str(exc))
                        for kind in config.targets]

    all_results: list[CellResult] = []
    all_skipped: list[SkippedTarget] = []
    with open(outdir / "results.csv", "w", newline="\n") as fh:
        fh.write(RESULTS_HEADER)
        fh.flush()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                produced = pool.map(work, enumerate(cells))
                for results, skipped in produced:
                    for r in results:
                        fh.write(_format_result(r, record_runtime))
                    fh.flush()
                    all_results.extend(results)
                    all_skipped.extend(skipped)
        else:
            for item in enumerate(cells):
                results, skipped = work(item)
                for r in results:
                    fh.write(_format_result(r, record_runtime))
                fh.flush()
                all_results.extend(results)
                all_skipped.extend(skipped)
    if all_skipped:
        with open(outdir / "skipped.csv", "w", newline="\n") as fh:
            fh.write(SKIPPED_HEADER)
            for s in all_skipped:
                fh.write(f"{s.n},{s.p},{s.beta:.6g},{s.kind},{s.reason}\n")
    return all_results
