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
unweighted over all its lags, not the finite-n Fejer-weighted ones.  For the
built-in structures that covariance is f times the pair product of L L^T,
the law of sqrt(f) L S L^T with L = M (or Omega M for the precision), so the
cell draws it in that matrix form: no p^2 x p^2 matrix, no eigh, and draws
that do not depend on the BLAS thread count.  Custom specs assemble the
covariance and factor it.

A cell runs in two lanes.  The calling thread simulates the copies and scores
them per copy: Sigma_hat, Omega_hat, their max-deviations and one bootstrap
window each.  The reference lane needs only the spec and its lag-0 truth: it
computes the long-run factor and the matrix draws of a built-in spec, or a
custom spec's Gamma_0..Gamma_H stack, dense reference and factor, and their
draws.  It is the first job of the cell's one helper thread, placed before it
starts: beside the simulation when both lanes' estimated peaks fit
model.MEMORY_BUDGET together (numpy releases the GIL in the draws, FFTs, einsum
and batched linear algebra), and otherwise alone, with the calling thread
waiting for it before it simulates, so the lane never meets the paths.  The
calling thread's peak is the simulation's, or the paths beside both copy
blocks' (copies, p, p) stacks if larger.  Each estimate is fitted to peak RSS
and meets the budget in one check, model._check_budget: the calling thread's
raises MemoryBudgetError before the cell simulates, the lane's skips its
targets.  The helper also takes half of the work three times, each time in a
half queued on it while the calling thread runs the other (simulate._in_halves):
the simulation's transforms, its template product, and the per-copy statistics,
in two blocks of copies whose stacks die with the block.  A half the helper has
not started by then, because the reference lane still holds it, is taken back
and run inline.  Each lane draws from its own seed, every half computes what
the whole would for its channels or copies and scoring stays on the calling
thread, so the outputs do not depend on which thread ran what.  One DEBUG
record per cell, under the "lrdcov.harness" logger, gives the wall time of each
phase and which thread ran each block.

Every cell owns a seed derived from the experiment seed, so reruns of the
same configuration are byte-identical.  Wall-clock runtimes are measured and
kept on the returned results but written to the results CSV as 0, because
that file is required to be replay-deterministic.
"""

from __future__ import annotations

import contextvars
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
from numbers import Integral, Real
from os import PathLike
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import model
from .bootstrap import DefaultBlocks, FixedBlocks, TheoreticalBlocks, resolve_block_length
from .errors import LrdcovError
from .estimate import max_deviation, sample_covariance, sample_precision
from .gaussref import MatrixReference, _draws_per_chunk, build_reference, sample_max_abs
from .metrics import ecdf_points, kolmogorov_distance, qq_pairs, wasserstein1
from .model import (_REFERENCE_BYTES_PER_P4, CoefficientSpec, ProcessTruth, _check_budget,
                    _long_run_factor, autocovariance_sequence, banded_spec,
                    gaussian_long_run_covariance, omega_transformed_long_run,
                    process_truth, template, toeplitz_spec)
from .simulate import SimulationPlan, _in_halves, simulate_multidimensional

COV_GA = "cov_ga"
COV_BOOT = "cov_boot"
PREC_GA = "prec_ga"
PREC_BOOT = "prec_boot"
ALL_TARGETS = (COV_GA, COV_BOOT, PREC_GA, PREC_BOOT)

# Reference-lane peak bytes, fitted to peak-RSS growth, which unlike tracemalloc
# sees pocketfft's scratch: 32 per point of the long-run factor's FFT (RSS reads
# 22-31.4 at 2^18-2^25 points, tracemalloc 12), 34 per element of one chunk of
# draws (RSS 31.7-32.7 at p 30-300), and 13 per point and entry of a custom
# spec's (nfft, p, p + d) lag FFT plus as much per point for its scratch (RSS
# 11-12.7 per point and entry at p 2-20, and 16 at p = d = 1).
_FACTOR_BYTES_PER_POINT = 32
_DRAW_BYTES_PER_ELEMENT = 34
_LAG_BYTES_PER_ELEMENT = 13
# Copy-block peak bytes per copy and (p, p) entry (Sigma_hat, `dev` and a temporary;
# with the precision targets Omega_hat, its window conjugate and temporaries): over
# peak-RSS growth at p 50-200 (23.7-25.4 and 40-41.5) and within 10% of tracemalloc.
_COV_BLOCK_BYTES_PER_ENTRY = 26
_PREC_BLOCK_BYTES_PER_ENTRY = 43

_log = logging.getLogger(__name__)

RESULTS_HEADER = "n,p,beta,kind,ks,w1,runtime_ms,seed\n"
SKIPPED_HEADER = "n,p,beta,kind,reason\n"
STRUCTURE_FORMS = "'toeplitz' or 'banded:<bandwidth>'"
BLOCK_RULE_FORMS = "'default', 'fixed:<l>' or 'theoretical:<eps>[:scale]'"


# Each config field's type and how an error names it; the list fields hold that type.
_FIELD_TYPES = {"grid_n": (Integral, "positive integers"),
                "grid_p": (Integral, "positive integers"),
                "betas": (Real, "finite positive numbers"), "targets": (str, "strings"),
                "structure": (str, "a string"), "seed": (Integral, "a non-negative integer"),
                "replicates": (Integral, "a positive integer"),
                "output_dir": ((str, PathLike), "a path"),
                "block_rule": ((DefaultBlocks, FixedBlocks, TheoreticalBlocks),
                               "a block rule")}
_LIST_FIELDS = ("grid_n", "grid_p", "betas", "targets")
_POSITIVE_FIELDS = ("grid_n", "grid_p", "betas", "replicates")


def _check_field(key: str, value, name: str) -> None:
    """Raise a ValueError naming `name` unless `value` suits the config field `key`:
    a wrong type would fail deep in a cell, a bare string of targets per character."""
    (kind, forms), listed = _FIELD_TYPES[key], key in _LIST_FIELDS
    if (listed and (isinstance(value, str) or not isinstance(value, Sequence))
            or any(not isinstance(v, kind) or isinstance(v, bool)
                   or key in _POSITIVE_FIELDS and not 0 < v < math.inf
                   or key == "seed" and v < 0 for v in (value if listed else [value]))):
        raise ValueError(f"{name} must be {'a list of ' * listed}{forms}, got {value!r}")


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

    def __post_init__(self):
        for key in _FIELD_TYPES:
            _check_field(key, getattr(self, key), f"config key {key!r}")
        _parse_token(parse_structure, self.structure, "config key 'structure'", STRUCTURE_FORMS)
        unknown = [k for k in self.targets if k not in ALL_TARGETS]
        if unknown:
            raise ValueError(f"unknown targets {unknown}; choose from {list(ALL_TARGETS)}")


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


def _parse_token(parse, token: str, name: str, forms: str):
    """parse(token), with a ValueError that names `name`, the `forms` and the token."""
    try:
        return parse(token)
    except ValueError as exc:
        raise ValueError(f"{name} must be {forms}, got {token!r} ({exc})") from exc


def parse_structure(token: str):
    """'toeplitz' or 'banded:<bandwidth>' -> spec builder (beta, p, truncation)."""
    if token == "toeplitz":
        return lambda beta, p, truncation: toeplitz_spec(beta, p, truncation)
    if token.startswith("banded:"):
        bandwidth = int(token.split(":", 1)[1])
        if bandwidth < 1:
            raise ValueError(f"bandwidth {bandwidth} is below 1")
        return lambda beta, p, truncation: banded_spec(beta, p, bandwidth, truncation)
    raise ValueError(f"unknown structure token {token!r}")


def parse_block_rule(token: str):
    """'default', 'fixed:<l>' or 'theoretical:<eps>[:scale]'."""
    if token == "default":
        return DefaultBlocks()
    if token.startswith("fixed:"):
        return FixedBlocks(int(token.split(":", 1)[1]))
    if token.startswith("theoretical:"):
        epsilon, *scale = map(float, token.split(":", 2)[1:])
        return TheoreticalBlocks(epsilon, *scale)
    raise ValueError(f"unknown block rule token {token!r}")


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def _rows(fmt: str, points) -> str:
    """One line of `fmt` per pair in `points`, formatted by one % over all of them."""
    return (fmt * len(points)) % tuple(chain.from_iterable(points))


def _write_qq(path: Path, approx, errors, q: int) -> None:
    path.write_text("x,y\n" + _rows("%.10g,%.10g\n", qq_pairs(approx, errors, q)),
                    newline="\n")


def _write_ecdf(path: Path, samples: dict) -> None:
    path.write_text("value,statistic,F\n" + "".join(
        _rows(f"%.10g,{label},%.10g\n", ecdf_points(sample))
        for label, sample in samples.items()), newline="\n")


def _reference_draws(truth: ProcessTruth, kinds: Sequence[str], replicates: int,
                     seeds: dict) -> dict:
    """The reference lane of a cell: per Gaussian-approximation kind, in ALL_TARGETS
    order, `replicates` draws of |Z|_inf, or the LrdcovError its reference raised.

    It reads the spec and its lag-0 truth alone, and checks its whole estimated
    peak, _reference_peak_bytes, before it allocates.  An LrdcovError, that
    check's included, skips its kind; any other exception ends the lane and the cell.
    """
    spec, draws, scale = truth.spec, {}, None
    for kind in kinds:
        prec = kind == PREC_GA
        try:
            _check_budget(_reference_peak_bytes(spec, replicates), f"the {kind} reference needs")
            if spec.separable:
                # f * pair product of L L^T is the law of sqrt(f) L S L^T, L = M or Omega M
                scale, mat = scale or math.sqrt(_long_run_factor(spec)), template(spec)
                ref = MatrixReference(np.einsum("ij,jk->ik", truth.omega, mat)
                                      if prec else mat, scale)
            else:
                if truth.lags < spec.truncation:
                    # both references read one Gamma_0..Gamma_H stack; sigma and
                    # omega stay those of the lag-0 call (an FFT-built Gamma_0
                    # differs in the last bits)
                    truth = replace(truth, gamma=autocovariance_sequence(
                        spec, spec.truncation))
                ref = build_reference(omega_transformed_long_run(truth, None) if prec
                                      else gaussian_long_run_covariance(truth, None))
            draws[kind] = sample_max_abs(ref, replicates, seeds[kind])
        except LrdcovError as exc:
            draws[kind] = exc
    return draws


def _copy_block(X: np.ndarray, ends: np.ndarray, truth: ProcessTruth, l: int, prec: bool,
                boots: Sequence[str], lo: int, hi: int) -> dict:
    """Per-copy statistics of copies lo:hi of X (R, n, p), by label: "cov_error",
    and "prec_error" when `prec`, the scaled max-deviations of Sigma_hat and
    Omega_hat; and each bootstrap kind in `boots`, one window per copy ending at
    `ends` (PREC_BOOT only with `prec`).  A failing sample precision leaves the
    LrdcovError of the block's first failing copy under "prec_error" and no
    PREC_BOOT.  Every batched call treats each copy on its own, so a block holds
    the values, and names the error, that the whole stack would for its copies,
    and its (hi - lo, p, p) stacks die with it.
    """
    n = X.shape[1]
    est = sample_covariance(X[lo:hi])
    stats = {"cov_error": max_deviation(est.sigma_hat, truth.sigma, n)}
    if boots:
        # l^-1/2 |rows^T rows - l Sigma_hat|_inf over the window's rows, and the
        # same for its Omega_hat conjugate; one window serves both statistics
        rows = X[np.arange(lo, hi)[:, None], ends[lo:hi, None] - l + np.arange(l)]
        dev = np.swapaxes(rows, 1, 2) @ rows
        dev -= l * est.sigma_hat
        if COV_BOOT in boots:
            stats[COV_BOOT] = np.abs(dev).max(axis=(1, 2)) / math.sqrt(l)
    if prec:
        try:
            omega_hats = sample_precision(est)
        except LrdcovError as exc:
            stats["prec_error"] = exc
            return stats
        stats["prec_error"] = max_deviation(omega_hats, truth.omega, n)
        if PREC_BOOT in boots:
            window = omega_hats @ dev @ omega_hats
            stats[PREC_BOOT] = np.abs(window).max(axis=(1, 2)) / math.sqrt(l)
    return stats


def _timed(fn, *args):
    """fn(*args) and "[lo:hi ]<wall seconds> s on <thread name>", lo:hi for a call
    fn(lo, hi) on the copies lo:hi."""
    start = time.perf_counter()
    out = fn(*args)
    took = f"{time.perf_counter() - start:.4f} s on {threading.current_thread().name}"
    return out, "%d:%d %s" % (*args, took) if args else took


def _reference_peak_bytes(spec: CoefficientSpec, replicates: int) -> int:
    """Estimated peak bytes of the reference lane, with H = spec.truncation.  A
    built-in spec: the larger of its long-run factor's FFT over 2^ceil(log2 2H)
    points and one chunk of draws.  A custom spec: its lag FFT over as many
    points, its dense reference and one chunk of draws."""
    p, points = spec.p, 1 << (2 * spec.truncation).bit_length()
    draws = _DRAW_BYTES_PER_ELEMENT * _draws_per_chunk(p * p, replicates) * p * p
    if spec.separable:
        return max(_FACTOR_BYTES_PER_POINT * points, draws)
    return (_REFERENCE_BYTES_PER_P4 * p**4
            + _LAG_BYTES_PER_ELEMENT * points * (p * (p + spec.d) + 1) + draws)


def _blocks_peak_bytes(p: int, l: int, copies: int, prec: bool) -> int:
    """Estimated peak bytes of copy blocks over `copies` copies in all, running at
    once: per copy, the window's (l, p) rows beside the larger of their gather
    (two (l,) index rows and Sigma_hat) and the (p, p) stacks of _copy_block."""
    per_entry = _PREC_BLOCK_BYTES_PER_ENTRY if prec else _COV_BLOCK_BYTES_PER_ENTRY
    return copies * (8 * l * p + max(8 * (2 * l + p * p), per_entry * p * p))


def _main_peak_bytes(plan: SimulationPlan, l: int, prec: bool) -> int:
    """Estimated peak bytes of a cell's calling thread: the simulation's, or the
    (copies, n, p) paths beside both copy blocks, whichever is larger."""
    copies, n, p = plan.copies_requested, plan.n, plan.spec.p
    return max(plan.peak_bytes, 8 * copies * n * p + _blocks_peak_bytes(p, l, copies, prec))


def run_cell(spec: CoefficientSpec, n: int, *, replicates: int = 200,
             block_rule=DefaultBlocks(), targets: Sequence[str] = ALL_TARGETS,
             seed: int = 0, output_dir: Optional[str] = None,
             ) -> tuple[list[CellResult], list[SkippedTarget]]:
    """Run one grid cell; returns per-kind results plus skipped targets.

    A built-in spec's truncation is set to N - 1 and a custom one's capped
    there (see the module docstring), so the error is centred on the covariance
    of the process actually drawn.  The Gaussian reference samples come from
    the long-run covariance of that process, for the precision targets
    conjugated by the true Omega, drawn on the cell's helper thread (see the
    module docstring).  Targets are scored one at a time, in ALL_TARGETS order.
    """
    for key, value in (("targets", targets), ("replicates", replicates), ("seed", seed)):
        _check_field(key, value, key)
    targets = tuple(targets)
    for kind in targets:
        if kind not in ALL_TARGETS:
            raise ValueError(f"unknown target {kind!r}")
    kinds = [k for k in ALL_TARGETS if k in targets]
    start = time.perf_counter()
    p, beta = spec.p, spec.beta
    skipped: list[SkippedTarget] = []

    root = np.random.SeedSequence(seed)
    sim_ss, window_ss, zcov_ss, zprec_ss = root.spawn(4)

    l = resolve_block_length(block_rule, n, p, beta)
    N = max(n * n, replicates * n)
    spec = replace(spec, truncation=N - 1 if spec.separable else min(spec.truncation, N - 1))
    plan = SimulationPlan(spec, n, seed=_seed_int(sim_ss), N=N,
                          copies_requested=replicates)
    _check_budget(plan.peak_bytes, f"N*d = {N * spec.d} needs")  # before the truth's H + 1 lags
    truth = process_truth(spec, lags=0)
    prec_kinds = [k for k in kinds if k in (PREC_GA, PREC_BOOT)]
    reason = (f"precision targets need p < n (p={p}, n={n})" if p >= n
              else "true covariance is not invertible" if truth.omega is None else None)
    # prec_ga is drawn unless a reason skips it now; if the sample precision then
    # fails, known only after the simulation, its draws go unused
    ga_kinds = [k for k in kinds if k == COV_GA or k == PREC_GA and reason is None]
    boots = [k for k in kinds if k == COV_BOOT or k == PREC_BOOT and reason is None]
    prec = bool(prec_kinds) and reason is None
    main = _main_peak_bytes(plan, l, prec)
    _check_budget(main, f"{replicates} copies of a {n} x {p} path with their per-copy "
                  f"statistics need")
    lane = partial(contextvars.copy_context().run, _reference_draws, truth, ga_kinds,
                   replicates, {COV_GA: _seed_int(zcov_ss), PREC_GA: _seed_int(zprec_ss)})
    alone = ga_kinds and main + _reference_peak_bytes(spec, replicates) > model.MEMORY_BUDGET
    with ThreadPoolExecutor(1, "lrdcov-helper") as pool:
        helper = pool.submit(_timed, lane)
        if alone:  # the lanes fit only one at a time: the reference lane ends first
            helper.result()
        sim_s = time.perf_counter()
        X = simulate_multidimensional(plan, pool).data
        sim_s = time.perf_counter() - sim_s
        ends = np.random.default_rng(window_ss).integers(l, n + 1, size=replicates)
        block = partial(_copy_block, X, ends, truth, l, prec, boots)
        blocks = _in_halves(pool, partial(_timed, block), replicates)
        draws, lane_took = helper.result()

    outs = [out for out, _ in blocks]
    failed = [out["prec_error"] for out in outs
              if isinstance(out.get("prec_error"), LrdcovError)]
    if failed:
        reason = f"sample precision failed: {failed[0]}"
    stats = {key: np.concatenate([out[key] for out in outs]) for key in outs[0]
             if not (failed and key in ("prec_error", PREC_BOOT))}
    if prec_kinds and reason is not None:
        skipped.extend(SkippedTarget(n, p, beta, k, reason) for k in prec_kinds)
        kinds = [k for k in kinds if k not in prec_kinds]
    samples = {key: stats[key] for key in ("cov_error", "prec_error") if key in stats}

    scoring_s = time.perf_counter()
    scores = []
    for kind in kinds:
        errors = samples["prec_error" if kind in (PREC_GA, PREC_BOOT) else "cov_error"]
        if kind in (COV_BOOT, PREC_BOOT):
            approx = stats[kind]
        else:
            approx = draws[kind]
            if isinstance(approx, LrdcovError):
                skipped.append(SkippedTarget(n, p, beta, kind, str(approx)))
                continue
        samples[kind] = approx
        scores.append((kind, kolmogorov_distance(errors, approx),
                       wasserstein1(errors, approx)))
    scoring_s = time.perf_counter() - scoring_s

    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    results = [CellResult(n, p, beta, kind, ks, w1, elapsed_ms, seed)
               for kind, ks, w1 in scores]

    write_s = time.perf_counter()
    if output_dir is not None:
        outdir = Path(output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        tag = f"n{n}_p{p}_b{beta:.6g}"
        q = min(99, replicates)
        for r in results:
            errors = samples["prec_error" if r.kind.startswith("prec") else "cov_error"]
            if q >= 2:
                _write_qq(outdir / f"qq_{tag}_{r.kind}.csv", samples[r.kind], errors, q)
        _write_ecdf(outdir / f"ecdf_{tag}.csv", samples)
    write_s = time.perf_counter() - write_s
    _log.debug("cell n=%d p=%d beta=%.6g: simulate %.4f s; copies %s; reference lane %s; "
               "scoring %.4f s; sidecars %.4f s", n, p, beta, sim_s,
               ", ".join(took for _, took in blocks), lane_took, scoring_s, write_s)
    return results, skipped


def run_grid(config: ExperimentConfig, workers: int = 1) -> list[CellResult]:
    """Run the whole grid, streaming rows to <output_dir>/results.csv.

    Rows appear in grid order (beta, then n, then p) regardless of worker
    scheduling.  The CSV's runtime_ms column is 0 so that reruns are
    byte-identical; the measured runtimes are on the returned CellResults.
    `workers` cells run at once, each with its own helper thread and each held
    to the whole model.MEMORY_BUDGET alone; choose `workers` so that they fit.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
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
                        for kind in ALL_TARGETS if kind in config.targets]

    all_results: list[CellResult] = []
    all_skipped: list[SkippedTarget] = []
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext(), open(outdir / "results.csv", "w", newline="\n") as fh:
        fh.write(RESULTS_HEADER)
        fh.flush()
        # each cell in its own copy of the caller's context (numpy's error state);
        # when the loop ends early, Executor.map cancels the cells not yet started
        for results, skipped in (pool.map(contextvars.Context.run,
                                          [contextvars.copy_context() for _ in cells],
                                          repeat(work), enumerate(cells))
                                 if pool else map(work, enumerate(cells))):
            for r in results:
                fh.write(f"{r.n},{r.p},{r.beta:.6g},{r.kind},{r.ks:.6g},{r.w1:.6g},"
                         f"0,{r.seed}\n")
            fh.flush()
            all_results.extend(results)
            all_skipped.extend(skipped)
    if all_skipped:
        with open(outdir / "skipped.csv", "w", newline="\n") as fh:
            fh.write(SKIPPED_HEADER)
            for s in all_skipped:
                fh.write(f"{s.n},{s.p},{s.beta:.6g},{s.kind},{s.reason}\n")
    return all_results
