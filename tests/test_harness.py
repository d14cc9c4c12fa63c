import csv
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import lags, peak_rss_growth

import lrdcov.harness as harness
import lrdcov.model as model
from lrdcov import (ExperimentConfig, FixedBlocks, banded_spec, custom_spec, ecdf_points,
                    qq_pairs, run_cell, run_grid, toeplitz_spec)
from lrdcov import (EstimateResult, MemoryBudgetError, NearSingularError, SimulationPlan,
                    process_truth, sample_precision, simulate_multidimensional)
from lrdcov.bootstrap import _window_maxima
from lrdcov.harness import ALL_TARGETS, parse_block_rule, parse_structure


def small_config(tmp_path, **overrides):
    base = dict(grid_n=[64, 100], grid_p=[2, 3], betas=[2.0], structure="toeplitz",
                replicates=12, block_rule=FixedBlocks(8),
                targets=("cov_ga", "cov_boot"), seed=99,
                output_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_degenerate_iid_cell_matches_scalar_reference():
    # p = 1 i.i.d.: sqrt(n) |sigma2_hat - 1| tends to |N(0, 2)|
    spec = custom_spec(lags(lambda t: np.eye(1) if t == 0 else np.zeros((1, 1)), 4), beta=1.0)
    results, skipped = run_cell(spec, n=400, replicates=200, seed=7,
                                targets=("cov_ga",))
    assert not skipped
    row = results[0]
    assert row.kind == "cov_ga"
    assert row.ks < 0.15


def test_run_cell_emits_all_targets_and_sidecars(tmp_path):
    spec = toeplitz_spec(2.0, 2, truncation=10_000)
    results, skipped = run_cell(spec, n=100, replicates=25, seed=5,
                                block_rule=FixedBlocks(21),
                                output_dir=str(tmp_path))
    assert not skipped
    assert [r.kind for r in results] == list(ALL_TARGETS)
    assert all(0.0 <= r.ks <= 1.0 and r.w1 >= 0.0 for r in results)
    tag = "n100_p2_b2"
    for kind in ALL_TARGETS:
        assert (tmp_path / f"qq_{tag}_{kind}.csv").exists()
    ecdf = (tmp_path / f"ecdf_{tag}.csv").read_text().splitlines()
    assert ecdf[0] == "value,statistic,F"
    labels = {line.split(",")[1] for line in ecdf[1:]}
    assert labels == {"cov_error", "prec_error", *ALL_TARGETS}


def test_same_copies_feed_every_target():
    spec = toeplitz_spec(2.0, 2, truncation=10_000)
    only_ga, _ = run_cell(spec, n=100, replicates=25, seed=5,
                          block_rule=FixedBlocks(21), targets=("cov_ga",))
    full, _ = run_cell(spec, n=100, replicates=25, seed=5,
                       block_rule=FixedBlocks(21))
    by_kind = {r.kind: r for r in full}
    assert by_kind["cov_ga"].ks == only_ga[0].ks
    assert by_kind["cov_ga"].w1 == only_ga[0].w1


def test_cell_centres_on_the_simulated_horizon():
    # Truth and reference follow the N = max(n^2, R n) lags the simulator draws,
    # whatever truncation the built-in spec declares.
    n, replicates = 64, 20
    N = max(n * n, replicates * n)
    runs = [run_cell(toeplitz_spec(0.55, 2, truncation=truncation), n=n,
                     replicates=replicates, seed=11, block_rule=FixedBlocks(8))
            for truncation in (None, N - 1)]
    (default, skipped_default), (horizon, skipped_horizon) = runs
    assert not skipped_default and not skipped_horizon
    assert [(r.kind, r.ks, r.w1) for r in default] == \
           [(r.kind, r.ks, r.w1) for r in horizon]


def test_custom_cell_past_the_horizon_writes_the_bytes_of_its_cut_array(tmp_path):
    # n 100, 100 copies: N = 10^4, so an array of 10^4 + 50 lags is capped at
    # 9999 lags and the autocovariances take the matrix FFT branch; its lags past
    # the horizon are huge, so a cell that read one would write other bytes
    horizon = 100 * 100 - 1
    mix = np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [0.0, -0.5, 0.9]])
    coeffs = lags(lambda t: (t + 1.0) ** -2.0 * mix, horizon + 50)
    coeffs[horizon + 1:] = 1e3
    outputs = {}
    for name, array in (("long", coeffs), ("cut", coeffs[:horizon + 1])):
        outdir = tmp_path / name
        results, skipped = run_cell(custom_spec(array, beta=2.0), n=100, replicates=100,
                                    seed=1, block_rule=FixedBlocks(10), output_dir=str(outdir))
        assert not skipped
        assert [r.kind for r in results] == list(ALL_TARGETS)
        assert all(0.0 <= r.ks < 0.5 for r in results)
        outputs[name] = ([(r.kind, r.ks, r.w1) for r in results],
                         {path.name: path.read_bytes() for path in sorted(outdir.iterdir())})
    assert outputs["long"] == outputs["cut"]


def test_precision_skipped_when_p_not_below_n():
    spec = toeplitz_spec(2.0, 12, truncation=500)
    results, skipped = run_cell(spec, n=10, replicates=5, seed=1,
                                block_rule=FixedBlocks(4))
    kinds = {r.kind for r in results}
    assert kinds == {"cov_ga", "cov_boot"}
    assert {s.kind for s in skipped} == {"prec_ga", "prec_boot"}
    assert all("p < n" in s.reason for s in skipped)


@pytest.mark.parametrize("p, n", [(2, 32), (4, 4)])
def test_cell_reports_exactly_the_requested_targets(p, n):
    # every non-empty subset, passed in reverse order; p >= n skips the precision ones
    for size in range(1, len(ALL_TARGETS) + 1):
        for subset in itertools.combinations(ALL_TARGETS, size):
            results, skipped = run_cell(toeplitz_spec(2.0, p), n=n, replicates=6, seed=2,
                                        block_rule=FixedBlocks(2), targets=subset[::-1])
            reported = [r.kind for r in results]
            assert sorted(reported + [s.kind for s in skipped]) == sorted(subset)
            assert reported == [k for k in ALL_TARGETS if k in reported]
            assert {s.kind for s in skipped} == \
                {k for k in subset if p >= n and k.startswith("prec")}


def test_empty_grid_writes_header_only(tmp_path):
    config = small_config(tmp_path, grid_n=[], grid_p=[])
    results = run_grid(config)
    assert results == []
    content = (tmp_path / "out" / "results.csv").read_text()
    assert content == "n,p,beta,kind,ks,w1,runtime_ms,seed\n"


def test_single_cell_grid_matches_direct_run(tmp_path):
    config = small_config(tmp_path, grid_n=[64], grid_p=[2])
    rows = run_grid(config)
    cell_seed = int(np.random.SeedSequence(config.seed, spawn_key=(0,))
                    .generate_state(1, np.uint64)[0])
    spec = toeplitz_spec(2.0, 2)  # grid cells use the default analytic truncation
    direct, _ = run_cell(spec, n=64, replicates=12, block_rule=FixedBlocks(8),
                         targets=("cov_ga", "cov_boot"), seed=cell_seed)
    assert [(r.kind, r.ks, r.w1) for r in rows] == \
           [(r.kind, r.ks, r.w1) for r in direct]


def test_grid_rerun_is_byte_identical(tmp_path):
    config_a = small_config(tmp_path / "a")
    config_b = small_config(tmp_path / "b")
    run_grid(config_a)
    run_grid(config_b)
    dir_a = tmp_path / "a" / "out"
    dir_b = tmp_path / "b" / "out"
    names_a = sorted(f.name for f in dir_a.iterdir())
    names_b = sorted(f.name for f in dir_b.iterdir())
    assert names_a == names_b
    assert "results.csv" in names_a
    for name in names_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_grid_csv_schema(tmp_path):
    config = small_config(tmp_path, grid_n=[64], grid_p=[2])
    run_grid(config)
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == "n,p,beta,kind,ks,w1,runtime_ms,seed"
    for line in lines[1:]:
        n, p, beta, kind, ks, w1, runtime, seed = line.split(",")
        assert (int(n), int(p), float(beta)) == (64, 2, 2.0)
        assert kind in ALL_TARGETS
        assert 0.0 <= float(ks) <= 1.0 and float(w1) >= 0.0
        assert runtime == "0"
        int(seed)


def test_grid_workers_match_serial(tmp_path):
    serial = run_grid(small_config(tmp_path / "s"))
    threaded = run_grid(small_config(tmp_path / "t"), workers=2)
    assert [(r.n, r.p, r.kind, r.ks, r.w1) for r in serial] == \
           [(r.n, r.p, r.kind, r.ks, r.w1) for r in threaded]
    assert (tmp_path / "s" / "out" / "results.csv").read_bytes() == \
           (tmp_path / "t" / "out" / "results.csv").read_bytes()


def test_ga_distance_trend_in_n():
    # Table-style qualitative check: for beta = 2 the Gaussian approximation
    # distance does not degrade as n grows (within Monte-Carlo noise).
    spec_small = toeplitz_spec(2.0, 2, truncation=200 * 200)
    spec_large = toeplitz_spec(2.0, 2, truncation=500 * 500)
    small, _ = run_cell(spec_small, n=200, replicates=100, seed=31,
                        targets=("cov_ga",))
    large, _ = run_cell(spec_large, n=500, replicates=100, seed=31,
                        targets=("cov_ga",))
    assert large[0].ks <= small[0].ks + 0.1


def test_grid_survives_whole_cell_failure(tmp_path):
    # an impossible fixed block length kills one cell; the grid keeps going
    config = small_config(tmp_path, grid_n=[4, 64], grid_p=[2],
                          block_rule=FixedBlocks(8), replicates=3)
    results = run_grid(config)
    assert {r.n for r in results} == {64}
    skipped = (tmp_path / "out" / "skipped.csv").read_text().splitlines()
    assert skipped[0] == "n,p,beta,kind,reason"
    assert all(line.startswith("4,2,2,") for line in skipped[1:])
    assert len(skipped) == 3  # both targets of the dead cell


def test_unknown_target_is_rejected_with_the_config(tmp_path):
    with pytest.raises(ValueError, match="cov_bootstrap"):
        small_config(tmp_path, targets=("cov_ga", "cov_bootstrap"))
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="unknown target 'cov_bootstrap'"):
        run_cell(toeplitz_spec(2.0, 2), n=64, targets=("cov_ga", "cov_bootstrap"),
                 output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argument, value, message", [
    ("targets", "cov_ga", "targets must be a list of strings, got 'cov_ga'"),
    ("replicates", 0, "replicates must be a positive integer, got 0"),
    ("seed", -1, "seed must be a non-negative integer, got -1"),
    ("targets", [], "targets must be a non-empty list of strings, got []"),
    ("n", 100.0, "n must be a positive integer, got 100.0"),
    ("n", True, "n must be a positive integer, got True")],
    ids=["bare-string-targets", "no-replicates", "negative-seed", "no-targets", "float-n",
         "bool-n"])
def test_run_cell_names_a_bad_argument_before_it_computes(tmp_path, monkeypatch, argument,
                                                          value, message):
    calls = []
    monkeypatch.setattr(harness, "resolve_block_length", lambda *args: calls.append(args))
    with pytest.raises(ValueError) as err:
        run_cell(toeplitz_spec(2.0, 2), **{"n": 64, argument: value},
                 output_dir=str(tmp_path / "out"))
    assert str(err.value) == message
    assert calls == [] and not (tmp_path / "out").exists()


def test_skipped_csv_parses_with_a_comma_in_every_reason(tmp_path):
    # p >= n and whole-cell failures both give reasons with a comma in them
    config = small_config(tmp_path, grid_n=[4, 20], grid_p=[2, 30], replicates=20,
                          block_rule=FixedBlocks(8), targets=ALL_TARGETS)
    run_grid(config)
    with open(tmp_path / "out" / "skipped.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == harness.SKIPPED_HEADER.strip().split(",")
    dead = "fixed block length 8 outside [1, 4]"
    assert rows[1:] == (
        [["4", p, "2", kind, dead] for p in ("2", "30") for kind in ALL_TARGETS]
        + [["20", "30", "2", kind, "precision targets need p < n (p=30, n=20)"]
           for kind in ("prec_ga", "prec_boot")])


def test_whole_cell_failure_skips_each_target_once_in_order(tmp_path):
    config = small_config(tmp_path, grid_n=[4], grid_p=[2], replicates=3,
                          targets=("prec_boot", "cov_ga", "prec_boot", "cov_ga"))
    assert run_grid(config) == []
    skipped = (tmp_path / "out" / "skipped.csv").read_text().splitlines()[1:]
    assert [line.split(",")[3] for line in skipped] == ["cov_ga", "prec_boot"]


def test_parse_structure_and_block_rule():
    build = parse_structure("banded:3")
    spec = build(2.0, 5, 100)
    assert spec.bandwidth == 3
    with pytest.raises(ValueError):
        parse_structure("circulant")
    assert parse_block_rule("default").__class__.__name__ == "DefaultBlocks"
    assert parse_block_rule("fixed:34").l == 34
    rule = parse_block_rule("theoretical:0.5:2.0")
    assert (rule.epsilon, rule.scale) == (0.5, 2.0)
    with pytest.raises(ValueError):
        parse_block_rule("adaptive")


def test_failed_reference_marks_skip(tmp_path):
    # a failed reference draw: GA targets skipped, bootstrap still reported
    spec = toeplitz_spec(2.0, 2, truncation=10_000)
    results, skipped = run_cell(spec, n=64, replicates=10, seed=3,
                                block_rule=FixedBlocks(8))
    assert not skipped  # sanity: the normal cell has none

    import lrdcov.harness as H
    original = H.sample_max_abs

    def boom(ref, reps, seed):
        from lrdcov.errors import DimensionTooLargeError
        raise DimensionTooLargeError("forced failure")

    H.sample_max_abs = boom
    try:
        results, skipped = run_cell(spec, n=64, replicates=10, seed=3,
                                    block_rule=FixedBlocks(8),
                                    targets=("cov_ga", "cov_boot"))
    finally:
        H.sample_max_abs = original
    assert [r.kind for r in results] == ["cov_boot"]
    assert [s.kind for s in skipped] == ["cov_ga"]
    assert "forced failure" in skipped[0].reason


def read_ecdf(path):
    values = {}
    for line in path.read_text().splitlines()[1:]:
        value, label, _ = line.split(",")
        values.setdefault(label, []).append(float(value))
    return values


def test_cell_statistics_match_per_copy_loop(tmp_path):
    spec = toeplitz_spec(2.0, 3)
    n, replicates, seed, l = 80, 15, 21, 10
    run_cell(spec, n=n, replicates=replicates, seed=seed, block_rule=FixedBlocks(l),
             output_dir=str(tmp_path))

    # Rebuild the copies and window ends as run_cell draws them, then score each
    # copy on its own: Sigma_hat, Omega_hat, both errors, and its drawn window's
    # statistic read from the bootstrap kernel's scan of all windows.
    sim_ss, window_ss, _, _ = np.random.SeedSequence(seed).spawn(4)
    N = max(n * n, replicates * n)
    plan = SimulationPlan(replace(spec, truncation=N - 1), n,
                          seed=int(sim_ss.generate_state(1, np.uint64)[0]), N=N,
                          copies_requested=replicates)
    X = simulate_multidimensional(plan).data
    ends = np.random.default_rng(window_ss).integers(l, n + 1, size=replicates)
    truth = process_truth(plan.spec, lags=2)
    reference = {"cov_error": [], "prec_error": [], "cov_boot": [], "prec_boot": []}
    for k in range(replicates):
        sigma_hat = np.einsum("np,nq->pq", X[k], X[k]) / n
        omega_hat = sample_precision(EstimateResult(sigma_hat, n))
        reference["cov_error"].append(math.sqrt(n) * np.abs(sigma_hat - truth.sigma).max())
        reference["prec_error"].append(math.sqrt(n) * np.abs(omega_hat - truth.omega).max())
        reference["cov_boot"].append(_window_maxima(X[k], l)[ends[k] - l])
        reference["prec_boot"].append(_window_maxima(X[k] @ omega_hat, l)[ends[k] - l])

    sidecar = read_ecdf(tmp_path / "ecdf_n80_p3_b2.csv")
    for label, values in reference.items():
        np.testing.assert_allclose(sidecar[label], np.unique(values), rtol=1e-9,
                                   err_msg=label)


def test_failed_sample_precision_skips_both_precision_targets(monkeypatch):
    def singular(result):
        raise NearSingularError("forced failure", condition_estimate=np.inf)

    monkeypatch.setattr(harness, "sample_precision", singular)
    results, skipped = run_cell(toeplitz_spec(2.0, 2, truncation=10_000), n=64,
                                replicates=10, seed=3, block_rule=FixedBlocks(8))
    assert [r.kind for r in results] == ["cov_ga", "cov_boot"]
    assert [s.kind for s in skipped] == ["prec_ga", "prec_boot"]
    assert all(s.reason == "sample precision failed: forced failure" for s in skipped)


def test_singular_truth_skips_both_precision_targets():
    # rank-one coefficients A_t = (t + 1)^-2 v: the true covariance has rank 1
    v = np.array([[1.0], [0.5], [-0.25]])
    spec = custom_spec(lags(lambda t: (t + 1.0) ** -2 * v, 100), beta=2.0)
    results, skipped = run_cell(spec, n=40, replicates=10, seed=5,
                                block_rule=FixedBlocks(5))
    assert [r.kind for r in results] == ["cov_ga", "cov_boot"]
    assert [s.kind for s in skipped] == ["prec_ga", "prec_boot"]
    assert all(s.reason == "true covariance is not invertible" for s in skipped)


def test_built_in_cell_does_not_assemble_the_reference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense reference assembled or factored")

    for name in ("gaussian_long_run_covariance", "omega_transformed_long_run",
                 "build_reference"):
        monkeypatch.setattr(harness, name, refuse)
    results, skipped = run_cell(toeplitz_spec(2.0, 3), n=64, replicates=10, seed=3,
                                block_rule=FixedBlocks(8), targets=("cov_ga", "prec_ga"))
    assert not skipped
    assert [r.kind for r in results] == ["cov_ga", "prec_ga"]


GRID_SCRIPT = """
import sys
from lrdcov import ExperimentConfig, FixedBlocks, run_grid
for beta in (2.0, 0.55):
    run_grid(ExperimentConfig(grid_n=[100], grid_p=[3, 30], betas=[beta],
                              replicates=100, block_rule=FixedBlocks(10), seed=17,
                              output_dir=sys.argv[1] + f"/b{beta}"))
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outdir = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", GRID_SCRIPT, str(outdir)], env=env,
                       check=True, timeout=300)
        outputs[threads] = {str(path.relative_to(outdir)): path.read_bytes()
                            for path in sorted(outdir.rglob("*.csv"))}
    assert len(outputs["1"]) == 2 * (1 + 2 * 5)  # per grid: results, per cell 4 QQ + 1 ECDF
    assert outputs["1"] == outputs["2"]


CUSTOM_CELL_SCRIPT = """
import sys
from lrdcov import FixedBlocks, custom_spec, run_cell
from lrdcov.model import template, toeplitz_spec
M = template(toeplitz_spec(2.0, 30))
spec = custom_spec([(t + 1.0) ** -2 * M for t in range(4)], beta=2.0)
results, _ = run_cell(spec, n=100, replicates=100, seed=17, block_rule=FixedBlocks(10),
                      output_dir=sys.argv[1])
for r in results:
    print(f"{r.kind},{r.ks:.6g},{r.w1:.6g}")
"""


def test_custom_cell_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the assembled 900 x 900 reference has repeated eigenvalues, so its eigh basis
    # varies with the thread count; the symmetric root built from it does not
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs, scores = {}, {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outdir = tmp_path / f"threads{threads}"
        scores[threads] = subprocess.run(
            [sys.executable, "-c", CUSTOM_CELL_SCRIPT, str(outdir)], env=env,
            check=True, timeout=300, capture_output=True, text=True).stdout
        outputs[threads] = {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}
    assert len(outputs["1"]) == 1 + 4  # ECDF + one QQ per target
    assert scores["1"].count("\n") == 4
    assert scores["1"] == scores["2"]
    assert outputs["1"] == outputs["2"]


def test_sidecar_writers_format(tmp_path):
    harness._write_ecdf(tmp_path / "ecdf.csv", {"cov_error": np.array([2.0, 1.0, 2.0]),
                                                "cov_ga": np.array([0.5])})
    assert (tmp_path / "ecdf.csv").read_bytes() == (
        b"value,statistic,F\n1,cov_error,0.3333333333\n2,cov_error,1\n0.5,cov_ga,1\n")
    a, b = np.array([1.0, 2.0, 3.0]) / 7.0, np.array([4.0, 5.0, 6.0])
    harness._write_qq(tmp_path / "qq.csv", a, b, 2)
    assert (tmp_path / "qq.csv").read_text() == "x,y\n" + "".join(
        f"{x:.10g},{y:.10g}\n" for x, y in qq_pairs(a, b, 2))

    # one % over all rows against one f-string per row, on values whose text is
    # easy to get wrong: ties, negatives, signed zeros, the smallest subnormal
    odd = np.array([1 / 3, -2.5, 0.0, -0.0, 5e-324, 1e300, -1e300, 1 / 3, -2.5, 7.0])
    samples = {"cov_error": odd, "cov_ga": -odd[::-1], "prec_boot": np.array([-0.0])}
    harness._write_ecdf(tmp_path / "odd_ecdf.csv", samples)
    assert (tmp_path / "odd_ecdf.csv").read_text() == "value,statistic,F\n" + "".join(
        f"{value:.10g},{label},{level:.10g}\n"
        for label, sample in samples.items() for value, level in ecdf_points(sample))
    harness._write_qq(tmp_path / "odd_qq.csv", odd, -odd, 5)
    assert (tmp_path / "odd_qq.csv").read_text() == "x,y\n" + "".join(
        f"{x:.10g},{y:.10g}\n" for x, y in qq_pairs(odd, -odd, 5))
    assert "\n4.940656458e-324,cov_error," in (tmp_path / "odd_ecdf.csv").read_text()
    assert (tmp_path / "odd_ecdf.csv").read_text().endswith("\n-0,prec_boot,1\n")


def coupled_custom_spec():
    mix = np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [0.0, -0.5, 0.9]])
    # cells at n 40 with up to 40 copies simulate N = 1600 lags, so the cap cuts it
    return custom_spec(lags(lambda t: (t + 1.0) ** -1.5 * mix, 1650), beta=1.5)


def count_lag_stacks(monkeypatch):
    """Record the max_lag of every lag-product call."""
    calls = []
    original = model._lag_products

    def counting(stack, max_lag):
        calls.append(max_lag)
        return original(stack, max_lag)

    monkeypatch.setattr(model, "_lag_products", counting)
    return calls


def test_custom_cell_builds_one_lag_stack_for_both_references(tmp_path, monkeypatch):
    n, replicates = 40, 40
    horizon = max(n * n, replicates * n) - 1
    calls = count_lag_stacks(monkeypatch)
    kwargs = dict(n=n, replicates=replicates, seed=4, block_rule=FixedBlocks(6))
    shared, skipped = run_cell(coupled_custom_spec(), output_dir=str(tmp_path / "shared"),
                               **kwargs)
    assert not skipped and calls.count(horizon) == 1
    # each reference building its own stack, as when the cell kept lag 0 only
    calls.clear()
    monkeypatch.setattr(harness, "autocovariance_sequence",
                        lambda spec, max_lag: model.autocovariance_sequence(spec, 0))
    separate, _ = run_cell(coupled_custom_spec(), output_dir=str(tmp_path / "separate"),
                           **kwargs)
    assert calls.count(horizon) == 2
    assert [(r.kind, r.ks, r.w1) for r in shared] == [(r.kind, r.ks, r.w1) for r in separate]
    files = sorted(path.name for path in (tmp_path / "shared").iterdir())
    assert len(files) == 1 + len(ALL_TARGETS)
    for name in files:
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "separate" / name).read_bytes()


def test_custom_cell_checks_the_cap_before_building_a_lag_stack(monkeypatch):
    p, n = 10, 12
    mix = np.eye(p) + 0.1 * np.random.default_rng(0).standard_normal((p, p))
    spec = custom_spec(lags(lambda t: (t + 1.0) ** -1.5 * mix, 150), beta=1.5)  # N = 144
    calls = count_lag_stacks(monkeypatch)
    # one byte short of the dense reference's 48 p^4, which the lane's estimate
    # includes; the simulator's estimate, N (144) x 14 (p + 1) (d + 1), is 243936
    # bytes and fits
    monkeypatch.setattr(model, "MEMORY_BUDGET", 48 * p**4 - 1)
    lane = harness._reference_peak_bytes(replace(spec, truncation=n * n - 1), n)
    results, skipped = run_cell(spec, n=n, replicates=n, seed=4, block_rule=FixedBlocks(6))
    assert [r.kind for r in results] == ["cov_boot", "prec_boot"]
    assert [(s.kind, s.reason) for s in skipped] == [
        (kind, f"the {kind} reference needs an estimated {lane} bytes, over the budget of "
               f"{48 * p**4 - 1} bytes") for kind in ("cov_ga", "prec_ga")]
    assert calls == [0]  # the lag-0 truth only


def test_grid_rejects_workers_below_one(tmp_path):
    for workers in (0, -2):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_grid(small_config(tmp_path), workers=workers)
    assert not (tmp_path / "out").exists()


class Schedule:
    """Records which thread started each copy block and Gaussian-reference draw of
    run_cell, in start order, and sets how the cell's two choices fall.

    `events` holds ((lo, hi), thread) per block and ("lane", thread) per draw.
    `mode` is "beside" (the lane runs beside the simulation, then the helper
    takes the first half: this thread's half waits until the helper has started
    it), "held" (the lane holds the helper until this thread has started the
    first half, which it can only do by taking it back) or "tight" (the two
    lanes' peaks do not fit the budget together, so this thread waits for the
    lane before it simulates; its half again waits for the helper's).  In every
    mode the lane is the helper's first job."""

    def __init__(self, monkeypatch, mode="beside"):
        self.events, self.mode, self.caller = [], mode, threading.current_thread()
        self.helper_started, self.first_taken = threading.Event(), threading.Event()
        block, draw = harness._copy_block, harness.sample_max_abs
        lane, peak = harness._reference_draws, harness._reference_peak_bytes

        def recording_block(*args):
            lo, hi = args[-2:]
            me = threading.current_thread()
            self.events.append(((lo, hi), me))
            if me is not self.caller:
                self.helper_started.set()
            elif lo == 0:
                self.first_taken.set()
            elif self.mode != "held":
                assert self.helper_started.wait(30)
            return block(*args)

        def recording_draw(ref, reps, seed):
            self.events.append(("lane", threading.current_thread()))
            return draw(ref, reps, seed)

        def held_lane(*args):
            if self.mode == "held":
                assert self.first_taken.wait(30)
            return lane(*args)

        monkeypatch.setattr(harness, "_copy_block", recording_block)
        monkeypatch.setattr(harness, "sample_max_abs", recording_draw)
        monkeypatch.setattr(harness, "_reference_draws", held_lane)
        monkeypatch.setattr(harness, "_reference_peak_bytes", lambda spec, replicates: (
            model.MEMORY_BUDGET if self.mode == "tight" else peak(spec, replicates)))

    def reset(self, mode):
        self.events.clear()
        self.helper_started.clear()
        self.first_taken.clear()
        self.mode = mode

    @property
    def blocks(self):
        return [(*what, thread) for what, thread in self.events if what != "lane"]

    @property
    def lane_threads(self):
        return [thread for what, thread in self.events if what == "lane"]


def cell_outputs(outdir, results, skipped):
    return ([(r.kind, r.ks, r.w1) for r in results], skipped,
            {path.name: path.read_bytes() for path in sorted(outdir.iterdir())})


@pytest.mark.parametrize("spec, n, replicates, targets", [
    (toeplitz_spec(2.0, 4), 80, 30, ALL_TARGETS), (banded_spec(0.9, 6, 2), 40, 30, ALL_TARGETS),
    (toeplitz_spec(0.55, 30), 20, 30, ALL_TARGETS), (coupled_custom_spec(), 40, 30, ALL_TARGETS),
    (toeplitz_spec(2.0, 4), 80, 1, ALL_TARGETS), (toeplitz_spec(2.0, 4), 80, 31, ALL_TARGETS),
    (toeplitz_spec(2.0, 4), 80, 30, ("cov_boot",)), (toeplitz_spec(0.9, 12), 10, 21, ALL_TARGETS)],
    ids=["toeplitz", "banded", "p-above-n", "custom", "one-copy", "odd-copies", "cov-boot-only",
         "p-above-n-odd-copies"])
def test_concurrent_and_inline_lanes_write_the_same_bytes(tmp_path, monkeypatch, spec, n,
                                                          replicates, targets):
    # the three schedules of Schedule: the lane beside the simulation with the
    # helper running [0, R/2), a held lane with both halves inline on this thread,
    # and a tight budget with the lane on the helper before the simulation
    schedule, me, half = Schedule(monkeypatch), threading.current_thread(), replicates // 2
    outputs = {}
    for mode in ("beside", "held", "tight"):
        schedule.reset(mode)
        before = threading.active_count()
        outdir = tmp_path / mode
        outputs[mode] = cell_outputs(outdir, *run_cell(
            spec, n=n, replicates=replicates, seed=8, block_rule=FixedBlocks(6),
            targets=targets, output_dir=str(outdir)))
        assert threading.active_count() == before
        lanes, blocks = schedule.lane_threads, schedule.blocks
        assert (len(lanes) > 0) == ("cov_ga" in targets)
        assert all(t is not me for t in lanes)
        if half == 0:
            assert blocks == [(0, replicates, me)]
        elif mode == "held":
            assert blocks == [(half, replicates, me), (0, half, me)]
        else:  # the helper runs the first half, this thread the second
            assert sorted((lo, hi) for lo, hi, _ in blocks) == [(0, half), (half, replicates)]
            assert all((t is me) == (lo == half) for lo, _, t in blocks)
        if mode == "tight":  # the lane ends before the simulation, so before either block
            assert [what for what, _ in schedule.events[:len(lanes)]] == ["lane"] * len(lanes)
        else:  # the helper runs the lane first
            assert [what for what, t in schedule.events if t is not me][:len(lanes)] == (
                ["lane"] * len(lanes))
    assert outputs["beside"] == outputs["held"] == outputs["tight"]
    # the ECDF, and one QQ per result from two copies on
    assert len(outputs["beside"][2]) == 1 + len(outputs["beside"][0]) * (replicates > 1)


@pytest.mark.parametrize("poisoned, named", [
    ([(3, "floor")], (3, "floor")), ([(25, "floor")], (25, "floor")),
    ([(3, "residual"), (25, "floor")], (3, "residual"))],
    ids=["first-half", "second-half", "both-halves"])
def test_a_failing_sample_precision_skips_with_the_first_failing_copy(
        tmp_path, monkeypatch, poisoned, named):
    # each poisoned copy fails one check of the sample precision, which decides
    # copy by copy, so the cell names its first failing copy whichever half holds it
    simulate, precision = harness.simulate_multidimensional, harness.sample_precision
    n, replicates = 64, 30
    marked, stacks = [], []

    def recording_simulate(plan, pool):
        batch = simulate(plan, pool)
        marked[:] = [(k, check, batch.data[k].T @ batch.data[k] / n) for k, check in poisoned]
        return batch

    def failing(result):
        stacks.append(len(result.sigma_hat))
        for sigma in result.sigma_hat:
            for k, check, target in marked:
                if np.allclose(sigma, target, rtol=1e-12, atol=0):
                    raise NearSingularError(f"copy {k} fails the {check} check", np.inf)
        return precision(result)

    monkeypatch.setattr(harness, "simulate_multidimensional", recording_simulate)
    monkeypatch.setattr(harness, "sample_precision", failing)
    schedule = Schedule(monkeypatch)
    before = threading.active_count()
    results = run_grid(small_config(tmp_path, grid_n=[n], grid_p=[3], replicates=replicates,
                                    targets=ALL_TARGETS))
    assert threading.active_count() == before
    assert [r.kind for r in results] == ["cov_ga", "cov_boot"]
    assert len(schedule.blocks) == 2
    assert sorted(stacks) == [15, 15]  # one call per half, never one on the whole stack
    assert (tmp_path / "out" / "skipped.csv").read_text() == "".join(
        [harness.SKIPPED_HEADER] + [f"64,3,2,{kind},sample precision failed: copy {named[0]} "
                                    f"fails the {named[1]} check\n"
                                    for kind in ("prec_ga", "prec_boot")])


def test_a_held_lane_leaves_both_halves_to_the_calling_thread(tmp_path, monkeypatch):
    schedule, me = Schedule(monkeypatch, mode="held"), threading.current_thread()
    before = threading.active_count()
    run_cell(toeplitz_spec(2.0, 4), n=80, replicates=30, seed=8, block_rule=FixedBlocks(6),
             output_dir=str(tmp_path))
    assert threading.active_count() == before
    assert schedule.blocks == [(15, 30, me), (0, 15, me)]
    assert schedule.lane_threads and all(t is not me for t in schedule.lane_threads)


def test_helper_block_error_propagates_after_the_join(monkeypatch):
    helpers = []
    original = harness._copy_block

    def failing(*args):
        if threading.current_thread() is not caller:
            helpers.append(threading.current_thread())
            raise ArithmeticError("forced failure")
        return original(*args)

    caller = threading.current_thread()
    monkeypatch.setattr(harness, "_copy_block", failing)
    Schedule(monkeypatch)  # the calling thread's half waits for the helper's
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="forced failure"):
        run_cell(toeplitz_spec(2.0, 3), n=64, replicates=20, seed=3, block_rule=FixedBlocks(8))
    assert threading.active_count() == before
    assert len(helpers) == 1 and not helpers[0].is_alive()


def test_cell_logs_one_debug_record_of_its_phase_times(tmp_path, monkeypatch, caplog):
    pattern = (r"cell n=64 p=3 beta=2: simulate [0-9.]+ s; copies 0:10 [0-9.]+ s on "
               r"lrdcov-helper_0, 10:20 [0-9.]+ s on MainThread; reference lane [0-9.]+ s "
               r"on lrdcov-helper_0; scoring [0-9.]+ s; sidecars [0-9.]+ s")
    kwargs = dict(n=64, replicates=20, seed=3, block_rule=FixedBlocks(8),
                  output_dir=str(tmp_path))
    schedule = Schedule(monkeypatch)
    for mode in ("beside", "tight"):
        schedule.reset(mode)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="lrdcov.harness"):
            run_cell(toeplitz_spec(2.0, 3), **kwargs)
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("lrdcov.harness", logging.DEBUG)]
        assert re.fullmatch(pattern, caplog.records[0].getMessage())
    caplog.clear()
    run_cell(toeplitz_spec(2.0, 3), **kwargs)  # nothing below WARNING by default
    assert caplog.records == []


def test_lanes_that_fit_only_one_at_a_time_run_in_turn(tmp_path, monkeypatch):
    spec, n, replicates = toeplitz_spec(2.0, 30), 100, 100
    N = n * n
    plan = SimulationPlan(replace(spec, truncation=N - 1), n, seed=0, N=N,
                          copies_requested=replicates)
    lane_bytes = harness._reference_peak_bytes(plan.spec, replicates)
    # the calling thread's peak is the paths beside both copy blocks (21-row windows)
    main = harness._main_peak_bytes(plan, 21, prec=True)
    assert lane_bytes < plan.peak_bytes < main  # 2.9 MB, 6.0 MB and 6.7 MB
    schedule, me = Schedule(monkeypatch), threading.current_thread()
    outputs = {}
    for budget in (main + lane_bytes, main):
        monkeypatch.setattr(model, "MEMORY_BUDGET", budget)
        schedule.reset("beside")
        outdir = tmp_path / str(budget)
        outputs[budget] = cell_outputs(outdir, *run_cell(
            spec, n=n, replicates=replicates, seed=2, output_dir=str(outdir)))
        lanes = schedule.lane_threads
        assert len(lanes) == 2 and all(t is not me for t in lanes)
        # the helper draws before it takes a block; at the tighter budget the lane
        # ends before the simulation starts, so before either block
        helper_first = [what for what, t in schedule.events if t is not me][:2]
        assert helper_first == ["lane", "lane"]
        if budget == main:
            assert [what for what, _ in schedule.events[:2]] == ["lane", "lane"]
    assert outputs[main] == outputs[main + lane_bytes]


def test_main_lane_failure_joins_the_running_reference_lane(tmp_path, monkeypatch):
    # the budget drops once the reference lane has started, so the simulation
    # raises MemoryBudgetError while that lane is still running
    config = small_config(tmp_path, grid_n=[64], grid_p=[3], targets=ALL_TARGETS)
    started, raised = threading.Event(), threading.Event()
    factor, simulate = harness._long_run_factor, harness.simulate_multidimensional

    def late_factor(spec):
        monkeypatch.setattr(model, "MEMORY_BUDGET", 1000)
        started.set()
        assert raised.wait(30)
        return factor(spec)

    def gated_simulate(plan, pool):
        assert started.wait(30)
        try:
            return simulate(plan, pool)
        except MemoryBudgetError:
            raised.set()
            raise

    monkeypatch.setattr(harness, "_long_run_factor", late_factor)
    monkeypatch.setattr(harness, "simulate_multidimensional", gated_simulate)
    before = threading.active_count()
    assert run_grid(config) == []
    assert threading.active_count() == before and raised.is_set()
    skipped = (tmp_path / "out" / "skipped.csv").read_text()

    # the rows of a budget that is short from the start, which no lane outlives
    monkeypatch.undo()
    monkeypatch.setattr(model, "MEMORY_BUDGET", 1000)
    assert run_grid(replace(config, output_dir=str(tmp_path / "short"))) == []
    assert skipped == (tmp_path / "short" / "skipped.csv").read_text()
    assert skipped.count("\n") == 1 + len(ALL_TARGETS)
    assert "over the budget of 1000 bytes" in skipped


def test_reference_lane_failure_skips_its_targets(tmp_path, monkeypatch):
    # DimensionTooLargeError from a custom reference, raised on the helper thread
    p, n = 10, 12
    mix = np.eye(p) + 0.1 * np.random.default_rng(0).standard_normal((p, p))
    spec = custom_spec(lags(lambda t: (t + 1.0) ** -1.5 * mix, 150), beta=1.5)  # N = 144
    config = small_config(tmp_path, grid_n=[n], grid_p=[p], betas=[1.5], replicates=n,
                          block_rule=FixedBlocks(6), targets=ALL_TARGETS)
    monkeypatch.setattr(harness, "parse_structure", lambda token: lambda beta, p, t: spec)
    monkeypatch.setattr(model, "MEMORY_BUDGET", 48 * p**4 - 1)
    monkeypatch.setattr(harness, "_reference_peak_bytes", lambda spec, replicates: 0)
    cap_threads = []
    check = model._check_dense_cap

    def recording_check(p):
        cap_threads.append(threading.current_thread())
        return check(p)

    monkeypatch.setattr(model, "_check_dense_cap", recording_check)
    before = threading.active_count()
    results = run_grid(config)
    assert threading.active_count() == before
    assert [r.kind for r in results] == ["cov_boot", "prec_boot"]
    assert len(cap_threads) == 2 and all(t is not threading.current_thread()
                                         for t in cap_threads)
    skipped = (tmp_path / "out" / "skipped.csv").read_text()
    assert [line.split(",")[3] for line in skipped.splitlines()[1:]] == ["cov_ga", "prec_ga"]
    assert f"estimated {48 * p**4} bytes, over the budget of {48 * p**4 - 1} bytes" in skipped


def lanes_fit_one_at_a_time(monkeypatch, spec, n, replicates, l):
    """Set model.MEMORY_BUDGET to the larger of a run_cell's two estimates, so that
    its two lanes fit only one at a time."""
    N = n * max(n, replicates)
    plan = SimulationPlan(replace(spec, truncation=min(spec.truncation, N - 1)), n, seed=0,
                          N=N, copies_requested=replicates)
    main = harness._main_peak_bytes(plan, l, prec=spec.p < n)
    lane = harness._reference_peak_bytes(plan.spec, replicates)
    monkeypatch.setattr(model, "MEMORY_BUDGET", max(main, lane))
    assert main + lane > model.MEMORY_BUDGET


@pytest.mark.parametrize("keep", [False, True], ids=["dropped", "kept"])
def test_a_lane_that_fits_only_alone_draws_before_the_simulation(monkeypatch, keep):
    # with `keep` the simulator's caller holds every batch it returns, as a traced
    # run does, and the lane still never runs beside the paths
    simulate, draw = harness.simulate_multidimensional, harness.sample_max_abs
    events, kept = [], []

    def recording_simulate(plan, pool):
        events.append("simulate")
        batch = simulate(plan, pool)
        if keep:
            kept.append(batch)
        return batch

    def recording_draw(ref, reps, seed):
        events.append(("draw", len(kept)))
        out = draw(ref, reps, seed)
        events.append(("drawn", len(kept)))
        return out

    lanes_fit_one_at_a_time(monkeypatch, toeplitz_spec(2.0, 3), 64, 20, 8)
    monkeypatch.setattr(harness, "simulate_multidimensional", recording_simulate)
    monkeypatch.setattr(harness, "sample_max_abs", recording_draw)
    results, skipped = run_cell(toeplitz_spec(2.0, 3), n=64, replicates=20, seed=3,
                                block_rule=FixedBlocks(8))
    assert events == [("draw", 0), ("drawn", 0)] * 2 + ["simulate"]
    assert [r.kind for r in results] == list(ALL_TARGETS) and skipped == []
    assert len(kept) == keep


def test_a_failing_lane_that_runs_alone_ends_the_cell_before_its_simulation(monkeypatch):
    def boom(*args):
        raise ArithmeticError("forced failure")

    simulate, simulated = harness.simulate_multidimensional, []
    monkeypatch.setattr(harness, "simulate_multidimensional",
                        lambda plan, pool: simulated.append(plan) or simulate(plan, pool))
    monkeypatch.setattr(harness, "sample_max_abs", boom)
    lanes_fit_one_at_a_time(monkeypatch, toeplitz_spec(2.0, 3), 64, 20, 8)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="forced failure"):
        run_cell(toeplitz_spec(2.0, 3), n=64, replicates=20, seed=3, block_rule=FixedBlocks(8))
    assert threading.active_count() == before and simulated == []


@pytest.mark.parametrize("spec, n, replicates", [
    (toeplitz_spec(2.0, 1), 64, 65), (coupled_custom_spec(), 40, 30)], ids=["toeplitz", "custom"])
def test_a_lane_over_the_budget_alone_skips_its_targets(monkeypatch, spec, n, replicates):
    # the budget holds the calling thread's estimate, so the cell runs, but not the
    # lane's: the lane, run alone before the simulation, refuses before it allocates
    N = n * max(n, replicates)
    plan = SimulationPlan(replace(spec, truncation=min(spec.truncation, N - 1)), n, seed=0,
                          N=N, copies_requested=replicates)
    main = harness._main_peak_bytes(plan, 8, prec=True)
    lane = harness._reference_peak_bytes(plan.spec, replicates)
    assert main < lane
    monkeypatch.setattr(model, "MEMORY_BUDGET", main)
    before = threading.active_count()
    results, skipped = run_cell(spec, n, replicates=replicates, seed=5, block_rule=FixedBlocks(8))
    assert threading.active_count() == before
    assert [r.kind for r in results] == ["cov_boot", "prec_boot"]
    assert [(s.kind, s.reason) for s in skipped] == [
        (kind, f"the {kind} reference needs an estimated {lane} bytes, over the budget of "
               f"{main} bytes") for kind in ("cov_ga", "prec_ga")]


@pytest.mark.parametrize("p, n, replicates, reason", [
    (1, 64, 65, "sample precision failed: forced failure"),
    (30, 20, 20, "precision targets need p < n (p=30, n=20)")],
    ids=["failed-precision", "p-not-below-n"])
def test_a_cell_with_two_skip_reasons_lists_them_in_the_order_found(monkeypatch, p, n,
                                                                   replicates, reason):
    # the precision targets' reason, found up front or after the simulation, comes
    # before the reference lane's over-the-budget error, which cannot replace it
    def singular(result):
        raise NearSingularError("forced failure", condition_estimate=np.inf)

    monkeypatch.setattr(harness, "sample_precision", singular)
    spec, N = toeplitz_spec(2.0, p), n * max(n, replicates)
    plan = SimulationPlan(replace(spec, truncation=N - 1), n, seed=0, N=N,
                          copies_requested=replicates)
    main = harness._main_peak_bytes(plan, 8, prec=p < n)
    lane = harness._reference_peak_bytes(plan.spec, replicates)
    assert main < lane
    monkeypatch.setattr(model, "MEMORY_BUDGET", main)
    results, skipped = run_cell(spec, n, replicates=replicates, seed=5,
                                block_rule=FixedBlocks(8))
    assert [r.kind for r in results] == ["cov_boot"]
    assert [(s.kind, s.reason) for s in skipped] == [
        ("prec_ga", reason), ("prec_boot", reason),
        ("cov_ga", f"the cov_ga reference needs an estimated {lane} bytes, over the budget "
                   f"of {main} bytes")]


@pytest.mark.parametrize("spec, n, replicates", [
    ("toeplitz_spec(2.0, 1)", 1000, 200), ("toeplitz_spec(2.0, 10)", 1000, 200),
    ("toeplitz_spec(2.0, 100)", 100, 200),
    ("custom_spec(np.arange(1.0, 90_001)[:, None, None] ** -1.5, beta=1.5)", 300, 100)],
    ids=["p1", "p10", "p100", "custom-p1"])
def test_reference_estimate_covers_the_lanes_peak_rss_growth(spec, n, replicates):
    # at the cell's horizon, N - 1 (the custom array ends there); tracemalloc
    # misses pocketfft's scratch, half of a built-in spec's long-run factor's peak
    grown, estimate = peak_rss_growth(
        "from dataclasses import replace\nimport numpy as np\n"
        "from lrdcov import custom_spec, harness, process_truth, toeplitz_spec\n"
        f"spec = replace({spec}, truncation={n * max(n, replicates) - 1})\n"
        "truth = process_truth(spec, lags=0)\n"
        f"kinds = ['cov_ga', 'prec_ga'] if spec.p < {n} else ['cov_ga']\n"
        "seeds = {'cov_ga': 1, 'prec_ga': 2}\n"
        "harness._reference_draws(process_truth(replace(spec, truncation=10), lags=0), "
        "kinds, 2, seeds)",
        f"harness._reference_draws(truth, kinds, {replicates}, seeds)",
        f"harness._reference_peak_bytes(spec, {replicates})")
    assert grown <= estimate


def test_a_non_package_reference_error_ends_the_cell(monkeypatch):
    # a prec_ga reference that fails with a non-package error ends the cell, also
    # when a failing sample precision skips the precision targets
    def boom(truth, n):
        raise ArithmeticError("forced failure")

    def singular(result):
        raise NearSingularError("forced failure", condition_estimate=np.inf)

    monkeypatch.setattr(harness, "omega_transformed_long_run", boom)
    kwargs = dict(n=40, replicates=10, seed=4, block_rule=FixedBlocks(6))
    for precision in (harness.sample_precision, singular):
        monkeypatch.setattr(harness, "sample_precision", precision)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="forced failure"):
            run_cell(coupled_custom_spec(), **kwargs)
        assert threading.active_count() == before


def test_reference_lane_keeps_the_callers_error_state(monkeypatch):
    states = []
    draw, block = harness.sample_max_abs, harness._copy_block

    def recording(ref, reps, seed):
        states.append((threading.current_thread(), np.geterr()["over"]))
        return draw(ref, reps, seed)

    def recording_block(*args):
        states.append((threading.current_thread(), np.geterr()["over"]))
        return block(*args)

    monkeypatch.setattr(harness, "sample_max_abs", recording)
    monkeypatch.setattr(harness, "_copy_block", recording_block)
    schedule = Schedule(monkeypatch)  # the helper runs the first half
    for mode in ("beside", "tight"):
        schedule.reset(mode)
        states.clear()
        with np.errstate(over="raise"):
            run_cell(toeplitz_spec(2.0, 3), n=64, replicates=10, seed=3,
                     block_rule=FixedBlocks(8), targets=("cov_ga", "prec_ga"))
        assert [state for _, state in states] == ["raise"] * 4
        assert sum(thread is not threading.current_thread() for thread, _ in states) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_cells_keep_the_callers_error_state(tmp_path, monkeypatch, workers):
    # numpy's error state is a context variable, which a pool thread does not inherit
    states = []
    draw = harness.sample_max_abs

    def recording(ref, reps, seed):
        states.append(np.geterr()["over"])
        return draw(ref, reps, seed)

    monkeypatch.setattr(harness, "sample_max_abs", recording)
    config = small_config(tmp_path, grid_n=[64], grid_p=[2, 3], replicates=10,
                          targets=("cov_ga",))
    with np.errstate(over="raise"):
        assert len(run_grid(config, workers=workers)) == 2
    assert states == ["raise", "raise"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_cell_stops_the_grid_from_starting_more(tmp_path, monkeypatch, workers):
    # the second cell raises; the cells the workers have not started by then never run
    started = []

    def fake_cell(spec, n, **kwargs):
        started.append(spec.p)
        if spec.p == 2:
            raise ArithmeticError("forced failure")
        time.sleep(0.5 * (spec.p > 2))
        return [], []

    monkeypatch.setattr(harness, "run_cell", fake_cell)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="forced failure"):
        run_grid(small_config(tmp_path, grid_n=[64], grid_p=list(range(1, 21))), workers)
    assert threading.active_count() == before
    # each worker may have taken one more cell before the error reached this thread
    assert sorted(started)[:2] == [1, 2] and len(started) <= 2 * workers


def test_simulation_budget_fails_before_any_lag_sum(monkeypatch):
    # the truth sums a custom spec's H + 1 lags, so the simulation's budget is
    # checked before it, as when the simulation came first
    calls = count_lag_stacks(monkeypatch)
    spec = coupled_custom_spec()
    plan = SimulationPlan(replace(spec, truncation=1599), 40, seed=0, N=1600,
                          copies_requested=40)
    monkeypatch.setattr(model, "MEMORY_BUDGET", plan.peak_bytes - 1)
    with pytest.raises(MemoryBudgetError, match=f"estimated {plan.peak_bytes} bytes"):
        run_cell(spec, n=40, replicates=40, seed=4, block_rule=FixedBlocks(6))
    assert calls == []


def test_copy_blocks_that_cannot_fit_skip_the_cell(tmp_path, monkeypatch):
    # p 30, n 100, R 100, bootstrap targets only (no reference lane): the paths
    # and both copy blocks' (50, 30, 30) stacks outweigh the simulation, so a
    # budget that holds the simulation alone is short of the cell
    spec, n, replicates, l = toeplitz_spec(2.0, 30), 100, 100, 21
    targets = ("cov_boot", "prec_boot")
    N = n * n
    plan = SimulationPlan(replace(spec, truncation=N - 1), n, seed=0, N=N,
                          copies_requested=replicates)
    main = harness._main_peak_bytes(plan, l, prec=True)
    assert plan.peak_bytes < main  # 6.0 MB beside 6.7 MB
    message = (f"100 copies of a 100 x 30 path with their per-copy statistics need an "
               f"estimated {main} bytes, over the budget of {plan.peak_bytes} bytes")
    monkeypatch.setattr(model, "MEMORY_BUDGET", plan.peak_bytes)
    simulate, simulated = harness.simulate_multidimensional, []

    def recording_simulate(plan, pool):
        simulated.append(plan)
        return simulate(plan, pool)

    monkeypatch.setattr(harness, "simulate_multidimensional", recording_simulate)
    kwargs = dict(replicates=replicates, seed=2, block_rule=FixedBlocks(l), targets=targets)
    with pytest.raises(MemoryBudgetError) as err:
        run_cell(spec, n, **kwargs)
    assert str(err.value) == message and simulated == []
    config = small_config(tmp_path, grid_n=[n], grid_p=[30], replicates=replicates,
                          block_rule=FixedBlocks(l), targets=targets)
    assert run_grid(config) == []
    assert (tmp_path / "out" / "skipped.csv").read_text() == "".join(
        [harness.SKIPPED_HEADER] + [f'100,30,2,{kind},"{message}"\n' for kind in targets])
    # at its estimate the cell runs, within it; an untraced run first imports what
    # a first cell imports lazily (numpy.ma, numpy.fft, numpy.random, about 1 MB
    # under tracemalloc), which a test run on its own would otherwise count
    monkeypatch.setattr(model, "MEMORY_BUDGET", main)
    run_cell(spec, n, **kwargs)
    tracemalloc.start()
    try:
        results, skipped = run_cell(spec, n, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.kind for r in results] == list(targets) and skipped == []
    assert len(simulated) == 2 and peak <= main


@pytest.mark.parametrize("p, n, replicates", [(2, 200, 400), (10, 250, 200), (50, 200, 100),
                                              (200, 300, 40)])
@pytest.mark.parametrize("prec", [False, True], ids=["cov", "prec"])
def test_copy_block_estimate_within_ten_percent_of_its_traced_peak(p, n, replicates, prec):
    spec = toeplitz_spec(2.0, p)
    truth = process_truth(spec, lags=0)
    X = np.random.default_rng(0).standard_normal((replicates, n, p))
    l = round(n ** (2 / 3))
    ends = np.random.default_rng(1).integers(l, n + 1, size=replicates)
    boots = ["cov_boot", "prec_boot"] if prec else ["cov_boot"]
    half = replicates // 2
    harness._copy_block(X, ends, truth, l, prec, boots, 0, 2)  # warm: lazily built objects
    tracemalloc.start()
    try:
        harness._copy_block(X, ends, truth, l, prec, boots, 0, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(harness._blocks_peak_bytes(p, l, half, prec) / peak - 1) <= 0.1


@pytest.mark.parametrize("p, n, replicates", [(50, 200, 100), (100, 300, 100), (200, 300, 40)])
@pytest.mark.parametrize("prec", [False, True], ids=["cov", "prec"])
def test_copy_block_estimate_covers_its_peak_rss_growth(p, n, replicates, prec):
    l = round(n ** (2 / 3))
    grown, estimate = peak_rss_growth(
        "import numpy as np\nfrom lrdcov import harness, process_truth, toeplitz_spec\n"
        f"truth = process_truth(toeplitz_spec(2.0, {p}), lags=0)\n"
        f"X = np.random.default_rng(0).standard_normal(({replicates}, {n}, {p}))\n"
        f"ends = np.random.default_rng(1).integers({l}, {n} + 1, size={replicates})\n"
        f"args = (X, ends, truth, {l}, {prec}, ['cov_boot', 'prec_boot'] if {prec} "
        "else ['cov_boot'])\n"
        "harness._copy_block(*args, 0, 2)",  # warm: lazily built objects
        f"harness._copy_block(*args, 0, {replicates})",
        f"harness._blocks_peak_bytes({p}, {l}, {replicates}, {prec})")
    assert grown <= estimate
