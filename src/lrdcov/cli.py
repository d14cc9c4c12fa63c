"""Command-line entry points.

Subcommands:
  experiment    run a Monte-Carlo grid from a JSON config file
  simulate      dump a batch of simulated paths to a binary file
  bootstrap-ci  simultaneous confidence half-width for one data table
  metrics       Kolmogorov and Wasserstein-1 distance between two samples
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from .bootstrap import (TheoreticalBlocks, confidence_region, covariance_blocks,
                        precision_blocks, quantile, resolve_block_length)
from .errors import LrdcovError
from .estimate import sample_covariance, sample_precision
from .harness import (BLOCK_RULE_FORMS, STRUCTURE_FORMS, ExperimentConfig, _parse_token,
                      parse_block_rule, parse_structure, run_grid)
from .metrics import distance_report
from .pipeline import ingest
from .simulate import SimulationPlan, save_batch, simulate_multidimensional


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    token = raw.get("block_rule")
    if isinstance(token, str):  # other types are named by the config check
        raw["block_rule"] = _parse_token(parse_block_rule, token, "config key 'block_rule'",
                                         BLOCK_RULE_FORMS)
    return ExperimentConfig(**raw)


def _cmd_experiment(args) -> int:
    config = _load_config(args.config)
    results = run_grid(config, workers=args.workers)
    print(f"wrote {len(results)} result rows to {config.output_dir}/results.csv")
    return 0


def _cmd_simulate(args) -> int:
    build = _parse_token(parse_structure, args.structure, "--structure", STRUCTURE_FORMS)
    for name in ("n", "copies"):
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be positive, got {getattr(args, name)}")
    N = args.N if args.N is not None else args.n * max(args.n, args.copies)
    if args.copies > N // args.n:
        raise ValueError(f"--copies {args.copies} needs --N of at least {args.copies * args.n}")
    plan = SimulationPlan(build(args.beta, args.p, N), args.n, seed=args.seed, N=N,
                          copies_requested=args.copies)
    batch = simulate_multidimensional(plan)
    save_batch(batch, args.out)
    print(f"wrote {batch.copies} copies of a {args.n} x {args.p} path to {args.out}")
    return 0


def _cmd_bootstrap_ci(args) -> int:
    subject = ingest(args.data)
    n, p = subject.data.shape
    rule = _parse_token(parse_block_rule, args.block_rule, "--block-rule", BLOCK_RULE_FORMS)
    if isinstance(rule, TheoreticalBlocks) and args.beta is None:
        raise ValueError(f"--block-rule {args.block_rule!r} needs --beta")
    l = resolve_block_length(rule, n, p, args.beta)
    est = sample_covariance(subject.data)
    if args.kind == "prec":
        center = sample_precision(est)
        dist = precision_blocks(subject.data, l, omega=center)
    else:
        center = est.sigma_hat
        dist = covariance_blocks(subject.data, l)
    region = confidence_region(center, dist, n, args.alpha)  # checks alpha first
    q_hat = quantile(dist, 1.0 - args.alpha)
    print(json.dumps({
        "n": n, "p": p, "l": l, "kind": args.kind, "alpha": args.alpha,
        "quantile": q_hat,
        "half_width": region.half_width,
    }))
    return 0


def _load_sample(path: str) -> np.ndarray:
    """One value per line; an empty file is an error that names it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's "input contained no data"
        values = np.loadtxt(path, ndmin=1)
    if values.size == 0:
        raise ValueError(f"sample file {path} holds no values")
    return values


def _cmd_metrics(args) -> int:
    a, b = _load_sample(args.a), _load_sample(args.b)
    report = distance_report(a, b)
    print(json.dumps({
        "kolmogorov": report.kolmogorov, "wasserstein1": report.wasserstein1,
        "n1": report.n1, "n2": report.n2,
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrdcov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a Monte-Carlo grid")
    p_exp.add_argument("--config", required=True, help="JSON config file")
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.set_defaults(func=_cmd_experiment)

    p_sim = sub.add_parser("simulate", help="simulate and dump a sample batch")
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--structure", default="toeplitz", help=STRUCTURE_FORMS)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--copies", type=int, default=1)
    p_sim.add_argument("--N", type=int, default=None,
                       help="truncation length (default n * max(n, copies))")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ci = sub.add_parser("bootstrap-ci", help="simultaneous confidence band")
    p_ci.add_argument("--data", required=True, help="CSV with a label header row")
    p_ci.add_argument("--alpha", type=float, default=0.1)
    p_ci.add_argument("--block-rule", default="default", help=BLOCK_RULE_FORMS)
    p_ci.add_argument("--kind", choices=("cov", "prec"), default="cov")
    p_ci.add_argument("--beta", type=float, default=None,
                      help="decay exponent, needed by the theoretical rule")
    p_ci.set_defaults(func=_cmd_bootstrap_ci)

    p_met = sub.add_parser("metrics", help="two-sample distances")
    p_met.add_argument("--a", required=True, help="one value per line")
    p_met.add_argument("--b", required=True)
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run(argv=None) -> None:
    """Console entry point: main(), with input errors as one stderr line, status 1."""
    try:
        sys.exit(main(argv))
    except (LrdcovError, ValueError, OSError) as exc:
        sys.exit(f"lrdcov: error: {exc}")


if __name__ == "__main__":
    run()
