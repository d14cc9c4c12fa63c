"""lrdcov benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload mc_long --seed 1 --seconds 25 --trace 0

The run sets up (imports, writes the workload's inputs, warms up), then repeats
identical passes of the workload until the next pass would end after
`--seconds`.  Outputs are checked after every pass, outside the timed region.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  Its times are
medians over the run's passes (or set-up repetitions) of each item's wall time
scaled by the host-speed reference kernel timed just before and after it; see
hostspeed.py.  `--trace 1` alternates untraced and traced passes and reports
the per-layer metrics: self times from spans recorded around calls into
lrdcov, and counts, as means over the traced passes.
Sidecars (manifest.json, and spans.json when traced) go to
.bench_out/<workload>/<size>-seed<seed>/ in the checkout.
"""

import time

T0 = time.perf_counter()  # import time counts from the first statement

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mc_long", "mc_wide", "graph_p50", "graph_p5")
# One BLAS thread: the plain single-threaded baseline, and the steadiest
# figures on a small shared machine (at most nproc = 2 threads are available).
BLAS_THREADS = 1
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    return parser.parse_args(argv)


def tail(values):
    """Highest listed percentile with at least TAIL_BEYOND samples above it,
    as (percentile, exact order statistic, samples beyond), or None."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = -(-len(ordered) * int(pct * 10) // 1000)  # ceil(pct/100 * N)
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], len(ordered) - rank
    return None


def fresh_import_s() -> float:
    """Import time of this script and the workloads (numpy, lrdcov) in a fresh
    interpreter, so set-up can be repeated although imports are cached."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = {[str(HERE), str(ROOT / 'src')]!r}; "
            "import run, workloads; print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def program_hash(np_version: str) -> str:
    """Identifies the program under test, so replay digests compare one commit only."""
    sha = hashlib.sha256(f"{np_version}|{BLAS_THREADS}".encode())
    for path in sorted((ROOT / "src" / "lrdcov").rglob("*.py")):
        sha.update(path.name.encode() + path.read_bytes())
    return sha.hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # must precede the numpy import
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import lrdcov
    if not Path(lrdcov.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"lrdcov imported from {lrdcov.__file__}, not from {ROOT / 'src'}")
    from hostspeed import reference_s, scaled_median
    from tracing import Tracer, self_times
    from workloads import Checks, layer_metrics, make_workload
    import_s = time.perf_counter() - T0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workdir = OUT / args.workload / f"{args.size}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = make_workload(args.workload, args.size, args.seed, workdir)
    # A set-up repetition is an import in a fresh interpreter plus the
    # workload's set-up, between two runs of the reference kernel.
    setup_items, ref_before = [], reference_s()
    for _ in range(SETUP_REPEATS):
        import_time = fresh_import_s()
        start = time.perf_counter()
        workload.setup()
        ref_after = reference_s()
        setup_items.append((import_time + time.perf_counter() - start, ref_before, ref_after))
        ref_before = ref_after

    checks = Checks()
    quiet, tracer = Tracer(False), Tracer(True)
    pass_times, traced_times, op_times, layers, unaccounted, span_log = [], [], [], [], [], []
    pass_refs = []  # reference times around each untraced pass
    ref_before = reference_s()
    loop_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes; the untraced
        # ones are the baseline of trace.overhead_s.
        traced = bool(args.trace) and len(pass_times) > len(traced_times)
        with contextlib.ExitStack() as stack:
            if traced:
                workload.instrument(tracer, stack)
            workload.prepare_pass(stack)
            active = tracer if traced else quiet
            start = time.perf_counter()
            try:
                with active.span("pass"):
                    ops = workload.run_pass(active)
            except Exception:  # the run reports the failure instead of a figure
                checks.expect(False, traceback.format_exc())
                break
            elapsed = time.perf_counter() - start
        ref_after = reference_s()
        workload.check_pass(checks)
        if traced:
            spans = tracer.take()
            workload.check_trace(spans, checks)
            layers.append(layer_metrics(spans))
            unaccounted.append(self_times(spans)["pass"])
            span_log.append([{"name": s.name, "start": s.start, "end": s.end,
                              "parent": s.parent} for s in spans])
            traced_times.append(elapsed)
        else:
            pass_times.append(elapsed)
            pass_refs.append((ref_before, ref_after))
            op_times.extend(ops)
        ref_before = ref_after
        done = time.perf_counter() - loop_start
        if args.trace and not traced_times:
            continue
        if done + statistics.median(pass_times + traced_times) > args.seconds:
            break

    workload.finish(checks)
    # The key names the inputs (workload parameters and seed) and the program.
    params = hashlib.sha256(json.dumps(workload.params, sort_keys=True).encode())
    workload.check_store(checks, OUT / "digests",
                         f"{args.workload}-{args.size}-seed{args.seed}-"
                         f"{params.hexdigest()[:8]}-{program_hash(np.__version__)}")

    if args.trace:
        metrics = {name: statistics.mean(layer[name] for layer in layers)
                   for name in layers[0]} if layers else {}
        if traced_times:
            metrics["trace.run_s"] = statistics.mean(traced_times)
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.mean(pass_times)
            metrics["trace.unaccounted_s"] = statistics.mean(unaccounted)
    else:
        metrics = {"run_s": scaled_median([(t, *refs) for t, refs in zip(pass_times, pass_refs)]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "setup_s": scaled_median(setup_items),
                   } if op_times else {}
    if metrics and set(metrics) != set(units):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    op_tail = tail(op_times)
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy without show_config(mode=...)
        build = None
    manifest = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "params": workload.params, "derived": workload.derived(),
        "own_import_s": import_s, "setup_items_s": setup_items,
        "pass_times_s": pass_times, "pass_reference_times_s": pass_refs,
        "traced_pass_times_s": traced_times,
        "run_wall_median_s": statistics.median(pass_times) if pass_times else None,
        "ops": len(op_times),
        "op_p50_s": statistics.median(op_times) if op_times else None,
        "op_tail": (None if op_tail is None else
                    {"percentile": op_tail[0], "value_s": op_tail[1],
                     "samples_beyond": op_tail[2]}),
        "attempted": checks.attempted, "failed": len(checks.failures),
        "fail_ratio": len(checks.failures) / max(checks.attempted, 1),
        "failures": checks.failures[:20],
        "metrics": metrics,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "lrdcov": lrdcov.__version__, "program_hash": program_hash(np.__version__),
            "blas": build, "nproc": len(os.sched_getaffinity(0)),
            "blas_thread_cap": BLAS_THREADS,
        },
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1, default=str))
    if span_log:
        (workdir / "spans.json").write_text(json.dumps(span_log))
    shutil.rmtree(workdir / "inputs", ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:>30} = {value:.6g} {units[name]}")
    if pass_times:
        print(f"{'pass wall median':>30} = {manifest['run_wall_median_s']:.6g} s "
              f"over {len(pass_times)} passes")
    if op_times:
        print(f"{'op p50':>30} = {manifest['op_p50_s']:.6g} s over {len(op_times)} ops")
    if op_tail is not None:
        print(f"{'op tail':>30} = {op_tail[1]:.6g} s at p{op_tail[0]:g} "
              f"({op_tail[2]} ops beyond)")
    print(f"{'fail_ratio':>30} = {manifest['fail_ratio']:.6g} "
          f"({manifest['failed']} of {checks.attempted})")
    for failure in checks.failures[:5]:
        print(f"FAILED: {failure.strip()}")
    print(json.dumps({
        "correct": not checks.failures and bool(metrics),
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failures) if checks.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
