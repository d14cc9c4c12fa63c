"""The traced benchmark run (bench/workloads.py) patches module globals of
lrdcov.harness and lrdcov.pipeline by name; every workload's patches must
still apply to the package.  No pass is run."""

import contextlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_hooks_apply(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import Tracer
    from workloads import make_workload

    workload = make_workload(name, "tiny", 0, tmp_path)
    with contextlib.ExitStack() as stack:
        workload.instrument(Tracer(enabled=True), stack)
        workload.prepare_pass(stack)
