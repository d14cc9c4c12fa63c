import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from lrdcov import custom_spec

# CI selects this with --hypothesis-profile=ci so every run draws the same
# examples; each test keeps its own max_examples.
settings.register_profile("ci", derandomize=True)


def peak_rss_growth(setup: str, call: str, estimate: str) -> tuple[int, int]:
    """In a fresh Linux interpreter that has run `setup`: the bytes by which the
    statement `call` raises its peak RSS above its RSS just before the call, and
    the value of the expression `estimate` there.  Let `setup` warm the call up
    on a small input, so that lazily built objects count in neither.  The peak
    is VmHWM, not ru_maxrss: a child's ru_maxrss starts at the forking process's
    peak, which a test session's exceeds."""
    code = ("def rss():\n"
            "    status = open('/proc/self/status').read().split()\n"
            "    return [1024 * int(status[status.index(key) + 1])\n"
            "            for key in ('VmHWM:', 'VmRSS:')]\n"
            f"{setup}\n"
            "before, now = rss()\n"
            f"{call}\n"
            f"print(before, rss()[0], now, {estimate})")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    before, after, now, value = map(int, done.stdout.split())
    assert before < after, "the call's peak is hidden by an earlier one"
    return after - now, value


def lags(fn, H):
    """The (H + 1, p, d) coefficient array A_0..A_H of a custom spec, A_t = fn(t)."""
    return np.array([fn(t) for t in range(H + 1)])


@pytest.fixture
def iid_spec_p1():
    """Scalar i.i.d. process: A_0 = 1, A_t = 0 otherwise."""
    return custom_spec(lags(lambda t: np.eye(1) if t == 0 else np.zeros((1, 1)), 4), beta=1.0)


@pytest.fixture
def iid_spec_p2():
    return custom_spec(lags(lambda t: np.eye(2) if t == 0 else np.zeros((2, 2)), 4), beta=1.0)


@pytest.fixture
def huge_csv(tmp_path):
    """303 x 3 table: column 'a' of order 1, 'b' and 'c' near 1e200, whose
    squares overflow."""
    rng = np.random.default_rng(4)
    data = 1e200 * (1.0 + rng.standard_normal((303, 3)))
    data[:, 0] = rng.standard_normal(303)
    path = tmp_path / "huge.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    return path
