import numpy as np
import pytest
from hypothesis import settings

from lrdcov import custom_spec

# CI selects this with --hypothesis-profile=ci so every run draws the same
# examples; each test keeps its own max_examples.
settings.register_profile("ci", derandomize=True)


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
