import logging
import math
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from conftest import lags, peak_rss_growth

import lrdcov.model as model
import lrdcov.simulate as simulate
from lrdcov import (InvalidPlanError, MemoryBudgetError, SampleBatch,
                    SimulationPlan, autocovariance, banded_spec, coefficient, custom_spec,
                    load_batch, save_batch, simulate_multidimensional,
                    toeplitz_spec)
from lrdcov.model import decay_sequence, template

ZETA4 = math.pi ** 4 / 90.0
GAMMA1 = math.pi ** 2 / 3 - 3


def _circulant_oracle(plan):
    """Reference draw: for each feature j, the coefficients [A_1 .. A_{N-1}, A_0]
    flattened row j by row j form a circulant over the length-N*d innovation
    stream; X[i, j] is entry i*d of that circular convolution (p complex FFTs
    of length N*d).  Draws all N lags, so it matches at truncation >= N - 1."""
    spec, n, N, d = plan.spec, plan.n, plan.N, plan.spec.d
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    fft_innov = np.fft.fft(rng.standard_normal(N * d).astype(np.complex128))
    stack = np.stack([coefficient(spec, t) for t in range(N)])
    stack = np.concatenate([stack[1:], stack[:1]])
    needed = plan.copies_requested * n
    out = np.empty((needed, spec.p))
    for j in range(spec.p):
        series = np.fft.ifft(np.fft.fft(stack[:, j, :].ravel().astype(np.complex128))
                             * fft_innov)
        out[:, j] = series[:needed * d:d].real
    return out.reshape(plan.copies_requested, n, spec.p)


def _mixing_spec(p, d, truncation, beta=0.8):
    B = np.random.default_rng(3).standard_normal((p, d))
    return custom_spec(lags(lambda t: B * np.cos(t) * (t + 1.0) ** -beta, truncation),
                       beta=beta)


@pytest.mark.parametrize("spec", [
    toeplitz_spec(2.0, 3, truncation=10**6),
    banded_spec(0.9, 4, bandwidth=1, truncation=514),
    _mixing_spec(3, 4, truncation=600),
    _mixing_spec(4, 2, truncation=514),
    toeplitz_spec(0.6, 1, truncation=514),
], ids=["toeplitz", "banded", "custom_p3_d4", "custom_p4_d2", "scalar"])
def test_matches_circulant_oracle(spec):
    plan = SimulationPlan(spec, n=16, seed=41, N=515, copies_requested=20)
    got = simulate_multidimensional(plan).data
    want = _circulant_oracle(plan)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("spec", [banded_spec(1.2, 3, bandwidth=1, truncation=4),
                                  _mixing_spec(3, 2, truncation=4)],
                         ids=["banded", "custom"])
def test_time_domain_convolution_up_to_horizon(spec):
    n, N, H, d = 3, 12, 4, spec.d
    plan = SimulationPlan(spec, n=n, seed=8, N=N)
    got = simulate_multidimensional(plan).data.reshape(-1, spec.p)
    stream = np.random.default_rng(np.random.SeedSequence(8)).standard_normal(N * d)
    E = np.array([[stream[((s + 1) * d - k) % (N * d)] for k in range(d)]
                  for s in range(N)])
    want = np.zeros_like(got)
    for i in range(want.shape[0]):
        for j in range(spec.p):
            want[i, j] = sum(coefficient(spec, t)[j, k] * E[(i - t) % N, k]
                             for t in range(H + 1) for k in range(d))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13)


def test_custom_simulation_draws_only_lags_up_to_the_truncation():
    # lags past the truncation 6 are huge: a path that read one would be far off
    coeffs = lags(lambda t: np.full((2, 3), (t + 1.0) ** -1.5), 20)
    coeffs[7:] = 1e6
    want = simulate_multidimensional(
        SimulationPlan(custom_spec(coeffs[:7], beta=1.5), n=8, seed=2, N=64)).data
    got = simulate_multidimensional(SimulationPlan(
        replace(custom_spec(coeffs, beta=1.5), truncation=6), n=8, seed=2, N=64)).data
    assert got.shape == (8, 8, 2)
    assert np.array_equal(got, want)


def _one_shot_simulation(plan):
    """The simulator as it was before it drew its innovations in chunks and split
    its work in halves: one standard_normal call for the whole (N, d) stream,
    its strided transpose, one batched transform chain and one template
    product.  The reference every schedule of simulate_multidimensional must
    match byte for byte."""
    spec, n, N, d = plan.spec, plan.n, plan.N, plan.spec.d
    rng = np.random.default_rng(np.random.SeedSequence(plan.seed))
    stream = rng.standard_normal(N * d).reshape(N, d)
    innov = np.empty((d, N))
    innov[0] = np.roll(stream[:, 0], -1)
    innov[1:] = stream[:, :0:-1].T
    innov_fft = np.fft.rfft(innov)
    horizon = min(N - 1, spec.truncation)
    needed = plan.copies_requested * n
    if spec.separable:
        innov_fft *= np.fft.rfft(decay_sequence(spec, horizon + 1), n=N)
        scalar = np.fft.irfft(innov_fft, n=N)[:, :needed]
        out = np.einsum("km,jk->mj", scalar, template(spec))
    else:
        coeff_fft = np.fft.rfft(spec.coeffs[:horizon + 1], n=N, axis=0)
        series = np.fft.irfft(np.einsum("wjk,kw->jw", coeff_fft, innov_fft), n=N)
        out = np.ascontiguousarray(series[:, :needed].T)
    return out.reshape(plan.copies_requested, n, spec.p)


CHUNK = simulate._CHUNK_ROWS
# (p, cols) blocks of the template product at p = 4
TEMPLATE_COLS = simulate._TEMPLATE_BYTES // (8 * 4)
# (spec, n, N, copies): N below, at a multiple of and past a multiple of the
# chunk; one channel; odd copy counts; truncation below and above N - 1; halves
# of 3 and 4 channels at 2 per transform call, the last block of the first
# half ragged; each half's one copy one row past a template block
ONE_SHOT_CASES = {
    "toeplitz-below-a-chunk": (toeplitz_spec(2.0, 3, truncation=10**6), 16, 515, 20),
    "toeplitz-two-chunks-cut": (toeplitz_spec(0.9, 5, truncation=300), 128, 2 * CHUNK, 127),
    "banded-ragged-chunk": (banded_spec(1.2, 6, bandwidth=2, truncation=10**6), 100,
                            CHUNK + 1234, 83),
    "one-channel": (toeplitz_spec(0.6, 1, truncation=10**6), 50, 2 * CHUNK + 7, 31),
    "one-copy": (banded_spec(2.0, 4, bandwidth=1, truncation=40), 64, 4096, 1),
    "custom-cut": (_mixing_spec(3, 4, truncation=600), 40, CHUNK + 100, 25),
    "custom-past-n": (_mixing_spec(2, 1, truncation=3000), 30, 1000, 33),
    "transform-blocks-ragged": (toeplitz_spec(2.0, 7, truncation=10**6), 250, 62_500, 9),
    "template-one-past-a-block": (banded_spec(1.5, 4, bandwidth=1, truncation=10**6),
                                  TEMPLATE_COLS + 1, 2 * TEMPLATE_COLS + 5, 2),
}


@pytest.mark.parametrize("pool_state", ["none", "free", "busy"])
@pytest.mark.parametrize("case", list(ONE_SHOT_CASES))
def test_matches_the_one_shot_simulator_byte_for_byte(monkeypatch, case, pool_state):
    spec, n, N, copies = ONE_SHOT_CASES[case]
    plan = SimulationPlan(spec, n, seed=17, N=N, copies_requested=copies)
    want = _one_shot_simulation(plan)
    threads = []

    def recording(fn):
        def run(*args):
            threads.append(threading.current_thread())
            return fn(*args)
        return run

    for name in ("_convolve", "_apply_template"):
        monkeypatch.setattr(simulate, name, recording(getattr(simulate, name)))
    release = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        # a busy pool never starts a half, so the calling thread takes both back
        blocker = pool.submit(release.wait, 30) if pool_state == "busy" else None
        try:
            got = simulate_multidimensional(plan, None if pool_state == "none" else pool)
        finally:
            release.set()
        assert blocker is None or blocker.result()
    assert got.data.shape == want.shape and np.array_equal(got.data, want)
    if spec.separable:  # each step runs once or in two halves
        assert len(threads) == min(spec.d, 2) + min(copies, 2)
        if pool_state != "free":
            assert set(threads) == {threading.current_thread()}
    else:
        assert threads == []


def test_the_block_edge_cases_sit_on_their_edges():
    # 7 channels in halves of 3 and 4 at 2 per call (2 spectra of N/2 + 1
    # complex values fit the budget, 3 do not); a half of one copy is one full
    # template block and one more row
    spectrum = 16 * (62_500 // 2 + 1)
    assert 2 * spectrum <= simulate._TRANSFORM_BYTES < 3 * spectrum
    spec, n, N, copies = ONE_SHOT_CASES["template-one-past-a-block"]
    assert (spec.p, n * (copies // 2)) == (4, TEMPLATE_COLS + 1) and copies == 2


def test_a_taken_back_half_leaves_no_buffer_behind():
    # a cancelled half waits in the pool's queue until the pool is free; it must
    # not keep the (d, N) innovations alive after the simulation returns
    plan = SimulationPlan(toeplitz_spec(2.0, 10), n=50, seed=4, N=5000)
    release = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        blocker = pool.submit(release.wait, 30)
        tracemalloc.start()
        try:
            batch = simulate_multidimensional(plan, pool)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            release.set()
        assert blocker.result()
    assert held < batch.data.nbytes + 8 * plan.N  # the innovations would add 8 N d


def _simulate_with_the_helper_freed(monkeypatch, caplog, plan, chunks):
    """The paths of `plan` and its simulation record, with the helper busy
    until the caller has drawn `chunks` chunks of the innovation stream; the
    helper then claims its tail before the caller goes on."""
    release, claimed = threading.Event(), threading.Event()
    claim, scatter = simulate._Tail.claim, simulate._scatter
    calls = []

    def claiming(self):
        try:
            return claim(self)
        finally:
            claimed.set()

    def scattering(*args):
        scatter(*args)
        calls.append(args[2])
        if len(calls) == chunks:
            release.set()
            assert claimed.wait(30)

    monkeypatch.setattr(simulate._Tail, "claim", claiming)
    monkeypatch.setattr(simulate, "_scatter", scattering)
    caplog.set_level(logging.DEBUG, "lrdcov.simulate")
    with ThreadPoolExecutor(1) as pool:
        blocker = pool.submit(release.wait, 30)
        try:
            batch = simulate_multidimensional(plan, pool)
        finally:
            release.set()
        assert blocker.result()
    return batch.data, [r.getMessage() for r in caplog.records if r.name == "lrdcov.simulate"]


def _record(plan, drew):
    return f"N {plan.N}, d {plan.spec.d}: the helper drew {drew} of the innovations"


# the built-in cases whose stream is longer than a chunk
PAST_A_CHUNK = [case for case, (spec, n, N, copies) in ONE_SHOT_CASES.items()
                if spec.separable and N > CHUNK]


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("case", PAST_A_CHUNK)
def test_a_helper_freed_after_a_chunk_draws_the_tail_byte_for_byte(monkeypatch, caplog,
                                                                     case, chunks):
    # freed after the second chunk, one-channel leaves the helper 3 rows of one
    # normal, fewer than the caller's probe; the two-chunk cases leave it none
    spec, n, N, copies = ONE_SHOT_CASES[case]
    plan = SimulationPlan(spec, n, seed=17, N=N, copies_requested=copies)
    got, records = _simulate_with_the_helper_freed(monkeypatch, caplog, plan, chunks)
    assert np.array_equal(got, _one_shot_simulation(plan))
    begun = min(chunks * CHUNK, N)  # the end of the chunk the caller was drawing
    mid = begun + (N - begun + 1) // 2
    assert records == [_record(plan, f"rows {mid}..{N}" if mid < N
                               else "no rows (nothing left)")]


@pytest.mark.parametrize("case", PAST_A_CHUNK)
def test_a_tail_that_is_not_found_is_drawn_by_the_caller(monkeypatch, caplog, case):
    # with no slack the helper's draw starts after the stream's normal mid*d:
    # the caller does not find its probe there and draws the tail itself
    monkeypatch.setattr(simulate, "_slack", lambda normals: 0)
    spec, n, N, copies = ONE_SHOT_CASES[case]
    plan = SimulationPlan(spec, n, seed=17, N=N, copies_requested=copies)
    got, records = _simulate_with_the_helper_freed(monkeypatch, caplog, plan, 1)
    assert np.array_equal(got, _one_shot_simulation(plan))
    assert records == [_record(plan, "no rows (no match)")]


def test_a_free_helper_draws_the_tail_of_a_long_stream(caplog):
    # the mc_long cell's stream: a fallback would pass the byte-for-byte tests
    # and double the draw's time
    plan = SimulationPlan(toeplitz_spec(2.0, 10, truncation=62_499), 250, seed=3,
                          N=62_500, copies_requested=200)
    caplog.set_level(logging.DEBUG, "lrdcov.simulate")
    with ThreadPoolExecutor(1) as pool:
        got = simulate_multidimensional(plan, pool)
    (record,) = [r.getMessage() for r in caplog.records if r.name == "lrdcov.simulate"]
    mid = int(record.split("rows ")[1].split("..")[0])
    assert record == _record(plan, f"rows {mid}..62500")
    assert np.array_equal(got.data, simulate_multidimensional(plan).data)


def test_a_cancelled_tail_job_leaves_no_buffer_behind(caplog):
    # the tail job is queued behind a job that holds the helper past the draw,
    # so the caller cancels it; it must hold no part of the innovations
    plan = SimulationPlan(toeplitz_spec(2.0, 10), n=250, seed=4, N=62_500,
                          copies_requested=20)
    caplog.set_level(logging.DEBUG, "lrdcov.simulate")
    release = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        blocker = pool.submit(release.wait, 30)
        tracemalloc.start()
        try:
            batch = simulate_multidimensional(plan, pool)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            release.set()
        assert blocker.result()
    assert held < batch.data.nbytes + 8 * plan.N  # the innovations would add 8 N d
    assert [r.getMessage() for r in caplog.records if r.name == "lrdcov.simulate"] == [
        _record(plan, "no rows (not started)")]


def test_tail_claims_hold_under_frequent_thread_switches():
    # four callers, each with its own helper, on two cores, switching threads
    # every 10 us: a claim that raced the caller's progress would leave rows
    # unwritten or written twice
    N, d = 3 * CHUNK + 5, 2

    def stream(seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return rng.standard_normal(N * d).reshape(N, d)

    def check(seed):
        with ThreadPoolExecutor(1) as pool:
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            innov, drew = simulate._innovations(rng, N, d, pool)
        rows = stream(seed)
        return (np.array_equal(innov[1], rows[:, 1])
                and np.array_equal(innov[0], np.roll(rows[:, 0], -1)), drew)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as callers:
            results = list(callers.map(check, range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(same for same, _ in results)
    assert any(drew.startswith("rows") for _, drew in results)


def test_a_simulation_without_a_helper_records_it(caplog):
    plan = SimulationPlan(toeplitz_spec(2.0, 3), n=16, seed=1)
    caplog.set_level(logging.DEBUG, "lrdcov.simulate")
    simulate_multidimensional(plan)
    simulate_multidimensional(SimulationPlan(_mixing_spec(2, 2, truncation=20), n=16, seed=1))
    assert [r.getMessage() for r in caplog.records if r.name == "lrdcov.simulate"] == [
        _record(plan, "no rows (no helper)")]  # one record per built-in simulation


@pytest.mark.parametrize("d, n, N, copies", [
    (1, 100, 20_000, 50), (2, 64, CHUNK, None), (2, 100, 20_000, 50), (4, 100, 20_011, 200),
    (10, 64, CHUNK, None), (10, 250, 62_500, 200), (30, 50, 5000, 100),
    (7, 250, 62_500, None)],
    ids=["d1", "d2-one-chunk", "d2", "d4-all-lags", "d10-one-chunk", "d10", "d30",
         "d7-two-channels-per-call"])
@pytest.mark.parametrize("pool_state", ["none", "free"])
def test_peak_bytes_cover_the_traced_peak(d, n, N, copies, pool_state):
    plan = SimulationPlan(toeplitz_spec(2.0, d, truncation=N - 1), n, seed=1, N=N,
                          copies_requested=copies)
    with ThreadPoolExecutor(1) as executor:
        pool = None if pool_state == "none" else executor
        simulate_multidimensional(SimulationPlan(toeplitz_spec(2.0, d), 4, seed=0), pool)
        tracemalloc.start()
        try:
            simulate_multidimensional(plan, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= plan.peak_bytes


@pytest.mark.parametrize("spec, N, helper, loosest", [
    ("toeplitz(1)", 2**20, False, None), ("toeplitz(2)", 2**20, False, None),
    ("toeplitz(2)", 2**20, True, None), ("toeplitz(10)", 2**20, True, None),
    ("mixing(1, 1)", 2**20, False, 1.7), ("mixing(2, 2)", 2**19, False, 1.7),
    ("mixing(5, 5)", 2**17, False, 1.7), ("mixing(10, 3)", 2**17, False, 1.7),
    ("mixing(3, 10)", 2**17, False, 1.7)],
    ids=["d1", "d2", "d2-helper", "d10-helper", "custom-p1-d1", "custom-p2-d2", "custom-p5-d5",
         "custom-p10-d3", "custom-p3-d10"])
def test_peak_bytes_cover_the_peak_rss_growth(spec, N, helper, loosest):
    # tracemalloc does not see pocketfft's scratch, which below d = 5 is most of
    # the peak (two transform calls at once at d = 2 with a helper; at d = 1 the
    # helper has no channel to take).  Below about 2^20 lags the heap's free
    # memory hides part of the growth.  A custom spec's 1000 lags are zero-padded
    # to N, and its estimate is held to the built-in one's loosest ratio (23.6 B
    # against 14 per element at d 10).
    grown, estimate = peak_rss_growth(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import numpy as np\n"
        "from lrdcov import SimulationPlan, custom_spec, simulate_multidimensional, "
        "toeplitz_spec\n"
        f"def toeplitz(d):\n    return toeplitz_spec(2.0, d, truncation={N - 1})\n"
        "def mixing(p, d):\n"
        "    t = np.arange(1000.0)[:, None, None]\n"
        "    mix = np.random.default_rng(3).standard_normal((p, d))\n"
        "    return custom_spec(mix * np.cos(t) * (t + 1.0) ** -0.8, beta=0.8)\n"
        f"pool = ThreadPoolExecutor(1) if {helper} else None\n"
        f"spec = {spec}\n"
        f"plan = SimulationPlan(spec, 1024, seed=1, N={N})\n"
        "simulate_multidimensional(SimulationPlan(spec, 4, seed=0), pool)",
        "simulate_multidimensional(plan, pool)", "plan.peak_bytes")
    assert grown <= estimate
    assert loosest is None or estimate <= loosest * grown


@pytest.mark.parametrize("spec", [toeplitz_spec(2.0, 4, truncation=10**6),
                                  _mixing_spec(3, 4, truncation=20_050)],
                         ids=["toeplitz", "custom"])
def test_tracemalloc_peak_within_estimate(spec):
    plan = SimulationPlan(spec, n=100, seed=1, N=20_000)
    tracemalloc.start()
    try:
        simulate_multidimensional(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan.peak_bytes


def test_budget_default_and_byte_boundary(monkeypatch):
    plan = SimulationPlan(toeplitz_spec(2.0, 4), n=10, seed=0, N=2**50)
    with pytest.raises(MemoryBudgetError, match=str(plan.peak_bytes)):
        simulate_multidimensional(plan)
    small = SimulationPlan(toeplitz_spec(2.0, 2), n=8, seed=0, N=64)
    monkeypatch.setattr(model, "MEMORY_BUDGET", small.peak_bytes)
    simulate_multidimensional(small)
    monkeypatch.setattr(model, "MEMORY_BUDGET", small.peak_bytes - 1)
    with pytest.raises(MemoryBudgetError, match=f"estimated {small.peak_bytes} bytes, "
                                                f"over the budget of {small.peak_bytes - 1}"):
        simulate_multidimensional(small)


def pooled_moment(batch, lag):
    X = batch.data[:, :, 0]
    if lag == 0:
        per_copy = (X * X).mean(axis=1)
    else:
        per_copy = (X[:, :-lag] * X[:, lag:]).mean(axis=1)
    return per_copy.mean(), per_copy.std(ddof=1) / math.sqrt(per_copy.shape[0])


def test_identity_coefficients_permute_innovations(iid_spec_p1):
    plan = SimulationPlan(iid_spec_p1, n=2, seed=7, N=8)
    batch = simulate_multidimensional(plan)
    rng = np.random.default_rng(np.random.SeedSequence(7))
    innovations = rng.standard_normal(8)
    produced = batch.data.ravel()
    assert produced.shape == (8,)
    assert np.allclose(np.sort(produced), np.sort(innovations), rtol=1e-12, atol=1e-12)
    assert np.var(produced) == pytest.approx(np.var(innovations), rel=1e-12)


def test_plan_validation():
    spec = toeplitz_spec(2.0, 1)
    with pytest.raises(InvalidPlanError):
        SimulationPlan(spec, n=100, seed=0, N=50)
    with pytest.raises(InvalidPlanError):
        SimulationPlan(spec, n=10, seed=0, N=100, copies_requested=11)
    with pytest.raises(InvalidPlanError, match="series length n must be positive"):
        SimulationPlan(spec, n=0, seed=0)
    plan = SimulationPlan(spec, n=10, seed=0)
    assert plan.N == 100
    assert plan.copies_requested == 10


def test_memory_budget_error(monkeypatch):
    plan = SimulationPlan(toeplitz_spec(2.0, 2), n=32, seed=0, N=1024)
    monkeypatch.setattr(model, "MEMORY_BUDGET", 100 * 24)  # the plan needs 1024 * (2 * 20 + 36)
    with pytest.raises(MemoryBudgetError):
        simulate_multidimensional(plan)


def test_reproducibility_and_seed_sensitivity():
    spec = toeplitz_spec(2.0, 2, truncation=10_000)
    plan = SimulationPlan(spec, n=64, seed=11, copies_requested=30)
    first = simulate_multidimensional(plan)
    second = simulate_multidimensional(plan)
    assert np.array_equal(first.data, second.data)
    other = simulate_multidimensional(SimulationPlan(spec, n=64, seed=12,
                                                     copies_requested=30))
    assert not np.array_equal(first.data, other.data)
    # same law: two-sample KS on pooled first coordinates at level 0.001
    from lrdcov import kolmogorov_distance
    a = first.data[:, :, 0].ravel()
    b = other.data[:, :, 0].ravel()
    crit = 1.95 * math.sqrt((a.size + b.size) / (a.size * b.size))
    assert kolmogorov_distance(a, b) < crit


def test_scalar_pooled_variance_and_lag1():
    spec = toeplitz_spec(2.0, 1, truncation=100_000)
    plan = SimulationPlan(spec, n=2000, seed=314, copies_requested=150)
    batch = simulate_multidimensional(plan)
    mean0, se0 = pooled_moment(batch, 0)
    assert abs(mean0 - ZETA4) < 3 * se0
    mean1, se1 = pooled_moment(batch, 1)
    assert abs(mean1 - GAMMA1) < 3 * se1


def test_independent_coordinates_uncorrelated(iid_spec_p2):
    plan = SimulationPlan(iid_spec_p2, n=500, seed=5, N=50_000)
    batch = simulate_multidimensional(plan)
    cross = (batch.data[:, :, 0] * batch.data[:, :, 1]).mean(axis=1)
    se = cross.std(ddof=1) / math.sqrt(cross.shape[0])
    assert abs(cross.mean()) < 3 * se


def test_long_memory_matrix_autocovariance():
    spec = toeplitz_spec(0.9, 10, truncation=250_000)
    plan = SimulationPlan(spec, n=500, seed=77, copies_requested=200)
    batch = simulate_multidimensional(plan)
    X = batch.data
    per_copy = np.einsum("knp,knq->kpq", X, X) / X.shape[1]
    mean = per_copy.mean(axis=0)
    se = per_copy.std(axis=0, ddof=1) / math.sqrt(X.shape[0])
    gamma0 = autocovariance(spec, 0)
    assert np.all(np.abs(mean - gamma0) < 4 * se)


def test_pooled_mean_and_gaussian_shape():
    spec = toeplitz_spec(2.0, 1, truncation=250_000)
    plan = SimulationPlan(spec, n=500, seed=999, copies_requested=250)
    data = simulate_multidimensional(plan).data
    pooled = data.ravel()
    assert pooled.size >= 10 ** 5
    copy_means = data.mean(axis=(1, 2))
    se_mean = copy_means.std(ddof=1) / math.sqrt(copy_means.size)
    assert abs(copy_means.mean()) < 4 * se_mean
    centered = pooled - pooled.mean()
    sd = centered.std()
    skew = (centered ** 3).mean() / sd ** 3
    kurt = (centered ** 4).mean() / sd ** 4 - 3.0
    assert abs(skew) < 0.1
    assert abs(kurt) < 0.2


def test_binary_dump_round_trip(tmp_path):
    spec = toeplitz_spec(2.0, 3, truncation=1000)
    batch = simulate_multidimensional(SimulationPlan(spec, n=16, seed=21, N=256,
                                                     copies_requested=4))
    path = tmp_path / "batch.lrdsim"
    save_batch(batch, path)
    raw = path.read_bytes()
    assert raw[:7] == b"LRDSIM1"
    header = np.frombuffer(raw[7:39], dtype="<u8")
    assert header.tolist() == [16, 3, 4, 21]
    assert len(raw) == 7 + 32 + 4 * 16 * 3 * 8
    loaded = load_batch(path)
    assert loaded.master_seed == 21
    assert np.array_equal(loaded.data, batch.data)


@pytest.mark.parametrize("cut", [7, 20, 39 + 96, 39 + 100])
def test_truncated_dump_rejected(tmp_path, cut):
    # cut right after the magic, inside the 32-byte header, or inside the body
    spec = toeplitz_spec(2.0, 3, truncation=1000)
    batch = simulate_multidimensional(SimulationPlan(spec, n=16, seed=21, N=256,
                                                     copies_requested=4))
    path = tmp_path / "batch.lrdsim"
    save_batch(batch, path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="sample-batch file is truncated"):
        load_batch(path)


@pytest.mark.parametrize("extra", [0, 1, 24])
def test_dump_longer_than_its_header_rejected(tmp_path, extra):
    # bytes past the body the header describes are an error, not ignored
    batch = SampleBatch(np.random.default_rng(31).standard_normal((4, 10, 2)), 9)
    path = tmp_path / "batch.lrdsim"
    save_batch(batch, path)
    path.write_bytes(path.read_bytes() + bytes(extra))
    if extra:
        with pytest.raises(ValueError, match=f"sample-batch file has {extra} trailing bytes"):
            load_batch(path)
    else:
        assert np.array_equal(load_batch(path).data, batch.data)


def test_load_batch_reads_the_body_in_place(tmp_path):
    # the body goes straight into the returned array: no bytes copy beside it
    batch = SampleBatch(np.random.default_rng(8).standard_normal((8, 1000, 50)), 3)
    path = tmp_path / "batch.lrdsim"
    save_batch(batch, path)
    tracemalloc.start()
    try:
        loaded = load_batch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.data, batch.data)
    assert loaded.data.dtype == np.float64 and loaded.data.flags.writeable
    assert peak <= 1.1 * batch.data.nbytes


@pytest.mark.parametrize("n, p, copies", [(2**64 - 1,) * 3, (2**20, 2**20, 4),
                                          (2**61, 1, 1), (0, 5, 3), (2**64 - 1, 1, 0),
                                          (2**40, 2**40, 0)])
def test_header_claiming_more_than_the_file_is_rejected_unread(tmp_path, n, p, copies):
    # 2^64-1 cubed and 2^64 bytes overflowed read(); 2^45 bytes (32 TiB) ran out of memory.
    # A zero dimension claims 0 bytes: (0, 5, 3) loaded an empty batch and the others
    # failed in reshape.
    path = tmp_path / "batch.lrdsim"
    path.write_bytes(b"LRDSIM1" + struct.pack("<QQQQ", n, p, copies, 5) + bytes(96))
    message = ("sample-batch file is truncated" if n * p * copies else
               f"sample-batch header has a zero dimension: n = {n}, p = {p}, copies = {copies}")
    with pytest.raises(ValueError, match=message):
        load_batch(path)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_plan_rejects_a_seed_the_dump_header_cannot_hold(seed):
    with pytest.raises(InvalidPlanError, match=rf"seed = {seed} outside \[0, 2\^64\)"):
        SimulationPlan(toeplitz_spec(2.0, 1), n=10, seed=seed)
    SimulationPlan(toeplitz_spec(2.0, 1), n=10, seed=2**64 - 1)  # the largest u64


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_save_batch_rejects_an_out_of_range_seed_before_opening_the_file(tmp_path, seed):
    path = tmp_path / "batch.lrdsim"
    with pytest.raises(ValueError, match=rf"master_seed = {seed} outside \[0, 2\^64\)"):
        save_batch(SampleBatch(np.zeros((1, 4, 2)), seed), path)
    assert not path.exists()


def test_load_batch_rejects_a_wrong_magic(tmp_path):
    path = tmp_path / "batch.lrdsim"
    path.write_bytes(b"LRDSIM0" + struct.pack("<QQQQ", 1, 1, 1, 0) + bytes(8))
    with pytest.raises(ValueError, match=r"not a sample-batch file \(magic b'LRDSIM0'\)"):
        load_batch(path)
