"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sparkline
from repro.core import TimeoutProfiler, WorkerScheduler
from repro.data import PageCache, RandomSampler, BatchSampler
from repro.data.sample import SampleSpec
from repro.engine.accuracy import dice_score
from repro.engine.metrics import ExactSum, IntervalRecorder, utilization_series
from repro.policy import deal_batch_plan
from repro.sim import Environment, Store
from tests.helpers import StubDataset, stub_pipeline

# ---------------------------------------------------------------------------
# PageCache invariants
# ---------------------------------------------------------------------------


@given(
    capacity=st.integers(min_value=1, max_value=1000),
    accesses=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=400),
        ),
        max_size=200,
    ),
)
def test_page_cache_never_exceeds_capacity(capacity, accesses):
    cache = PageCache(capacity_bytes=capacity)
    for key, nbytes in accesses:
        cache.access(key, nbytes)
        assert cache.used_bytes <= capacity
    assert cache.hits + cache.misses == len(accesses)


@given(
    accesses=st.lists(
        st.integers(min_value=0, max_value=10), min_size=1, max_size=100
    )
)
def test_page_cache_everything_fits_second_access_hits(accesses):
    cache = PageCache(capacity_bytes=10**9)
    seen = set()
    for key in accesses:
        hit = cache.access(key, 10)
        assert hit == (key in seen)
        seen.add(key)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=2**16),
    epoch=st.integers(min_value=0, max_value=20),
)
def test_random_sampler_epoch_is_permutation(n, seed, epoch):
    sampler = RandomSampler(n, seed=seed)
    assert sorted(sampler.epoch(epoch)) == list(range(n))


@given(
    n=st.integers(min_value=1, max_value=200),
    batch=st.integers(min_value=1, max_value=32),
    drop_last=st.booleans(),
)
def test_batch_sampler_partitions(n, batch, drop_last):
    sampler = BatchSampler(RandomSampler(n, seed=1), batch, drop_last=drop_last)
    batches = sampler.epoch(0)
    flat = [i for b in batches for i in b]
    if drop_last:
        assert all(len(b) == batch for b in batches)
        assert len(flat) == (n // batch) * batch
    else:
        assert sorted(flat) == list(range(n))
    assert len(batches) == len(sampler)


# ---------------------------------------------------------------------------
# Worker scheduler (Formulas 1-2)
# ---------------------------------------------------------------------------


@given(
    workers=st.integers(min_value=1, max_value=256),
    fill=st.floats(min_value=-2, max_value=3, allow_nan=False),
    usage=st.floats(min_value=-2, max_value=3, allow_nan=False),
)
def test_scheduler_output_always_in_bounds(workers, fill, usage):
    scheduler = WorkerScheduler(min_workers=2, max_workers=64, delta_clip=2)
    decision = scheduler.decide(workers, fill, usage)
    assert 2 <= decision.new_workers <= 64
    assert abs(decision.clipped_delta) <= 2


@given(
    fill_low=st.floats(min_value=0, max_value=1),
    fill_high=st.floats(min_value=0, max_value=1),
    usage=st.floats(min_value=0, max_value=1),
)
def test_scheduler_monotone_in_queue_fill(fill_low, fill_high, usage):
    """Emptier queues never yield fewer workers."""
    if fill_low > fill_high:
        fill_low, fill_high = fill_high, fill_low
    scheduler = WorkerScheduler(max_workers=128)
    low = scheduler.decide(32, fill_low, usage)
    high = scheduler.decide(32, fill_high, usage)
    assert low.new_workers >= high.new_workers


# ---------------------------------------------------------------------------
# Profiler percentile properties
# ---------------------------------------------------------------------------


@given(
    times=st.lists(
        st.floats(min_value=1e-4, max_value=100, allow_nan=False),
        min_size=20,
        max_size=300,
    )
)
def test_profiler_timeout_within_observed_range(times):
    profiler = TimeoutProfiler(warmup_samples=10)
    for t in times:
        profiler.record(t)
    timeout = profiler.timeout()
    assert min(times) - 1e-9 <= timeout <= max(times) + 1e-9


@given(
    times=st.lists(
        st.floats(min_value=0.001, max_value=10, allow_nan=False),
        min_size=30,
        max_size=200,
    )
)
def test_profiler_p90_at_least_p75(times):
    p75 = TimeoutProfiler(percentile=75, warmup_samples=10)
    p90 = TimeoutProfiler(percentile=90, warmup_samples=10)
    for t in times:
        p75.record(t)
        p90.record(t)
    assert p90.timeout() >= p75.timeout() - 1e-9


# ---------------------------------------------------------------------------
# Pipeline cost properties
# ---------------------------------------------------------------------------


@given(
    cost=st.floats(min_value=1e-4, max_value=10, allow_nan=False),
    stages=st.integers(min_value=1, max_value=8),
)
def test_cost_profile_sums_to_total(cost, stages):
    pipeline = stub_pipeline(stages)
    spec = StubDataset([cost]).spec(0)
    profile = pipeline.cost_profile(spec)
    assert len(profile) == stages
    assert math.isclose(sum(profile), pipeline.total_cost(spec), rel_tol=1e-9)


@given(
    cost=st.floats(min_value=1e-4, max_value=10, allow_nan=False),
    permutation_seed=st.integers(min_value=0, max_value=1000),
)
def test_size_independent_pipeline_cost_is_permutation_invariant(
    cost, permutation_seed
):
    pipeline = stub_pipeline(4)
    spec = StubDataset([cost]).spec(0)
    rng = np.random.default_rng(permutation_seed)
    order = rng.permutation(4).tolist()
    reordered = pipeline.reordered(order)
    assert math.isclose(
        reordered.total_cost(spec), pipeline.total_cost(spec), rel_tol=1e-9
    )


# ---------------------------------------------------------------------------
# Exact sums
# ---------------------------------------------------------------------------

addends = st.lists(
    st.one_of(
        st.floats(min_value=-1e100, max_value=1e100),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1]),
    ),
    max_size=40,
)


def exact_sum(values):
    total = ExactSum()
    for value in values:
        total.add(value)
    return float(total)


@given(values=addends, data=st.data())
def test_an_exact_sum_is_fsum_in_any_order(values, data):
    """The one correctly rounded sum of the addends (``math.fsum``),
    whatever order they come in: negative and zero addends included."""
    shuffled = data.draw(st.permutations(values))
    assert exact_sum(values) == exact_sum(shuffled) == math.fsum(values)


@given(
    value=st.floats(min_value=-1e100, max_value=1e100),
    times=st.integers(min_value=0, max_value=300),
    before=addends,
)
def test_adding_a_value_k_times_is_k_adds(value, times, before):
    once = ExactSum()
    for other in before:
        once.add(other)
    once.add(value, times)
    assert float(once) == exact_sum(before + [value] * times)
    assert float(once) == math.fsum(before + [value] * times)


# ---------------------------------------------------------------------------
# Deterministic draws
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    salt=st.integers(min_value=0, max_value=10_000),
    stream=st.integers(min_value=0, max_value=100),
)
def test_u01_bounds_and_determinism(seed, salt, stream):
    spec = SampleSpec(index=0, raw_nbytes=1, seed=seed, modality="x")
    value = spec.u01(salt, stream)
    assert 0.0 <= value < 1.0
    assert value == spec.u01(salt, stream)


# ---------------------------------------------------------------------------
# Batch plan dealing
# ---------------------------------------------------------------------------


@given(
    total=st.integers(min_value=0, max_value=5000),
    batch=st.integers(min_value=1, max_value=64),
    gpus=st.integers(min_value=1, max_value=8),
)
def test_deal_batch_plan_conserves_samples(total, batch, gpus):
    plan = deal_batch_plan(total, batch, gpus)
    assert len(plan) == gpus
    assert sum(sum(sizes) for sizes in plan) == total
    for sizes in plan:
        assert all(1 <= s <= batch for s in sizes)
    # balanced: per-GPU batch counts differ by at most one
    counts = [len(sizes) for sizes in plan]
    assert max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@given(
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_utilization_series_bounded_and_conserves_busy_time(intervals):
    recorder = IntervalRecorder()
    for start, duration in intervals:
        recorder.record(start, start + duration)
    series = utilization_series(recorder.intervals, 0.0, 60.0, bucket=1.0)
    for _t, fraction in series:
        assert 0.0 <= fraction <= 1.0 + 1e-9
    # busy time within [0, 60] is conserved by the bucketing (to capacity 1,
    # buckets clip at 1.0, so only check when no bucket saturates)
    if all(f < 0.999 for _t, f in series):
        busy_in_window = sum(
            max(0.0, min(60.0, s + d) - min(s, 60.0)) for s, d in intervals
        )
        assert math.isclose(
            sum(f for _t, f in series), busy_in_window, rel_tol=1e-6, abs_tol=1e-6
        )


# ---------------------------------------------------------------------------
# Simulation store FIFO property
# ---------------------------------------------------------------------------


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
@settings(deadline=None)
def test_store_fifo_order_preserved(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            yield store.put(("item", item))

    def consumer():
        for _ in items:
            tag_value = yield store.get()
            received.append(tag_value[1])

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


# ---------------------------------------------------------------------------
# Misc
# ---------------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False), max_size=300
    ),
    width=st.integers(min_value=1, max_value=100),
)
def test_sparkline_width_bounded(values, width):
    line = sparkline(values, width=width)
    assert len(line) <= max(width, len(values)) if values else line == ""


@given(
    side=st.integers(min_value=1, max_value=12),
    bits_a=st.integers(min_value=0, max_value=2**16),
    bits_b=st.integers(min_value=0, max_value=2**16),
)
def test_dice_score_bounds_and_identity(side, bits_a, bits_b):
    rng_a = np.random.default_rng(bits_a)
    rng_b = np.random.default_rng(bits_b)
    a = rng_a.random((side, side)) > 0.5
    b = rng_b.random((side, side)) > 0.5
    score = dice_score(a, b)
    assert 0.0 <= score <= 1.0
    assert dice_score(a, a) == 1.0
    assert math.isclose(score, dice_score(b, a))
