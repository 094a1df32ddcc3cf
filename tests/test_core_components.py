"""Unit tests for MinatoLoader's components: profiler, scheduler, balancer,
queues, batch records and configuration validation."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.clock import ThreadLocalClock
from repro.core import (
    Batch,
    LoadBalancer,
    MinatoConfig,
    TimeoutProfiler,
    WorkerScheduler,
    WorkQueue,
)
from repro.core.queues import QueueClosed
from repro.data.sample import Sample
from repro.errors import ConfigurationError, LoaderStateError
from repro.transforms.base import WorkContext

from .helpers import StubDataset, run_with_watchdog, stub_pipeline

# ---------------------------------------------------------------------------
# MinatoConfig
# ---------------------------------------------------------------------------


def test_config_defaults_match_paper():
    cfg = MinatoConfig()
    assert cfg.num_workers == 12  # §5.1
    assert cfg.queue_capacity == 100  # §5.1
    assert cfg.timeout_percentile == 75.0  # §4.2
    assert cfg.fallback_percentile == 90.0  # §4.2
    assert cfg.poll_interval == pytest.approx(0.010)  # Algorithm 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"num_workers": 0},
        {"num_gpus": 0},
        {"slow_workers": 0},
        {"queue_capacity": 0},
        {"timeout_percentile": 0},
        {"timeout_percentile": 120},
        {"fallback_percentile": 50},  # below timeout percentile
        {"max_slow_fraction": 0},
        {"warmup_samples": 0},
        {"timeout_override": -1.0},
        {"timeout_override": float("nan")},
        {"min_workers": 5, "max_workers": 2},
        {"delta_clip": 0},
        {"poll_interval": 0},
        {"poll_interval": float("nan")},
        {"scheduler_interval": float("nan")},
        {"timing": "psychic"},
        {"delta_clip": float("nan")},
        {"alpha": float("nan")},
        {"beta": float("inf")},
        {"beta": float("-inf")},
        {"cpu_threshold": 0.0},
        {"cpu_threshold": 1.0},
        {"cpu_threshold": float("nan")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        MinatoConfig(**kwargs)


def test_config_total_initial_workers_capped():
    cfg = MinatoConfig(num_workers=12, num_gpus=4, max_workers=30)
    assert cfg.total_initial_workers == 30


# ---------------------------------------------------------------------------
# TimeoutProfiler
# ---------------------------------------------------------------------------


def test_profiler_warmup_is_optimistic():
    profiler = TimeoutProfiler(warmup_samples=10)
    for _ in range(9):
        profiler.record(0.1)
    assert profiler.in_warmup
    assert profiler.timeout() == math.inf


def test_profiler_p75_after_warmup():
    profiler = TimeoutProfiler(percentile=75, warmup_samples=10)
    for t in np.linspace(0.1, 1.0, 100):
        profiler.record(float(t))
    assert not profiler.in_warmup
    assert profiler.timeout() == pytest.approx(np.percentile(np.linspace(0.1, 1.0, 100), 75), rel=0.05)


def test_profiler_override_wins():
    profiler = TimeoutProfiler(override=0.42, warmup_samples=5)
    assert profiler.timeout() == 0.42
    for _ in range(10):
        profiler.record(5.0)
    assert profiler.timeout() == 0.42


def test_profiler_fallback_to_p90_when_too_many_slow():
    profiler = TimeoutProfiler(
        percentile=75, fallback_percentile=90, warmup_samples=10, max_slow_fraction=0.4
    )
    # Feed a stream where >40% of samples get flagged slow.
    for i in range(200):
        profiler.record(1.0 + (i % 2), flagged_slow=(i % 2 == 0))
    profiler.timeout()
    assert profiler.active_percentile == 90


def test_profiler_recovers_from_fallback():
    profiler = TimeoutProfiler(warmup_samples=10, max_slow_fraction=0.4)
    for i in range(100):
        profiler.record(1.0, flagged_slow=True)
    profiler.timeout()
    assert profiler.active_percentile == 90
    for i in range(2000):
        profiler.record(1.0, flagged_slow=False)
    profiler.timeout()
    assert profiler.active_percentile == 75


def test_profiler_sliding_window_tracks_drift():
    profiler = TimeoutProfiler(warmup_samples=10, window=64)
    for _ in range(64):
        profiler.record(0.1)
    early = profiler.timeout()
    for _ in range(64):
        profiler.record(10.0)
    late = profiler.timeout()
    assert late > early * 10


def test_profiler_rejects_negative_times():
    profiler = TimeoutProfiler()
    with pytest.raises(ValueError):
        profiler.record(-1.0)


@pytest.mark.parametrize("seconds", [math.nan, math.inf])
def test_profiler_rejects_non_finite_times(seconds):
    """What `seconds < 0` let through: a NaN has no place in a sorted window
    (the eviction would delete the wrong element), an inf none in an
    interpolation (inf - inf)."""
    profiler = TimeoutProfiler()
    with pytest.raises(ValueError):
        profiler.record(seconds)
    assert profiler.observations == 0


def test_profiler_snapshot_fields():
    profiler = TimeoutProfiler(warmup_samples=4)
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        profiler.record(t)
    snap = profiler.snapshot()
    assert snap.observations == 5
    assert not snap.in_warmup
    assert snap.mean_seconds == pytest.approx(0.3)
    assert snap.p90_seconds >= snap.p75_seconds


# ---------------------------------------------------------------------------
# WorkerScheduler (Formulas 1-2)
# ---------------------------------------------------------------------------


def test_scheduler_scales_up_when_queues_empty_and_cpu_busy():
    s = WorkerScheduler(alpha=2, beta=2, cpu_threshold=0.7, delta_clip=2, max_workers=64)
    d = s.decide(workers=12, queue_fill=0.0, cpu_usage=1.0)
    assert d.clipped_delta == 2
    assert d.new_workers == 14


def test_scheduler_scales_down_when_queues_full_and_cpu_idle():
    s = WorkerScheduler(alpha=2, beta=2, cpu_threshold=0.7, delta_clip=2)
    # Formula 2 = 2*(1-1) + 2*(0-0.7) = -1.4 -> -1
    d = s.decide(workers=12, queue_fill=1.0, cpu_usage=0.0)
    assert d.clipped_delta == -1
    assert d.new_workers == 11


def test_scheduler_delta_clipped_to_range():
    s = WorkerScheduler(alpha=2, beta=6, cpu_threshold=0.7, delta_clip=2)
    # Formula 2 = 2*0 + 6*(0-0.7) = -4.2 -> clipped to -2
    d = s.decide(workers=12, queue_fill=1.0, cpu_usage=0.0)
    assert d.raw_delta == pytest.approx(-4.2)
    assert d.clipped_delta == -2
    assert d.new_workers == 10


def test_scheduler_steady_state_no_change():
    s = WorkerScheduler(alpha=2, beta=2, cpu_threshold=0.7)
    # Formula 2 = 2*(1-0.9) + 2*(0.6-0.7) = 0.0
    d = s.decide(workers=12, queue_fill=0.9, cpu_usage=0.6)
    assert d.clipped_delta == 0
    assert d.new_workers == 12


def test_scheduler_respects_bounds():
    s = WorkerScheduler(min_workers=4, max_workers=16)
    assert s.decide(15, 0.0, 1.0).new_workers == 16
    assert s.decide(5, 1.0, 0.0).new_workers == 4


def test_scheduler_clips_inputs():
    s = WorkerScheduler()
    d = s.decide(10, queue_fill=-3.0, cpu_usage=7.0)
    assert d.queue_fill == 0.0
    assert d.cpu_usage == 1.0


def test_scheduler_validation():
    with pytest.raises(ConfigurationError):
        WorkerScheduler(delta_clip=0)
    with pytest.raises(ConfigurationError):
        WorkerScheduler(cpu_threshold=1.5)
    with pytest.raises(ConfigurationError):
        WorkerScheduler(min_workers=10, max_workers=2)
    # NaN and infinite knobs are refused here, not at the first decide()
    with pytest.raises(ConfigurationError, match="delta_clip"):
        WorkerScheduler(delta_clip=float("nan"))
    with pytest.raises(ConfigurationError, match="alpha"):
        WorkerScheduler(alpha=float("nan"))
    with pytest.raises(ConfigurationError, match="beta"):
        WorkerScheduler(beta=float("inf"))


# ---------------------------------------------------------------------------
# WorkQueue
# ---------------------------------------------------------------------------


def test_workqueue_roundtrip_and_counters():
    q = WorkQueue(capacity=4, name="t")
    assert q.try_put("a")
    assert q.try_put("b")
    assert len(q) == 2
    assert q.try_get() == "a"
    assert len(q) == 1


def test_workqueue_capacity_and_fill_fraction():
    q = WorkQueue(capacity=2)
    q.try_put(1)
    assert q.fill_fraction() == pytest.approx(0.5)
    q.try_put(2)
    assert not q.try_put(3)


def test_workqueue_rejects_capacity_below_one():
    """Every queue is bounded: an unbounded one would let a loader run
    ahead of its consumer without limit."""
    for capacity in (0, -1):
        with pytest.raises(LoaderStateError, match="capacity"):
            WorkQueue(capacity=capacity)


def test_workqueue_try_get_empty():
    q = WorkQueue(capacity=2)
    assert q.try_get() is None


def test_workqueue_closed_put_raises():
    q = WorkQueue(capacity=2)
    q.close()
    with pytest.raises(QueueClosed):
        q.try_put(1)


def test_workqueue_get_returns_none_when_closed_and_drained():
    q = WorkQueue(capacity=2)
    q.try_put("x")
    q.close()
    assert q.get() == "x"
    assert q.get() is None


def test_workqueue_get_interruptible_by_stop():
    """The stop signal is `abort()` (the chassis' `_halt` sends it to every
    queue); it wins over queued items and over close, and it lasts."""
    q = WorkQueue(capacity=2)
    q.try_put("queued")
    q.abort()
    assert q.get() is None
    assert q.put("x") is False
    assert q.try_get() == "queued"  # the non-blocking calls still work


def test_workqueue_rejects_bad_low_water():
    for low_water in (-1, 4, 5):
        with pytest.raises(LoaderStateError):
            WorkQueue(capacity=4, low_water=low_water)
    assert WorkQueue(capacity=1, low_water=0).capacity == 1


# The blocking contract (see the module docstring of repro.core.queues).
# Every cell runs under the watchdog: a lost wake-up is a failure, not a hang.

CONTRACT_SECONDS = 2.0
#: a caller counts as blocked once it has stayed blocked this long
SETTLE_SECONDS = 0.05


class _Blocked:
    """``call()`` on a thread of its own: is it still blocked, what came back."""

    def __init__(self, call):
        self.outcome = []

        def target():
            try:
                self.outcome.append(call())
            except QueueClosed as exc:
                self.outcome.append(exc)

        self._thread = threading.Thread(target=target, daemon=True)
        self._thread.start()

    def still_blocked(self) -> bool:
        self._thread.join(SETTLE_SECONDS)
        return self._thread.is_alive()

    def result(self):
        run_with_watchdog(self._thread.join, CONTRACT_SECONDS)
        return self.outcome[0]


def full_queue(capacity, **kwargs):
    q = WorkQueue(capacity=capacity, **kwargs)
    for item in range(capacity):
        assert q.try_put(item)
    return q


def test_workqueue_parked_producer_released_at_low_water_not_above():
    q = full_queue(8, low_water=4)
    producer = _Blocked(lambda: q.put("late"))
    assert producer.still_blocked()
    for expected_len in (7, 6, 5):  # above the mark: room, but nobody is woken
        q.try_get()
        assert len(q) == expected_len and producer.still_blocked()
    q.try_get()  # occupancy 4: the crossing
    assert producer.result() is True
    assert len(q) == 5


def test_workqueue_low_water_releases_every_parked_producer_together():
    q = full_queue(8, low_water=4)
    producers = [_Blocked(lambda i=i: q.put(f"late-{i}")) for i in range(3)]
    assert all(p.still_blocked() for p in producers)
    for _ in range(4):
        q.get()
    assert [p.result() for p in producers] == [True] * 3
    assert len(q) == 7


def test_workqueue_default_mark_releases_on_the_first_get():
    q = full_queue(8)
    producer = _Blocked(lambda: q.put("late"))
    assert producer.still_blocked()
    assert q.get() == 0
    assert producer.result() is True
    assert len(q) == 8


def test_workqueue_blocked_get_woken_by_put():
    for put in (WorkQueue.put, WorkQueue.try_put):
        q = WorkQueue(capacity=2)
        consumer = _Blocked(q.get)
        assert consumer.still_blocked()
        assert put(q, "item")
        assert consumer.result() == "item"


def test_workqueue_close_wakes_blocked_get_and_parked_put():
    empty = WorkQueue(capacity=2)
    consumer = _Blocked(empty.get)
    full = full_queue(2, low_water=0)
    producer = _Blocked(lambda: full.put("late"))
    assert consumer.still_blocked() and producer.still_blocked()
    empty.close()
    full.close()
    assert consumer.result() is None
    assert isinstance(producer.result(), QueueClosed)
    assert len(full) == 2


def test_workqueue_abort_returns_blocked_callers_without_a_poll_slice():
    empty = WorkQueue(capacity=2)
    consumer = _Blocked(empty.get)
    full = full_queue(2)
    producer = _Blocked(lambda: full.put("late"))
    assert consumer.still_blocked() and producer.still_blocked()
    began = time.monotonic()
    empty.abort()
    full.abort()
    assert consumer.result() is None
    assert producer.result() is False
    assert time.monotonic() - began < 0.05
    assert len(full) == 2


def test_workqueue_has_no_timeouts():
    """No poll slice, no timed wait, no second queue class underneath."""
    import repro.core.queues

    with open(repro.core.queues.__file__) as handle:
        source = handle.read()
    assert "_POLL_SLICE" not in source and "timeout=" not in source
    assert "import queue" not in source


@pytest.mark.parametrize("capacity", [1, 2, 3, 100])
@pytest.mark.parametrize("mark", ["default", "half"])
def test_workqueue_stress_delivers_every_item_exactly_once(capacity, mark):
    """More producers and consumers than cores, a thread switch every 10 us,
    blocking and non-blocking callers mixed: nothing lost, nothing twice,
    occupancy never above capacity, everybody comes home."""
    low_water = capacity // 2 if mark == "half" else None
    q = WorkQueue(capacity=capacity, low_water=low_water)
    producers = 2 * (os.cpu_count() or 1) + 1
    consumers = 2 * (os.cpu_count() or 1)
    per_producer = 400
    received = [[] for _ in range(consumers)]
    peak = [0] * consumers

    def produce(p):
        for i in range(per_producer):
            item = p * per_producer + i
            if i % 2:
                while not q.try_put(item):
                    time.sleep(0)
            else:
                assert q.put(item)

    def consume(c):
        while True:
            peak[c] = max(peak[c], len(q))
            item = q.get() if c % 2 else q.try_get()
            if item is not None:
                received[c].append(item)
            elif q.closed and len(q) == 0:
                return
            else:
                time.sleep(0)

    def run():
        threads = [threading.Thread(target=produce, args=(p,), daemon=True) for p in range(producers)]
        drains = [threading.Thread(target=consume, args=(c,), daemon=True) for c in range(consumers)]
        for thread in threads + drains:
            thread.start()
        for thread in threads:
            thread.join()
        q.close()
        for thread in drains:
            thread.join()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run_with_watchdog(run, 30.0)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(i for got in received for i in got) == list(range(producers * per_producer))
    assert max(peak) <= capacity


# ---------------------------------------------------------------------------
# LoadBalancer (Algorithm 1)
# ---------------------------------------------------------------------------


def make_balancer(n_stages=4):
    pipeline = stub_pipeline(n_stages)
    clock = ThreadLocalClock()
    return pipeline, LoadBalancer(pipeline, clock, timing="charged")


def test_balancer_fast_sample_completes_within_budget():
    pipeline, balancer = make_balancer()
    ds = StubDataset([0.01])
    outcome = balancer.process(ds.load(0), WorkContext(), timeout_seconds=1.0)
    assert not outcome.timed_out
    assert outcome.sample.applied == pipeline.names
    assert outcome.elapsed_seconds == pytest.approx(0.01)


def test_balancer_slow_sample_times_out_at_transform_boundary():
    pipeline, balancer = make_balancer(n_stages=4)
    ds = StubDataset([0.4])  # 0.1 per stage
    outcome = balancer.process(ds.load(0), WorkContext(), timeout_seconds=0.15)
    assert outcome.timed_out
    # 0.1 after stage0 (<=0.15), 0.2 after stage1 (>0.15) -> resume at 2
    assert outcome.resume_index == 2
    assert outcome.sample.applied == ["Stage0", "Stage1"]


def test_balancer_resume_finishes_pipeline_and_flags_slow():
    pipeline, balancer = make_balancer(n_stages=4)
    ds = StubDataset([0.4])
    ctx = WorkContext()
    outcome = balancer.process(ds.load(0), ctx, timeout_seconds=0.15)
    finished = balancer.resume(outcome.sample, outcome.resume_index, WorkContext())
    assert finished.applied == pipeline.names
    assert finished.flagged_slow
    assert finished.preprocess_seconds == pytest.approx(0.4)


def test_balancer_timeout_on_final_transform_routes_slow_complete():
    pipeline, balancer = make_balancer(n_stages=2)
    ds = StubDataset([0.2])  # 0.1 per stage
    outcome = balancer.process(ds.load(0), WorkContext(), timeout_seconds=0.15)
    assert outcome.timed_out
    assert outcome.resume_index == 2  # == len(pipeline): nothing left to run
    finished = balancer.resume(outcome.sample, outcome.resume_index, WorkContext())
    assert finished.applied == pipeline.names
    assert finished.flagged_slow


def test_balancer_infinite_timeout_never_times_out():
    _pipeline, balancer = make_balancer()
    ds = StubDataset([100.0])
    outcome = balancer.process(ds.load(0), WorkContext(), timeout_seconds=math.inf)
    assert not outcome.timed_out


def test_balancer_rejects_unknown_timing():
    pipeline = stub_pipeline(2)
    with pytest.raises(ValueError):
        LoadBalancer(pipeline, ThreadLocalClock(), timing="nope")


# ---------------------------------------------------------------------------
# Batch
# ---------------------------------------------------------------------------


def test_batch_properties():
    ds = StubDataset([0.01, 0.01, 0.01], raw_nbytes=100)
    samples = [ds.load(i) for i in range(3)]
    samples[1].flagged_slow = True
    for s in samples:
        s.nbytes = 100
    batch = Batch(samples=samples, gpu_index=1, sequence=7)
    assert batch.size == 3
    assert batch.indices == [0, 1, 2]
    assert batch.slow_count == 1
    assert batch.slow_fraction == pytest.approx(1 / 3)
    assert batch.nbytes == 300
    assert len(batch) == 3


def test_batch_stack_homogeneous():
    ds = StubDataset([0.01, 0.01], payload=np.ones(5, dtype=np.float32))
    batch = Batch(samples=[ds.load(0), ds.load(1)])
    stacked = batch.stack()
    assert stacked.shape == (2, 5)


def test_batch_stack_heterogeneous_returns_none():
    a = Sample(spec=StubDataset([0.01]).spec(0), data=np.ones(3))
    b = Sample(spec=StubDataset([0.01]).spec(0), data=np.ones(4))
    assert Batch(samples=[a, b]).stack() is None
