"""The threaded chassis (`repro.core.loader.BaseConcurrentLoader`).

One chassis carries both threaded loaders, so its promises are tested
once, for both: a fault in any loader thread reaches the consumer as
a `LoaderStateError` chaining the cause, `shutdown()` wakes a blocked
consumer and honours one deadline, a slow consumer behind the tightest
queues still gets the whole stream, and no loader thread outlives
`shutdown()`.  Every cell runs under `helpers.run_with_watchdog`: a hang is
a failure, not a stalled suite.

Also here, because the chassis' per-sample path promises them: a loader that
runs ahead of its consumer wakes its parked workers per burst, not per
sample; `shutdown()` does not sit out the scheduler's interval; and the
augmentation rng is built only for samples whose transforms draw from it.
"""

import functools
import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.baselines
import repro.core.loader
import repro.policy
from repro.baselines import TorchLoaderConfig, TorchStyleLoader
from repro.clock import RealClock, ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.errors import LoaderStateError
from repro.transforms.base import Pipeline, WorkContext

from .helpers import (
    StubDataset,
    StubTransform,
    live_loader_threads,
    run_with_watchdog,
    stub_pipeline,
)

CELL_SECONDS = 2.0  # bound on every cell's consumption, wall seconds
LOADERS = ("minato", "torch")


def test_one_chassis_for_every_threaded_loader():
    chassis = repro.core.loader.BaseConcurrentLoader
    assert repro.baselines.BaseConcurrentLoader is chassis
    for loader in (MinatoLoader, TorchStyleLoader):
        assert issubclass(loader, chassis)


# ---------------------------------------------------------------------------
# Stage completion and shutdown (regressions)
# ---------------------------------------------------------------------------


def consume_with_last_index_delayed(epochs):
    """Every sample takes the background path; the loading worker that draws
    the very last index of the stream is switched out for 0.2 s right after,
    while the other one finds the stream exhausted and leaves."""
    n = 8
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=1, timeout_override=0.1,
        adaptive_workers=False,
    )
    loader = MinatoLoader(
        StubDataset([1.0] * n), stub_pipeline(3), config, epochs=epochs,
        clock=ThreadLocalClock(),
    )
    next_index = loader._next_index
    drawn = itertools.count(1)

    def next_index_then_switch():
        item = next_index()
        if item is not None and next(drawn) == epochs * n:
            time.sleep(0.2)
        return item

    loader._next_index = next_index_then_switch
    try:
        batches = run_with_watchdog(lambda: list(loader.batches(0)), 5.0)
    finally:
        loader.shutdown(timeout=1.0)
    assert sorted(i for b in batches for i in b.indices) == sorted(epochs * list(range(n)))
    assert loader.stats().samples_timed_out == epochs * n


def test_slow_worker_outlives_a_sample_still_on_its_way():
    """Regression (hang): with the index stream exhausted and nothing queued
    or counted in flight, a slow-task worker polling while the last sample
    was still with its loading worker left; when that sample timed out
    nobody finished it and `next_batch` blocked forever.  Slow-task workers
    now leave on `samples_preprocessed == total_samples` alone."""
    consume_with_last_index_delayed(epochs=1)


def test_slow_worker_outlives_the_last_sample_of_the_second_epoch():
    """`total_samples` spans every epoch: the end of the first one is not
    the end of the stream, and the last index of the second still is."""
    consume_with_last_index_delayed(epochs=2)


@pytest.mark.parametrize("clock", [ThreadLocalClock, RealClock])
def test_started_threads_are_the_four_stages(clock):
    """Loading workers, slow-task workers, per-GPU builders and -- on a
    shared timeline -- the scheduler: nothing else runs, no feeder."""
    config = MinatoConfig(
        batch_size=2, num_workers=3, slow_workers=2, num_gpus=2, batch_builders=2
    )
    dataset = _GatedDataset([0.01] * 16)  # loads block: every stage stays up
    loader = MinatoLoader(dataset, stub_pipeline(2), config, clock=clock())
    before = set(threading.enumerate())
    loader.start()
    try:
        assert dataset.entered.wait(CELL_SECONDS)
        names = live_loader_threads(ignore=before)
    finally:
        loader.shutdown(timeout=0.1)
        dataset.gate.set()
    expected = (
        [f"minato-worker-{w}" for w in range(config.total_initial_workers)]
        + [f"minato-slow-{i}" for i in range(2)]
        + [f"minato-builder-{g}-{b}" for g in range(2) for b in range(2)]
        + (["minato-scheduler"] if clock is RealClock else [])
    )
    assert names == sorted(expected)


def test_stage_completion_survives_thread_switch_stress():
    """More workers than cores, a thread switch every 10 us, every other
    sample finished in the background: each sample still arrives exactly
    once and every stage ends (a slow-task worker that left early, or a
    thread list corrupted by the pool spawning, would hang or lose one)."""
    n = 400
    config = MinatoConfig(
        batch_size=8, num_workers=4 * (os.cpu_count() or 1), slow_workers=4,
        timeout_override=0.1, adaptive_workers=False, queue_capacity=4,
    )
    loader = MinatoLoader(
        StubDataset([1.0 if i % 2 else 0.01 for i in range(n)]), stub_pipeline(3),
        config, clock=ThreadLocalClock(),
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batches = run_with_watchdog(lambda: list(loader), 30.0)
    finally:
        sys.setswitchinterval(interval)
        loader.shutdown(timeout=1.0)
    assert sorted(i for b in batches for i in b.indices) == list(range(n))
    stats = loader.stats()
    assert stats.samples_preprocessed == n
    assert stats.samples_timed_out == n // 2


class _Flagging(StubTransform):
    """Stub stage that reports when a thread enters it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()

    def _operate(self, sample, ctx):
        self.entered.set()
        return sample.data


def test_shutdown_honours_one_deadline():
    """Regression: the pool's threads and the other stages each got a fresh
    `timeout`, so `shutdown(timeout)` could block for twice that.  Here a
    loading worker and a slow-task worker both sit in a long wall-clock
    charge when shutdown is called."""
    second_stage = _Flagging(label="Second", fraction=0.5)
    pipeline = Pipeline([StubTransform(label="First", fraction=0.5), second_stage])
    config = MinatoConfig(
        batch_size=2, num_workers=1, slow_workers=1, timeout_override=0.01,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset([1.2] * 4), pipeline, config, clock=RealClock())
    loader.start()
    # the slow worker just began 0.6 s on sample 0; the loading worker is
    # part-way through 0.6 s on sample 1
    assert second_stage.entered.wait(5.0)
    began = time.monotonic()
    loader.shutdown(timeout=0.2)
    assert time.monotonic() - began < 0.35


def test_shutdown_does_not_wait_out_the_scheduler_interval():
    """Regression: the scheduler slept `clock.sleep(scheduler_interval)`, so on
    a wall clock `shutdown()` joined for up to a full second.  It now waits
    on the stop event through `Clock.wait`."""
    config = MinatoConfig(batch_size=4, num_workers=2, slow_workers=1, adaptive_workers=True)
    loader = MinatoLoader(StubDataset([0.0] * 64), stub_pipeline(2), config, clock=RealClock())
    before = set(threading.enumerate())
    loader.start()
    assert "minato-scheduler" in live_loader_threads(ignore=before)
    began = time.monotonic()
    loader.shutdown(timeout=CELL_SECONDS)
    assert time.monotonic() - began < 0.2
    assert live_loader_threads(ignore=before) == []


def test_parked_workers_wake_per_burst_not_per_sample():
    """The wake-up budget.  A loader ahead of its consumer keeps its fast
    queue full, and a queue that released a parked producer on every `get`
    woke one worker per sample to produce one sample (1.2 context switches
    and 8-20 us of system time each).  Released at the low-water mark, four
    workers wake once per half queue: about 0.08 wake-ups per sample."""
    n = 2000
    config = MinatoConfig(
        batch_size=8, num_workers=4, slow_workers=1, queue_capacity=100,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset([0.0] * n), stub_pipeline(3), config, clock=ThreadLocalClock())
    not_full = loader._fast_queue._not_full
    wait, wakeups = not_full.wait, itertools.count()

    def counted_wait():
        wait()
        next(wakeups)

    not_full.wait = counted_wait

    def consume():
        delivered = 0
        for batch in loader.batches(0):
            delivered += len(batch)
            time.sleep(0.002)  # 4000 samples/s asked for: the loader runs ahead
        return delivered

    try:
        assert run_with_watchdog(consume, 30.0) == n
    finally:
        loader.shutdown(timeout=CELL_SECONDS)
    assert 0 < next(wakeups) <= n / 5


# ---------------------------------------------------------------------------
# The augmentation rng: same stream as ever, built only when drawn from
# ---------------------------------------------------------------------------


class _Drawing(StubTransform):
    """Stub stage whose output is four draws from the context's rng."""

    def _operate(self, sample, ctx):
        return ctx.rng.random(4)


def sample_seed(spec, epoch):
    return (spec.seed + 7_919 * epoch) & 0x7FFFFFFF


@pytest.fixture
def generator_seeds(monkeypatch):
    """The seed of every `np.random.default_rng` call made from here on."""
    seeds = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seeds


@pytest.mark.parametrize("path", ["inline", "resumed"])
def test_lazy_rng_draws_what_the_eager_one_drew(path, generator_seeds):
    """Bit for bit, on the loading worker's context and on the one a
    slow-task worker resumes with, fresh each epoch -- and one Generator per
    (sample, epoch) that draws."""
    n, epochs = 12, 2
    dataset = StubDataset([1.0] * n, seed=5)  # spec seeds far from the sampler's
    pipeline = Pipeline(
        [StubTransform(label="First", fraction=0.5), _Drawing(label="Draw", fraction=0.5)]
    )
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=1, adaptive_workers=False,
        # 0.5 charged after First: over the timeout, Draw runs in the background
        timeout_override=0.1 if path == "resumed" else 100.0,
    )
    loader = MinatoLoader(dataset, pipeline, config, epochs=epochs, clock=ThreadLocalClock())
    try:
        batches = run_with_watchdog(lambda: list(loader.batches(0)), CELL_SECONDS)
    finally:
        loader.shutdown(timeout=CELL_SECONDS)
    assert loader.stats().samples_timed_out == (epochs * n if path == "resumed" else 0)
    drawn = sorted((s.spec.index, s.data.tobytes()) for b in batches for s in b.samples)
    eager = sorted(
        (i, np.random.default_rng(sample_seed(dataset.spec(i), epoch)).random(4).tobytes())
        for i in range(n) for epoch in range(epochs)
    )
    assert drawn == eager
    wanted = [sample_seed(dataset.spec(i), epoch) for i in range(n) for epoch in range(epochs)]
    # each once by a context, once more by the line above
    assert sorted(seed for seed in generator_seeds if seed in wanted) == sorted(2 * wanted)


@pytest.mark.parametrize("kind", LOADERS)
def test_pipeline_that_never_draws_builds_no_generator(kind, generator_seeds):
    dataset = StubDataset([0.01] * N_SAMPLES, seed=5)
    loader = build(kind, dataset, stub_pipeline(2))
    try:
        delivered = run_with_watchdog(
            lambda: sum(len(batch) for batch in loader.batches(0)), CELL_SECONDS
        )
    finally:
        loader.shutdown(timeout=CELL_SECONDS)
    assert delivered == N_SAMPLES
    per_sample = {sample_seed(dataset.spec(i), 0) for i in range(N_SAMPLES)}
    assert not per_sample & set(generator_seeds)


def test_explicit_rng_still_wins_over_the_seed():
    rng = np.random.default_rng(42)
    assert WorkContext(rng=rng, seed=7).rng is rng
    ctx = WorkContext(seed=7)
    assert ctx.rng is ctx.rng
    assert ctx.rng.random() == np.random.default_rng(7).random() != WorkContext().rng.random()


# ---------------------------------------------------------------------------
# Fault-injection matrix: 2 loaders x 8 situations
# ---------------------------------------------------------------------------

N_SAMPLES = 16


class _Exploding(StubTransform):
    """Stub stage that raises an ``error``, remembering the thread it raised on."""

    def __init__(self, error, **kwargs):
        super().__init__(**kwargs)
        self.error = error
        self.raised_on = []

    def _operate(self, sample, ctx):
        self.raised_on.append(threading.current_thread().name)
        raise self.error("transform exploded")


class _UnreadableDataset(StubDataset):
    def _materialize(self, spec):
        raise RuntimeError("disk on fire")


class _GatedDataset(StubDataset):
    """Loads block until the test opens the gate."""

    def __init__(self, costs):
        super().__init__(costs)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def _materialize(self, spec):
        self.entered.set()
        self.gate.wait(10.0)
        return super()._materialize(spec)


def build(kind, dataset, pipeline, background=False, tight=False):
    """One of the two loaders.  ``background`` sends every sample down the
    resume path (timeout below every sample); ``tight`` shrinks every queue
    and prefetch depth to one."""
    clock = ThreadLocalClock()
    capacity = 1 if tight else 100
    if kind == "minato":
        config = MinatoConfig(
            batch_size=4, num_workers=2, slow_workers=1, adaptive_workers=False,
            timeout_override=0.001 if background else 100.0, queue_capacity=capacity,
        )
        return MinatoLoader(dataset, pipeline, config, clock=clock)
    config = TorchLoaderConfig(
        batch_size=4, num_workers=2, pin_memory_bandwidth=None,
        queue_capacity=capacity, prefetch_factor=1 if tight else 2,
    )
    return TorchStyleLoader(dataset, pipeline, config, clock=clock)


def expect_fault(loader, message, cause=RuntimeError):
    """Consume until the injected fault surfaces; it must, as the cause of a
    `LoaderStateError`, and then keep surfacing."""

    def consume():
        while loader.next_batch(0) is not None:
            pass

    with pytest.raises(LoaderStateError, match=message) as caught:
        run_with_watchdog(consume, CELL_SECONDS)
    assert isinstance(caught.value.__cause__, cause)
    assert message in str(caught.value.__cause__)
    with pytest.raises(LoaderStateError, match=message):
        loader.next_batch(0)


def cell_load_raises(kind):
    loader = build(kind, _UnreadableDataset([0.01] * N_SAMPLES), stub_pipeline(2))
    expect_fault(loader, "disk on fire")
    return loader


#: the thread that runs a sample's transforms when nothing defers them
INLINE_THREAD = {"minato": "minato-worker", "torch": "torch-worker"}


def cell_transform_raises(kind, background=False, error=RuntimeError):
    bad = _Exploding(error, label="Bad", fraction=0.5)
    pipeline = Pipeline([StubTransform(label="Good", fraction=0.5), bad])
    loader = build(kind, StubDataset([0.01] * N_SAMPLES), pipeline, background=background)
    expect_fault(loader, "transform exploded", cause=error)
    where = "minato-slow" if background else INLINE_THREAD[kind]
    assert bad.raised_on and all(name.startswith(where) for name in bad.raised_on)
    return loader


def cell_shutdown_unblocks_consumer(kind):
    dataset = _GatedDataset([0.01] * N_SAMPLES)
    loader = build(kind, dataset, stub_pipeline(2))
    got = []
    consumer = threading.Thread(
        target=lambda: got.append(loader.next_batch(0)), daemon=True
    )
    consumer.start()
    assert dataset.entered.wait(CELL_SECONDS)  # started, and nothing can arrive
    began = time.monotonic()
    loader.shutdown(timeout=0.1)  # the loads are still blocked: joins time out
    consumer.join(CELL_SECONDS)
    assert not consumer.is_alive(), "consumer still blocked after shutdown()"
    assert got == [None]
    assert time.monotonic() - began < CELL_SECONDS
    dataset.gate.set()
    return loader


def cell_slow_consumer_gets_everything(kind):
    loader = build(kind, StubDataset([0.01] * N_SAMPLES), stub_pipeline(2), tight=True)

    def consume():
        indices = []
        for batch in loader.batches(0):
            time.sleep(0.005)
            indices.extend(batch.indices)
        return indices

    assert sorted(run_with_watchdog(consume, CELL_SECONDS)) == list(range(N_SAMPLES))
    return loader


def cell_shutdown_releases_parked_producers(kind):
    """Nobody consumes, every queue is one deep: the stream backs up until
    every producing stage (on MinatoLoader: both loading workers, on the full
    fast queue) is parked in a blocking `put`.  Nothing there polls, so only
    `shutdown()` reaching every queue brings them home."""
    loader = build(kind, StubDataset([0.01] * N_SAMPLES), stub_pipeline(2), tight=True)
    loader.start()
    backed_up = [loader._batch_queues[0]]
    if kind == "minato":
        backed_up.append(loader._fast_queue)
    deadline = time.monotonic() + CELL_SECONDS
    while any(len(q) < q.capacity for q in backed_up) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert all(len(q) == q.capacity for q in backed_up)
    time.sleep(0.05)  # whoever still held an item has reached its put
    began = time.monotonic()
    loader.shutdown(timeout=CELL_SECONDS)
    assert time.monotonic() - began < 0.3
    assert not any(thread.is_alive() for thread in loader._threads)
    return loader


CELLS = {
    "load-raises": cell_load_raises,
    "inline-transform-raises": cell_transform_raises,
    "background-transform-raises": functools.partial(cell_transform_raises, background=True),
    # a stray sys.exit() in user code: threading swallows SystemExit, so an
    # unguarded stage dies in silence and the consumer waits forever
    "inline-transform-exits": functools.partial(cell_transform_raises, error=SystemExit),
    "background-transform-exits": functools.partial(
        cell_transform_raises, background=True, error=SystemExit
    ),
    "shutdown-unblocks-consumer": cell_shutdown_unblocks_consumer,
    "shutdown-releases-parked-producers": cell_shutdown_releases_parked_producers,
    "slow-consumer": cell_slow_consumer_gets_everything,
}


#: only MinatoLoader's stages resume samples in the background; the Torch
#: loader has no such path to break
MATRIX = [
    (situation, kind)
    for situation in CELLS
    for kind in LOADERS
    if not situation.startswith("background-") or kind == "minato"
]


@pytest.mark.parametrize("situation,kind", MATRIX)
def test_fault_matrix(situation, kind):
    before = set(threading.enumerate())
    loader = CELLS[situation](kind)
    loader.shutdown(timeout=CELL_SECONDS)
    deadline = time.monotonic() + CELL_SECONDS
    while live_loader_threads(ignore=before) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert live_loader_threads(ignore=before) == []


# ---------------------------------------------------------------------------
# One stats record
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", LOADERS)
def test_every_loader_reports_the_one_stats_record(kind):
    loader = build(kind, StubDataset([0.01] * N_SAMPLES), stub_pipeline(2))
    try:
        delivered = run_with_watchdog(
            lambda: sum(len(batch) for batch in loader.batches(0)), CELL_SECONDS
        )
    finally:
        loader.shutdown(timeout=CELL_SECONDS)
    stats = loader.stats()
    assert type(stats) is repro.policy.LoaderStats is repro.core.LoaderStats
    assert stats.samples_preprocessed == delivered == N_SAMPLES
    stats.samples_preprocessed = 0  # a copy: the loader's record is untouched
    stats.worker_history.append("scribble")
    again = loader.stats()
    assert again.samples_preprocessed == N_SAMPLES
    assert "scribble" not in again.worker_history
