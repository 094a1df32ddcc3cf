"""Threaded stages wake up only to do work.

Two rules, and what they promise:

* **Park, then poll once on the grid.**  A Minato batch builder or slow-task
  worker that finds nothing parks on a `Doorbell`; the put that gives it
  work rings it, `_halt()` closes it.  Woken at `t` on a shared timeline, a
  stage sleeps once, to `first_tick(last_poll, poll_interval, t)` -- the
  instant its 10 ms poll loop would have found the work -- and polls.  The
  Torch collator waits the same way, with no grid.
* **A run of transforms is one clock sleep.**  Under charged timing nothing
  reads the clock between stages, so a sample's storage read and
  transforms reach the clock as one `advance`.

No wake-up may be lost (every loader runs to completion in every cell of
the matrix below, under a watchdog), parked stages must not slow down
`shutdown()` or hide a failure, and the counting clock pins the numbers.
"""

import sys
import threading
import time

import pytest

from repro.baselines import TorchLoaderConfig, TorchStyleLoader
from repro.clock import RealClock, ScaledClock, ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.core.balancer import LoadBalancer
from repro.core.queues import Doorbell, WorkQueue
from repro.data import StorageModel, StorageSpec
from repro.errors import LoaderStateError
from repro.policy import first_tick
from repro.transforms.base import Pipeline, WorkContext

from .helpers import (
    StubDataset,
    StubTransform,
    counting,
    live_loader_threads,
    run_with_watchdog,
    stub_pipeline,
)

CELL_SECONDS = 10.0  # bound on every run, wall seconds
N = 24
#: every third sample is slow: 0.2 s against a 0.05 s budget (a 0.002 s
#: wall sleep on the scaled clock), the others 0.01 s
COSTS = [0.2 if i % 3 == 0 else 0.01 for i in range(N)]

CLOCKS = {"logical": ThreadLocalClock, "scaled": lambda: ScaledClock(0.01)}


def _indices(batches):
    return sorted(i for batch in batches for i in batch.indices)


def _drain(loader):
    try:
        return run_with_watchdog(lambda: list(loader.batches(0)), CELL_SECONDS)
    finally:
        loader.shutdown(timeout=CELL_SECONDS)


# ---------------------------------------------------------------------------
# No lost wake-up: every threaded loader runs to completion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [1, 4])
@pytest.mark.parametrize("slow_workers", [1, 4])
@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("order", ["reorder", "strict"])
@pytest.mark.parametrize("kind", ["minato"])
def test_minato_stages_finish_the_stream(kind, order, clock, slow_workers, capacity):
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=slow_workers, batch_builders=2,
        queue_capacity=capacity, reorder=order == "reorder", timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(
        StubDataset(COSTS), stub_pipeline(3), config, clock=CLOCKS[clock]()
    )
    batches = _drain(loader)
    assert _indices(batches) == list(range(N))
    stats = loader.stats()
    assert stats.samples_timed_out == N // 3
    assert stats.samples_preprocessed == N


@pytest.mark.parametrize("capacity", [1, 4])
@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("kind", ["torch"])
def test_baseline_stages_finish_the_stream(kind, clock, capacity):
    config = TorchLoaderConfig(
        batch_size=4, num_workers=3, prefetch_factor=capacity,
        queue_capacity=capacity, pin_memory_bandwidth=None,
    )
    loader = TorchStyleLoader(
        StubDataset(COSTS), stub_pipeline(3), config, epochs=2, clock=CLOCKS[clock]()
    )
    batches = _drain(loader)
    assert _indices(batches) == sorted(2 * list(range(N)))


def test_no_ring_is_lost_under_thread_switch_stress():
    """More producers and parked consumers than cores, a thread switch every
    10 us: a ring that lands between a consumer's re-check and its wait
    must still wake it, or the watchdog fires with items left in the queue."""
    n, producers, consumers = 4000, 4, 4
    doorbell = Doorbell()
    queue = WorkQueue(n, doorbell=doorbell)
    got, got_lock = [], threading.Lock()

    def produce(first):
        for i in range(first, n, producers):
            queue.put(i)

    def consume():
        while True:
            item = queue.try_get()
            if item is not None:
                with got_lock:
                    got.append(item)
                    if len(got) == n:
                        doorbell.close()  # releases the others
            elif not doorbell.wait(lambda: len(queue) > 0):
                return

    def run():
        threads = [threading.Thread(target=consume, daemon=True) for _ in range(consumers)]
        threads += [
            threading.Thread(target=produce, args=(k,), daemon=True) for k in range(producers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(CELL_SECONDS)
        return [thread for thread in threads if thread.is_alive()]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run_with_watchdog(run, 2 * CELL_SECONDS) == []
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == list(range(n))


def test_the_waiter_re_checks_after_registering():
    """Both halves of the no-lost-wake-up argument, made to happen: work that
    landed (and rang, to nobody) before the waiter registered is found by
    its re-check; a ring that lands after the re-check moves the ring count
    the waiter then waits on."""
    doorbell = Doorbell()
    queue = WorkQueue(2, doorbell=doorbell)
    queue.put("early")  # rings with nobody parked: a no-op
    assert run_with_watchdog(lambda: doorbell.wait(lambda: len(queue) > 0), CELL_SECONDS)

    def empty_then_ring():
        queue.put("late")  # between the re-check and the wait
        return False

    queue.try_get()
    assert run_with_watchdog(lambda: doorbell.wait(empty_then_ring), CELL_SECONDS)
    doorbell.close()
    assert doorbell.wait(lambda: True) is False


def test_a_ring_with_nobody_parked_takes_no_lock():
    doorbell = Doorbell()
    doorbell._lock = None  # any use of the lock would raise
    doorbell.ring()
    assert doorbell._rings == 0


# ---------------------------------------------------------------------------
# Parked stages and shutdown / failure
# ---------------------------------------------------------------------------


def _parked(loader, builders, slow_workers):
    """Wait until every builder and slow-task worker is parked."""
    deadline = time.monotonic() + CELL_SECONDS
    while time.monotonic() < deadline:
        if (loader._builder_bell._parked == builders
                and loader._slow_bell._parked == slow_workers):
            return True
        time.sleep(0.002)
    return False


@pytest.mark.parametrize("clock", [ThreadLocalClock, RealClock])
def test_shutdown_is_prompt_while_every_idle_stage_is_parked(clock):
    """The loading worker retires at once, so nothing ever arrives: both
    builders and all four slow-task workers park, and nothing else runs.
    `shutdown()` must bring them home at once, not after a poll."""
    config = MinatoConfig(
        batch_size=4, num_workers=1, slow_workers=4, num_gpus=2,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset([0.01] * 16), stub_pipeline(2), config, clock=clock())
    loader._pool.should_retire = lambda: True
    before = set(threading.enumerate())
    loader.start()
    assert _parked(loader, builders=2, slow_workers=4)
    began = time.monotonic()
    loader.shutdown(timeout=CELL_SECONDS)
    assert time.monotonic() - began < 0.5
    assert live_loader_threads(ignore=before) == []


class _RaiseOnceParked(StubTransform):
    """Stub stage that raises once every builder of ``loader`` is parked."""

    loader = None

    def _operate(self, sample, ctx):
        assert _parked(self.loader, builders=2, slow_workers=1)
        raise RuntimeError("transform exploded while the builders slept")


def test_a_failure_while_the_builders_are_parked_reaches_the_consumer():
    bad = _RaiseOnceParked(label="Bad")
    config = MinatoConfig(
        batch_size=4, num_workers=1, slow_workers=1, batch_builders=2,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset([0.01] * 8), Pipeline([bad]), config, clock=RealClock())
    bad.loader = loader
    try:
        with pytest.raises(LoaderStateError, match="while the builders slept"):
            run_with_watchdog(lambda: loader.next_batch(0), CELL_SECONDS)
    finally:
        loader.shutdown(timeout=CELL_SECONDS)


# ---------------------------------------------------------------------------
# What the counting clock sees
# ---------------------------------------------------------------------------


def test_a_slow_task_worker_with_nothing_to_finish_never_sleeps():
    """No sample times out: the slow-task workers park at their first empty
    poll and leave on their own when the last sample is counted, without
    one sleep.  (A 10 ms poll loop slept about 100 times per virtual second
    each.)"""
    clock = counting(ScaledClock)(0.01)
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=4, timeout_override=100.0,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset([0.05] * N), stub_pipeline(3), config, clock=clock)
    before = set(threading.enumerate())
    try:
        batches = run_with_watchdog(lambda: list(loader.batches(0)), CELL_SECONDS)
        deadline = time.monotonic() + CELL_SECONDS
        while time.monotonic() < deadline and any(
            name.startswith("minato-slow") for name in live_loader_threads(before)
        ):
            time.sleep(0.002)
        assert not any(
            name.startswith("minato-slow") for name in live_loader_threads(before)
        )
    finally:
        loader.shutdown(timeout=CELL_SECONDS)
    assert _indices(batches) == list(range(N))
    assert loader.stats().samples_timed_out == 0
    assert clock.calls("sleep", "minato-slow") == []


def test_a_woken_builder_polls_on_its_grid():
    """Every sleep of a builder is the one after a park, and it ends on the
    first tick of the grid its empty poll anchored: the two clock readings
    just before it are that poll (`last_poll`) and the wake-up (`t`)."""
    clock = counting(ScaledClock)(0.01)
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=1, timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(StubDataset(COSTS), stub_pipeline(3), config, clock=clock)
    assert _indices(_drain(loader)) == list(range(N))
    checked = 0
    for name, entries in clock.log.items():
        if not name.startswith("minato-builder"):
            continue
        for k, (kind, seconds) in enumerate(entries):
            if kind != "sleep":
                continue
            (first, last_poll), (second, t) = entries[k - 2], entries[k - 1]
            assert first == second == "now"
            assert seconds == first_tick(last_poll, config.poll_interval, t)[0] - t
            assert seconds >= 0
            checked += 1
    assert checked > 0


def _speech_like(timing="charged", clock_cls=ThreadLocalClock):
    """Three-stage samples, every third one over budget after its first
    stage, each read from storage first."""
    clock = counting(clock_cls)()
    config = MinatoConfig(
        batch_size=4, num_workers=2, slow_workers=2, timeout_override=0.05,
        adaptive_workers=False, timing=timing,
    )
    storage = StorageModel(StorageSpec(name="disk", bandwidth=1e6, latency=1e-3))
    loader = MinatoLoader(
        StubDataset(COSTS), stub_pipeline(3), config, clock=clock, storage=storage
    )
    batches = _drain(loader)
    assert _indices(batches) == list(range(N))
    return loader, clock, batches


def test_a_run_of_transforms_is_one_advance():
    """Storage read plus transforms: one advance per sample on the loading
    workers, and one per resumed remainder on the slow-task workers."""
    loader, clock, _ = _speech_like()
    stats = loader.stats()
    assert stats.samples_timed_out == N // 3
    assert len(clock.calls("advance", "minato-worker")) == N
    assert len(clock.calls("advance", "minato-slow")) == stats.samples_timed_out
    assert clock.calls("sleep") == []  # a logical clock never sleeps


def test_the_advances_add_up_to_the_charged_seconds():
    """`busy_seconds` counts every charge of every run, the storage reads'
    (`io_seconds`) included, and all of it reaches the clock."""
    loader, clock, _ = _speech_like()
    stats = loader.stats()
    assert stats.io_seconds > 0
    assert sum(clock.calls("advance")) == pytest.approx(stats.busy_seconds, rel=1e-12)


def test_wall_timing_flags_what_charged_timing_flags():
    """Wall timing reads the clock after every stage, so the run settles its
    storage read before the first reading and each stage's charge after it:
    the same samples go slow as under charged timing."""
    flags = {}
    for timing in ("charged", "wall"):
        _, clock, batches = _speech_like(timing)
        flags[timing] = sorted(
            (s.spec.index, s.flagged_slow) for b in batches for s in b.samples
        )
        if timing == "wall":
            # one advance per stage, plus the storage read's
            assert len(clock.calls("advance", "minato-worker")) > N
    assert flags["wall"] == flags["charged"]
    assert sum(slow for _i, slow in flags["charged"]) == N // 3


def test_standalone_transforms_still_advance_per_charge():
    """Outside a loader nobody settles a run, so every charge reaches the
    clock when it is made, as it always did; a run held open and settled
    reaches it as one advance of the same total."""
    pipeline = stub_pipeline(3)
    dataset = StubDataset([0.3])
    for call in (
        lambda ctx: pipeline.apply_all(dataset.load(0), ctx),
        lambda ctx: LoadBalancer(pipeline, ctx.clock).process(dataset.load(0), ctx, 1.0),
        lambda ctx: LoadBalancer(pipeline, ctx.clock).resume(dataset.load(0), 0, ctx),
    ):
        clock = counting(ThreadLocalClock)()
        ctx = WorkContext(clock=clock)
        call(ctx)
        assert clock.calls("advance") == pytest.approx([0.1, 0.1, 0.1])
        assert clock.now() == pytest.approx(0.3)

    clock = counting(ThreadLocalClock)()
    ctx = WorkContext(clock=clock)
    ctx.open_run()
    pipeline.apply_all(dataset.load(0), ctx)
    assert clock.calls("advance") == []
    ctx.settle()
    assert clock.calls("advance") == pytest.approx([0.3])
    assert ctx.charged_seconds == pytest.approx(0.3)
