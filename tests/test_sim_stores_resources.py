"""Tests for simulation stores, resources and bandwidth pipes."""

from dataclasses import replace

import pytest

from repro.sim import BandwidthPipe, Environment, PriorityStore, Resource, Store
from repro.sim.links import throughput_series
from repro.sim.loaders import SimContext
from repro.sim.workloads import CONFIG_A, make_workload


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    log = []

    def producer():
        yield store.put("a")
        yield store.put("b")

    def consumer():
        item = yield store.get()
        log.append(item)
        item = yield store.get()
        log.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == ["a", "b"]


def test_store_get_blocks_until_item_available():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(4)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(4.0, "late")]


def test_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", env.now))
        yield store.put(2)
        log.append(("put2", env.now))

    def consumer():
        yield env.timeout(10)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put1", 0.0) in log
    assert ("put2", 10.0) in log


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            out.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_try_get_returns_none_when_empty():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None


def test_store_try_put_respects_capacity():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.try_get() == 1
    assert store.try_put(3)


def test_store_try_put_hands_to_waiting_getter():
    env = Environment()
    store = Store(env, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    env.process(consumer())
    env.run()  # consumer now blocked on empty store
    assert store.try_put("x")
    env.run()
    assert got == ["x"]


def test_store_capacity_zero_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_on_change_sees_size_updates():
    env = Environment()
    store = Store(env)
    sizes = []
    store.on_change = lambda now, size: sizes.append(size)
    store.try_put(1)
    store.try_put(2)
    store.try_get()
    assert sizes[-1] == 1


def test_multiple_consumers_share_items():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    def producer():
        yield env.timeout(1)
        yield store.put("only")

    env.process(consumer("c1"))
    env.process(consumer("c2"))
    env.process(producer())
    env.run(until=10)
    assert got == [("c1", "only")]  # FIFO: first waiter wins


# ---------------------------------------------------------------------------
# PriorityStore
# ---------------------------------------------------------------------------


def test_priority_store_orders_by_key():
    env = Environment()
    store = PriorityStore(env)
    store.try_put((5, "five"))
    store.try_put((1, "one"))
    store.try_put((3, "three"))
    assert store.try_get() == (1, "one")
    assert store.try_get() == (3, "three")
    assert store.try_get() == (5, "five")


def test_priority_store_blocking_get():
    env = Environment()
    store = PriorityStore(env)
    out = []

    def consumer():
        item = yield store.get()
        out.append(item)

    def producer():
        yield env.timeout(1)
        yield store.put((2, "b"))
        yield store.put((1, "a"))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert out == [(2, "b")]  # the get was already pending when (2, b) arrived


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_serializes_users():
    env = Environment()
    gpu = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        with gpu.request() as req:
            yield req
            log.append((tag, "start", env.now))
            yield env.timeout(hold)
        log.append((tag, "end", env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert ("a", "start", 0.0) in log
    assert ("b", "start", 5.0) in log
    assert ("b", "end", 8.0) in log


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    pool = Resource(env, capacity=2)
    ends = []

    def user(hold):
        with pool.request() as req:
            yield req
            yield env.timeout(hold)
        ends.append(env.now)

    for _ in range(2):
        env.process(user(4))
    env.run()
    assert ends == [4.0, 4.0]


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user())
    env.process(user())
    env.process(user())
    env.run(until=0.5)
    assert res.count == 2
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_unqueued_request_is_noop():
    env = Environment()
    res = Resource(env, capacity=1)
    req_a = res.request()
    req_b = res.request()  # queued
    res.release(req_b)  # abandon while still queued
    res.release(req_a)
    assert res.count == 0
    assert not res.queue


def test_resource_double_release_is_tracked_noop():
    """Regression: a second release of the same granted request used to
    fall through the ValueError fallback silently -- masking real
    double-frees.  It is now a no-op *by design*: the slot already handed
    to the next waiter must not be freed again, and the incident is
    counted in ``double_releases``."""
    env = Environment()
    res = Resource(env, capacity=1)
    with res.request() as req_a:
        req_b = res.request()  # queued behind a
        res.release(req_a)  # explicit release: slot passes to b
        assert res.users == [req_b]
        # context-manager __exit__ now releases req_a a second time
    assert res.double_releases == 1
    # b still holds its slot -- the double release freed nothing
    assert res.users == [req_b]
    assert res.count == 1
    res.release(req_b)
    assert res.count == 0
    assert res.double_releases == 1


def test_resource_try_request_takes_a_free_slot_without_an_event():
    env = Environment()
    res = Resource(env, capacity=2)
    seen = []
    res.on_change = lambda now, in_use: seen.append((now, in_use))
    first = res.try_request()
    second = res.try_request()
    assert res.users == [first, second] and seen == [(0.0, 1), (0.0, 2)]
    assert res.try_request() is None  # full: the caller must queue
    assert not env._queue and not env._normal and not env._urgent
    waiter = res.request()
    assert not waiter.triggered
    res.release(first)  # FIFO hand-over, exactly as for a yielded request
    assert res.users == [second, waiter] and waiter.triggered
    with second:
        pass
    assert res.users == [waiter]
    res.release(second)
    assert res.double_releases == 1


def occupancy_runs(claim):
    """Five claimants on two cores, arriving staggered and holding for
    different times; ``claim(ctx, seconds)`` is how each takes its core.
    Returns (grant log, on_change series, kernel events)."""
    env = Environment()
    ctx = SimContext(
        env, make_workload("speech_3s", dataset_size=8),
        replace(CONFIG_A, cpu_cores=2), num_gpus=1,
    )
    series = []
    ctx.cores.on_change = lambda now, in_use: series.append((now, in_use))
    grants = []

    def claimant(tag, arrive, hold):
        yield env.timeout(arrive)
        yield from claim(ctx, hold)
        interval = ctx.cpu_recorder.intervals[-1]
        grants.append((tag, interval.start, interval.end))

    for tag, (arrive, hold) in enumerate(
        [(0.0, 1.0), (0.1, 0.5), (0.2, 0.7), (0.2, 0.1), (1.0, 0.3)]
    ):
        env.process(claimant(tag, arrive, hold))
    env.run()
    return grants, series, env.events_processed


def yielded_request(ctx, seconds):
    """``cpu_busy`` as it was: request, yield it whatever happened, hold."""
    with ctx.cores.request() as req:
        yield req
        start = ctx.env.now
        yield ctx.env.timeout(seconds)
        ctx.cpu_recorder.record(start, ctx.env.now, "preprocess")


def test_occupying_a_core_grants_like_a_yielded_request_for_fewer_events():
    """Under contention the occupy-helper grants in the same order, at the
    same instants, with the same occupancy series as request-and-yield; it
    only skips the event that told a claimant its free slot was free."""
    grants, series, events = occupancy_runs(lambda ctx, s: ctx.cpu_busy(s))
    ref_grants, ref_series, ref_events = occupancy_runs(yielded_request)
    assert grants == ref_grants
    assert series == ref_series
    # claimants 0 and 1 found a free core; 2, 3 and 4 queued
    assert ref_events - events == 2
    assert [(tag, start) for tag, start, _end in sorted(grants)] == [
        (0, 0.0), (1, 0.1), (2, 0.6), (3, 1.0), (4, 1.1),
    ]


def test_occupying_a_free_gpu_takes_no_event_beyond_the_hold():
    env = Environment()
    ctx = SimContext(
        env, make_workload("speech_3s", dataset_size=8), CONFIG_A, num_gpus=1
    )
    env.run(until=env.process(ctx.train_step(0, 2.0)))
    # the process start, the 2 s hold, the process end: no grant event
    assert env.events_processed == 3 and env.now == 2.0
    (interval,) = ctx.gpu_recorders[0].intervals
    assert (interval.start, interval.end, interval.tag) == (0.0, 2.0, "train")
    assert ctx.gpus[0].count == 0


# ---------------------------------------------------------------------------
# BandwidthPipe: a node's disk, one FIFO stream on a private SharedLink
# ---------------------------------------------------------------------------


def test_bandwidth_pipe_single_transfer_time():
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=100.0)
    done = []

    def reader():
        yield disk.transfer(250)
        done.append(env.now)

    env.process(reader())
    env.run()
    assert done == [pytest.approx(2.5)]


def test_bandwidth_pipe_serializes_transfers():
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=100.0)
    done = []

    def reader(tag, nbytes):
        yield disk.transfer(nbytes)
        done.append((tag, env.now))

    env.process(reader("a", 100))
    env.process(reader("b", 100))
    env.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_bandwidth_pipe_latency_added_per_transfer():
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=100.0, latency=0.5)
    done = []

    def reader():
        yield disk.transfer(100)
        done.append(env.now)

    env.process(reader())
    env.run()
    assert done == [pytest.approx(1.5)]


def test_bandwidth_pipe_records_transfers():
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=10.0)

    def reader():
        yield disk.transfer(20)

    env.process(reader())
    env.run()
    assert disk.transfers == [(0.0, pytest.approx(2.0), 20.0)]


def test_bandwidth_pipe_throughput_series_conserves_volume():
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=10.0)

    def reader():
        yield disk.transfer(20)
        yield env.timeout(3)
        yield disk.transfer(10)

    env.process(reader())
    env.run()
    series = throughput_series(disk.transfers, bucket=1.0)
    total = sum(rate for _t, rate in series)  # bucket=1 s, so rate sums bytes
    assert total == pytest.approx(30.0)


def test_bandwidth_pipe_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        BandwidthPipe(env, bandwidth=0)
    disk = BandwidthPipe(env, bandwidth=1)
    with pytest.raises(ValueError):
        disk.transfer(-1)
    with pytest.raises(ValueError):
        throughput_series(disk.transfers, bucket=0)


def test_bandwidth_pipe_backlog():
    """A transfer queued behind 10 s of work waits those 10 s to start."""
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=1.0)
    disk.transfer(10)
    queued = disk.transfer(1)
    env.run()
    assert queued.start - queued.submitted == pytest.approx(10.0)


def test_bandwidth_pipe_latency_only_backlog_stays_zero():
    """Regression: latency is propagation delay, not pipe occupancy.  A
    backlog of latency-only transfers (zero bytes) must leave the pipe
    free: the old model folded latency into available_at, so N queued
    readers serialized N latencies."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e9, latency=0.25)
    for _ in range(8):
        pipe.transfer(0)
    queued = pipe.transfer(1)
    env.run()
    assert queued.start - queued.submitted == 0.0


def test_bandwidth_pipe_queued_readers_overlap_latency():
    """Two queued transfers: the second starts as soon as the first's
    *bytes* drain and completes one latency after its own bytes -- not one
    latency per queued predecessor."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=100.0, latency=0.5)
    done = []

    def reader(tag):
        yield pipe.transfer(100)
        done.append((tag, env.now))

    env.process(reader("a"))
    env.process(reader("b"))
    env.run()
    # a: bytes drain [0,1], +0.5 latency; b: bytes drain [1,2], +0.5
    assert done == [("a", pytest.approx(1.5)), ("b", pytest.approx(2.5))]


def test_bandwidth_pipe_latency_only_readers_complete_together():
    """Zero-byte transfers put nothing on the wire: they complete at
    ``now`` -- no propagation latency, no serialization -- regardless of
    how many are issued concurrently."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e9, latency=0.5)
    done = []

    def reader():
        yield pipe.transfer(0)
        done.append(env.now)

    for _ in range(5):
        env.process(reader())
    env.run()
    assert done == [0.0] * 5


def test_bandwidth_pipe_zero_byte_transfer_is_free_and_unaccounted():
    """Regression: ``transfer(0)`` used to pay full latency, bump
    ``transfer_count``, and append to the transfer log.  A no-delta
    incremental snapshot must complete immediately and leave the pipe's
    queue and all accounting untouched."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=10.0, latency=0.25)
    done = []

    def reader():
        read = pipe.transfer(50)  # occupy the pipe: its bytes drain at 5.0
        pipe.transfer(0)  # queues nothing behind them
        assert [t.drain for t in pipe._chain] == [5.0]
        yield read
        yield pipe.transfer(0)
        done.append(env.now)

    env.process(reader())
    env.run()
    # only the 50-byte read occupied the pipe; the zero-byte transfer
    # completed the instant it was issued (right after the read finished
    # at 5.25), paying no latency and touching no accounting
    assert pipe.transfers == [(0.0, 5.25, 50.0)]
    assert done == [pytest.approx(5.25)]
    assert pipe.total_bytes == 50.0
    assert pipe.transfer_count == 1
    assert len(pipe.transfers) == 1


def test_bandwidth_pipe_throughput_series_matches_quadratic_reference():
    """The linear-sweep rewrite must agree with the per-transfer bucket
    walk it replaced, on an awkward mix of overlapping transfers."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=8.0, latency=0.3)

    def reader(delay, nbytes):
        if delay:
            yield env.timeout(delay)
        yield pipe.transfer(nbytes)

    for delay, nbytes in [(0.0, 20), (0.0, 4), (1.7, 9), (2.0, 0), (6.5, 31)]:
        env.process(reader(delay, nbytes))
    env.run()

    def reference(transfers, bucket):
        horizon = max(finish for _s, finish, _n in transfers)
        volume = [0.0] * (int(horizon / bucket) + 1)
        for start, finish, nbytes in transfers:
            duration = max(finish - start, 1e-12)
            rate = nbytes / duration
            for i in range(int(start / bucket), int(finish / bucket) + 1):
                lo, hi = max(start, i * bucket), min(finish, (i + 1) * bucket)
                if hi > lo:
                    volume[i] += rate * (hi - lo)
        series = []
        for i, v in enumerate(volume):
            width = min(horizon, (i + 1) * bucket) - i * bucket
            series.append((i * bucket, v / width if width > 0 else 0.0))
        return series

    for bucket in (0.25, 1.0, 3.0):
        series = throughput_series(pipe.transfers, bucket=bucket)
        expected = reference(pipe.transfers, bucket)
        assert len(series) == len(expected)
        for (t_got, rate_got), (t_want, rate_want) in zip(series, expected):
            assert t_got == pytest.approx(t_want)
            assert rate_got == pytest.approx(rate_want)
    # volume conservation: rate x actual covered width sums to the bytes
    # transferred (the tail bucket is narrower than the nominal width)
    bucket = 0.25
    horizon = max(finish for _s, finish, _n in pipe.transfers)
    total = sum(
        rate * (min(horizon, t + bucket) - t)
        for t, rate in throughput_series(pipe.transfers, bucket=bucket)
    )
    assert total == pytest.approx(20 + 4 + 9 + 31)


def test_bandwidth_pipe_throughput_series_partial_tail_bucket():
    """Regression: the final bucket's volume was divided by the full
    bucket width even when the run ends mid-bucket, systematically
    underreporting tail throughput.  A transfer draining at a steady
    10 B/s that ends 40% into the last bucket must still report 10 B/s
    there, not 4 B/s."""
    env = Environment()
    disk = BandwidthPipe(env, bandwidth=10.0)

    def reader():
        yield disk.transfer(24)  # drains over [0, 2.4] at 10 B/s

    env.process(reader())
    env.run()
    series = throughput_series(disk.transfers, bucket=1.0)
    assert [t for t, _rate in series] == [0.0, 1.0, 2.0]
    assert [rate for _t, rate in series] == pytest.approx([10.0, 10.0, 10.0])
