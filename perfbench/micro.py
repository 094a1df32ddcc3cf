"""Micro-benches: direct timing loops over each layer's public functions.

Every row runs a fixed operation count and reports ``(operations, seconds)``;
the rate ``operations / seconds`` is the metric.  No row takes more than about
a second.  These isolate one layer's cost per operation from how often a
workload calls it: a layer change should move its row here *and* the layer's
``self_s`` in a traced workload.  ``python -m perfbench micro`` prints them.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core import TimeoutProfiler, WorkQueue
from repro.data import PageCache
from repro.policy import BatchConstructionPolicy
from repro.sim import (
    BandwidthPipe,
    Environment,
    PriorityStore,
    Resource,
    RingFabric,
    SharedLink,
    Store,
)

__all__ = ["MICRO", "run_micro"]


def _run(env: Environment) -> float:
    start = time.perf_counter()
    env.run()
    return time.perf_counter() - start


def kernel_noop(n: int) -> Tuple[int, float]:
    """One process yielding ``n`` timeouts: the bare event loop."""
    env = Environment()

    def ticker():
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(ticker())
    seconds = _run(env)
    return env.events_processed, seconds


def _store_putget(store_cls, n: int) -> Tuple[int, float]:
    env = Environment()
    store = store_cls(env, capacity=16)

    def producer():
        for i in range(n):
            yield store.put((i % 7, i))

    def consumer():
        for _ in range(n):
            yield store.get()

    env.process(producer())
    env.process(consumer())
    return n, _run(env)


def stores_putget(n: int) -> Tuple[int, float]:
    """Producer/consumer pairs through a bounded FIFO ``Store``."""
    return _store_putget(Store, n)


def stores_prio_putget(n: int) -> Tuple[int, float]:
    """The same through a heap-ordered ``PriorityStore``."""
    return _store_putget(PriorityStore, n)


def resources_reqrel(n: int) -> Tuple[int, float]:
    """Four processes contending for a two-slot ``Resource``."""
    env = Environment()
    resource = Resource(env, capacity=2)

    def user(count):
        for _ in range(count):
            with resource.request() as request:
                yield request
                yield env.timeout(1.0)

    for _ in range(4):
        env.process(user(n // 4))
    return 4 * (n // 4), _run(env)


def resources_pipe(n: int) -> Tuple[int, float]:
    """Four readers queueing on one FIFO ``BandwidthPipe``."""
    env = Environment()
    pipe = BandwidthPipe(env, bandwidth=1e9, latency=1e-4, record=False)

    def reader(count):
        for _ in range(count):
            yield pipe.transfer(1e6)

    for _ in range(4):
        env.process(reader(n // 4))
    return 4 * (n // 4), _run(env)


def _link_transfers(streams: int, n: int) -> Tuple[int, float]:
    env = Environment()
    link = SharedLink(env, bandwidth=1e9, latency=1e-4)

    def sender(tag, count):
        stream = link.stream(tag)
        # unequal sizes keep arrivals and departures interleaved, so every
        # one of them re-projects the other streams' transfers
        nbytes = 1e6 * (1.0 + tag / streams)
        for _ in range(count):
            yield stream.transfer(nbytes)

    for tag in range(streams):
        env.process(sender(tag, n // streams))
    return streams * (n // streams), _run(env)


def links_transfers_1(n: int) -> Tuple[int, float]:
    """One stream on a ``SharedLink``: no re-projection."""
    return _link_transfers(1, n)


def links_transfers_8(n: int) -> Tuple[int, float]:
    """Eight streams sharing it max-min fair: the re-projection cost."""
    return _link_transfers(8, n)


def fabric_ring_stages(n: int) -> Tuple[int, float]:
    """Per-rank ring all-reduces on an 8-rank flat ring (no collapse)."""
    world = 8
    env = Environment()
    fabric = RingFabric(env, latency=1e-5, bandwidth=25e9, gradient_bytes=4e6)
    fabric.set_ring(range(world))
    stages_per_collective = 2 * (world - 1) * world
    collectives = max(1, n // stages_per_collective)

    def rank(member):
        for step in range(collectives):
            yield from fabric.allreduce(step, member)

    for member in range(world):
        env.process(rank(member))
    return collectives * stages_per_collective, _run(env)


def cache_access(n: int) -> Tuple[int, float]:
    """``PageCache.access`` over a working set 1.5x the capacity."""
    cache = PageCache(capacity_bytes=1000 * 2**20)
    keys = np.random.default_rng(0).integers(0, 1500, size=n).tolist()
    start = time.perf_counter()
    for key in keys:
        cache.access(key, 2**20)
    return n, time.perf_counter() - start


def queues_putget(n: int) -> Tuple[int, float]:
    """Uncontended ``WorkQueue.try_put`` + ``try_get`` pairs."""
    queue = WorkQueue(capacity=100)
    start = time.perf_counter()
    for i in range(n):
        queue.try_put(i)
        queue.try_get()
    return n, time.perf_counter() - start


def profiler_record_timeout(n: int) -> Tuple[int, float]:
    """``TimeoutProfiler.record`` + ``timeout``: once per sample in the loader."""
    profiler = TimeoutProfiler(warmup_samples=64)
    durations = np.random.default_rng(0).lognormal(size=n).tolist()
    start = time.perf_counter()
    for seconds in durations:
        profiler.record(seconds)
        profiler.timeout()
    return n, time.perf_counter() - start


def construction_route_next(n: int) -> Tuple[int, float]:
    """``route_ready`` + ``next_ready``: one sample in, one out, every fifth slow."""
    policy = BatchConstructionPolicy()
    fast: deque = deque()
    slow: deque = deque()

    def try_fast():
        return fast.popleft() if fast else None

    def try_slow():
        return slow.popleft() if slow else None

    start = time.perf_counter()
    for seq in range(n):
        policy.route_ready(seq, seq, seq % 5 == 0, fast.append, slow.append)
        policy.next_ready(try_fast, try_slow)
    return n, time.perf_counter() - start


#: metric name -> (function, operation count)
MICRO: Dict[str, Tuple[Callable[[int], Tuple[int, float]], int]] = {
    "sim.kernel.noop_events_per_s": (kernel_noop, 150_000),
    "sim.stores.putget_per_s": (stores_putget, 40_000),
    "sim.stores.prio_putget_per_s": (stores_prio_putget, 40_000),
    "sim.resources.reqrel_per_s": (resources_reqrel, 40_000),
    "sim.resources.pipe_transfers_per_s": (resources_pipe, 60_000),
    "sim.links.transfers_per_s_1": (links_transfers_1, 30_000),
    "sim.links.transfers_per_s_8": (links_transfers_8, 16_000),
    "sim.fabric.ring_stages_per_s": (fabric_ring_stages, 22_400),
    "data.storage.cache_access_per_s": (cache_access, 200_000),
    "core.queues.putget_per_s": (queues_putget, 60_000),
    "core.profiler.record_timeout_per_s": (profiler_record_timeout, 60_000),
    "policy.construction.route_next_per_s": (construction_route_next, 200_000),
}


def run_micro(quick: bool = False) -> Dict[str, dict]:
    """Run every row; ``quick`` cuts the operation counts twenty-fold."""
    rows = {}
    for name, (function, count) in MICRO.items():
        operations, seconds = function(count // 20 if quick else count)
        rows[name] = {
            "value": operations / seconds, "operations": operations, "seconds": seconds,
        }
    return rows
