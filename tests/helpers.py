"""Shared test fixtures: stub transforms/datasets with controllable costs."""

from __future__ import annotations

import heapq
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Set, TypeVar, Union

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.sample import Sample, SampleSpec
from repro.errors import ConfigurationError
from repro.sim.cluster import Cluster, ClusterMembership, MembershipEvent
from repro.sim.distributed import JobSpec, run_elastic
from repro.sim.fabric import RingFabric
from repro.sim.kernel import NORMAL, AllOf, Environment
from repro.sim.loaders import END, SimBatch, SimContext, SimMinatoLoader
from repro.sim.scenarios import JobMix
from repro.sim.workloads import CONFIG_A, WorkloadSpec, make_workload
from repro.transforms.base import Pipeline, PipelineState, SizeEffect, Transform, WorkContext


class StubTransform(Transform):
    """Transform whose cost is ``spec.attrs['cost'] * fraction`` seconds."""

    size_effect = SizeEffect.NEUTRAL

    def __init__(
        self,
        label: str = "Stub",
        fraction: float = 1.0,
        size_ratio: float = 1.0,
        barrier: bool = False,
    ) -> None:
        self._label = label
        self.fraction = fraction
        self.size_ratio = size_ratio
        self.barrier = barrier
        if size_ratio > 1.02:
            self.size_effect = SizeEffect.INFLATIONARY
        elif size_ratio < 0.98:
            self.size_effect = SizeEffect.DEFLATIONARY

    @property
    def name(self) -> str:
        return self._label

    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        return spec.attr("cost", 0.01) * self.fraction

    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        return state.nbytes * self.size_ratio

    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        return sample.data


class StubDataset(Dataset):
    """Dataset with explicit per-sample preprocessing costs (and raw sizes:
    one for all, or one per sample)."""

    def __init__(
        self,
        costs: Sequence[float],
        raw_nbytes: Union[int, Sequence[int]] = 1024,
        seed: int = 0,
        payload: Optional[np.ndarray] = None,
    ) -> None:
        self._costs = list(costs)
        self._raw_nbytes = raw_nbytes
        self._seed = seed
        self._payload = payload if payload is not None else np.zeros(4, dtype=np.float32)
        sizes = [raw_nbytes] * len(self._costs) if isinstance(raw_nbytes, int) else raw_nbytes
        self._specs: List[SampleSpec] = [
            SampleSpec(
                index=i,
                raw_nbytes=sizes[i],
                seed=seed * 1_000_003 + i,
                modality="stub",
                attrs={"cost": float(c)},
            )
            for i, c in enumerate(self._costs)
        ]

    def __len__(self) -> int:
        return len(self._costs)

    def spec(self, index: int) -> SampleSpec:
        self._check_index(index)
        return self._specs[index]

    def _materialize(self, spec: SampleSpec) -> np.ndarray:
        return self._payload


def stub_pipeline(n_stages: int = 3) -> Pipeline:
    """Pipeline of ``n_stages`` equal-cost stub transforms (fractions sum to 1)."""
    fraction = 1.0 / n_stages
    return Pipeline(
        [StubTransform(label=f"Stage{i}", fraction=fraction) for i in range(n_stages)]
    )


def mixed_cost_dataset(
    n: int, fast_cost: float = 0.01, slow_cost: float = 0.2, slow_period: int = 5
) -> StubDataset:
    """Every ``slow_period``-th sample costs ``slow_cost``; others ``fast_cost``."""
    costs = [slow_cost if i % slow_period == 0 else fast_cost for i in range(n)]
    return StubDataset(costs)


# ---------------------------------------------------------------------------
# Watchdog: a hang fails the test instead of stalling the suite
# ---------------------------------------------------------------------------

T = TypeVar("T")

#: name prefixes of the threads the threaded loaders start
LOADER_THREAD_PREFIXES = ("minato-", "torch-", "dali-")


def live_loader_threads(ignore=()) -> List[str]:
    """Names of the live loader threads that are not in ``ignore``."""
    return sorted(
        t.name
        for t in threading.enumerate()
        if t not in ignore and t.name.startswith(LOADER_THREAD_PREFIXES)
    )


def run_with_watchdog(fn: Callable[[], T], seconds: float) -> T:
    """Run ``fn()`` on a daemon thread and return its result (or re-raise
    what it raised); if it is still running after ``seconds`` of wall time,
    fail the test naming the loader threads that are still alive.  The local
    tier-1 command has no per-test timeout, so this is what keeps a deadlock
    from hanging the whole run."""
    outcome = {}

    def target() -> None:
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # surfaced on the calling thread
            outcome["error"] = exc

    worker = threading.Thread(target=target, name="watchdog-subject", daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    if worker.is_alive():
        pytest.fail(
            f"still running after {seconds} s (deadlock?); "
            f"live loader threads: {live_loader_threads()}"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


# ---------------------------------------------------------------------------
# Counting clock: what each thread asked of the clock
# ---------------------------------------------------------------------------


def counting(clock_cls):
    """``clock_cls`` logging, per thread name, every ``("now", reading)``,
    ``("sleep", seconds)`` and ``("advance", seconds)`` call, in order.
    Idle sleeps and busy advances are told apart the way perfbench's
    counting clock tells them apart: a sleep is logged as a sleep, not also
    as the ``advance`` it is made of."""

    class CountingClock(clock_cls):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.log = defaultdict(list)
            self._sleeping = threading.local()

        def _note(self, kind: str, value: float) -> None:
            # one list per thread: only its own thread appends to it
            self.log[threading.current_thread().name].append((kind, value))

        def now(self) -> float:
            reading = super().now()
            self._note("now", reading)
            return reading

        def advance(self, seconds: float) -> None:
            if not getattr(self._sleeping, "on", False):
                self._note("advance", seconds)
            super().advance(seconds)

        def sleep(self, seconds: float) -> None:
            self._note("sleep", seconds)
            self._sleeping.on = True
            try:
                super().sleep(seconds)
            finally:
                self._sleeping.on = False

        def calls(self, kind: str, thread_prefix: str = "") -> List[float]:
            """The values of every ``kind`` call made on threads whose name
            starts with ``thread_prefix``."""
            return [
                value
                for name, entries in list(self.log.items())
                if name.startswith(thread_prefix)
                for k, value in entries
                if k == kind
            ]

    return CountingClock


# ---------------------------------------------------------------------------
# The kernel's specification, checked at every transition
# ---------------------------------------------------------------------------


class CheckedEnvironment(Environment):
    """An :class:`Environment` refereed by the abstract machine it refines:
    one plain ``(time, priority, eid)`` binary heap.

    Every ``_schedule`` -- by delay or, for ``succeed_at``, at an absolute
    instant -- and every ``_requeue`` is shadowed into that heap, and the
    kernel must agree with it transition by transition: it delivers
    exactly the shadow's next entry; it drops an entry exactly when that
    entry *is* the shadow's next one (its own fire time, never earlier) and
    was superseded by a later ``_requeue`` of its event -- the queue's one
    skip rule; virtual time never runs backwards; and no event object is
    ever pending twice except through ``_requeue``.
    :func:`on_checked_kernel` substitutes it into whole simulated runs.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._shadow: list = []
        #: pending event -> the id of its live shadow entry; keyed by the
        #: event itself, so a recycled ``id()`` cannot alias it
        self._latest: dict = {}

    def _shadow_push(self, when, priority, event, eid=None) -> None:
        assert when >= self._now, f"{event!r} scheduled in the past ({when})"
        eid = self._eid if eid is None else eid
        self._latest[event] = eid
        heapq.heappush(self._shadow, (when, priority, eid, event))

    def _schedule(self, event, priority, delay, at=None) -> None:
        assert event not in self._latest, f"{event!r} is pending twice"
        super()._schedule(event, priority, delay, at)
        # the absolute-time entry (delay=None) is shadowed like a delay
        self._shadow_push(self._now + delay if at is None else at, priority, event)

    def _requeue(self, event, at, eid=None) -> None:
        super()._requeue(event, at, eid)
        if at is None:
            # withdrawn: its entries are superseded and it has no live one
            self._latest[event] = self._eid
        else:
            self._shadow_push(at, NORMAL, event, eid)

    def _take(self):
        when, _priority, eid, event = heapq.heappop(self._shadow)
        if self._latest.get(event) == eid:
            del self._latest[event]
        return when, event

    def _head(self):
        superseded = 0
        while self._shadow:
            _when, _priority, eid, event = self._shadow[0]
            if self._latest.get(event) == eid:
                break
            self._take()
            superseded += 1
        skipped = self.events_skipped
        source = super()._head()
        assert self.events_skipped - skipped == superseded, (
            f"skip out of turn (the specification drops {superseded} "
            f"superseded entries)"
        )
        return source

    def _pop_next(self):
        before = self._now
        event = super()._pop_next()
        if event is None:
            assert not self._shadow, "empty schedule with events still due"
            return None
        when, expected = self._take()
        assert expected is event, f"delivered {event!r}, next is {expected!r}"
        assert before <= when == self._now, "virtual time ran backwards"
        return event


def on_checked_kernel(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with every kernel it builds -- a
    ``Cluster``'s or ``run_simulation``'s -- a :class:`CheckedEnvironment`."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.sim.cluster.Environment", CheckedEnvironment)
        patch.setattr("repro.sim.runner.Environment", CheckedEnvironment)
        return run(*args, **kwargs)


# ---------------------------------------------------------------------------
# The Minato stages' specification: one generator process per stage
# ---------------------------------------------------------------------------


class GeneratorMinatoLoader(SimMinatoLoader):
    """``SimMinatoLoader`` with the stages it had before they became chains
    of callback transitions: a generator process per loading worker,
    slow-task worker and batch builder, driving the process forms of the
    read (``SimContext.read_sample``) and the hold (``SimContext.cpu_busy``),
    and a ready hand-off that always yields its put event.  Everything
    else -- pools, idle sites, policies, the scheduler -- is the loader's
    own.  The referee ``tests/test_event_diet.py`` holds the callback
    stages to."""

    def _start_loading_worker(self) -> None:
        self.ctx.env.process(self._loading_worker())

    def _start_slow_worker(self) -> None:
        self.ctx.env.process(self._slow_worker())

    def _start_builder(self, gpu: int, batch_sizes: List[int]) -> None:
        self.ctx.env.process(self._builder(gpu, batch_sizes))

    def _emit_ready(self, seq, spec, flagged_slow):
        """Route one preprocessed sample through the construction policy:
        onto the ready store, or into the strict-order buffer."""
        item = (spec, flagged_slow)
        key = self.construction.priority_key
        event = self.construction.route_ready(
            seq,
            item,
            flagged_slow,
            put_fast=lambda it: self._ready_store.put((key(False), it)),
            put_slow=lambda it: self._ready_store.put((key(True), it)),
        )
        if event is None:
            self._kick("builder")
        else:
            yield event

    def _loading_worker(self):
        ctx = self.ctx
        try:
            while True:
                if self._halted or self._active_workers > self._loading_target:
                    return
                item = self._next_index()
                if item is None:
                    return
                _epoch, seq, index = item
                spec = ctx.workload.dataset.spec(index)
                yield from ctx.read_sample(spec)
                profile = self.cost_profile(spec)
                if self.size_router is not None:
                    decision = self.size_router.plan(profile, spec.raw_nbytes)
                else:
                    decision = self.routing.plan(profile, self.profiler.timeout())
                yield from ctx.cpu_busy(decision.inline_seconds)
                if decision.handoff_index is not None:
                    ctx.stats.samples_timed_out += 1
                    yield self._temp_store.put(
                        (spec, decision.handoff_index, profile, seq)
                    )
                else:
                    self.profiler.record(
                        decision.total_seconds, flagged_slow=decision.flagged_slow
                    )
                    if decision.flagged_slow:
                        ctx.stats.samples_timed_out += 1
                    ctx.stats.samples_preprocessed += 1
                    yield from self._emit_ready(seq, spec, decision.flagged_slow)
        finally:
            self._active_workers -= 1
            self._kick("slow")

    def _slow_worker(self):
        ctx = self.ctx
        try:
            while True:
                if self._halted or self._active_slow > self._slow_target:
                    return
                item = self._temp_store.try_get()
                if item is None:
                    if self._background_exhausted():
                        return
                    yield self._idle["slow"].park()
                    continue
                spec, resume_at, profile, seq = item
                background = sum(profile[resume_at:])
                yield from ctx.cpu_busy(background, tag="slow")
                ctx.stats.background_busy_seconds += background
                self.profiler.record(sum(profile), flagged_slow=True)
                ctx.stats.samples_preprocessed += 1
                yield from self._emit_ready(seq, spec, True)
        finally:
            self._active_slow -= 1

    def _next_ready(self):
        """Fetch the next ready sample per the construction policy."""
        if self.construction.strict_order:
            while True:
                got = self.construction.next_ready(lambda: None, lambda: None)
                if got is not None:
                    # a release: the next sequence number may be buffered
                    self._kick("builder")
                    return got
                if self._halted:
                    # dead node: this was the builder's last poll
                    yield self.ctx.env.event()
                yield self._idle["builder"].park()
        else:
            _key, item = yield self._ready_store.get()
            return item

    def _builder(self, gpu, batch_sizes):
        ctx = self.ctx
        for take in batch_sizes:
            specs: List[SampleSpec] = []
            slow_flags: List[bool] = []
            nbytes = 0
            for _ in range(take):
                spec, was_slow = yield from self._next_ready()
                specs.append(spec)
                slow_flags.append(bool(was_slow))
                nbytes += self.output_nbytes(spec)
            ctx.stats.batches_built += 1
            yield self.batch_stores[gpu].put(
                SimBatch(
                    specs=specs,
                    nbytes=nbytes,
                    built_at=ctx.env.now,
                    slow_count=sum(slow_flags),
                    gpu=gpu,
                    slow_flags=slow_flags,
                )
            )
        self._builders_done += 1
        yield self.batch_stores[gpu].put(END)


# ---------------------------------------------------------------------------
# The idle wait's specification: Algorithm 1's poll loop, literally
# ---------------------------------------------------------------------------


class _PollingSite:
    """Stands in for ``repro.sim.loaders._IdleSite``: a stage that found
    nothing sleeps one poll interval and looks again, and nobody needs to
    tell it anything.  This is the abstract machine the parked wait refines
    -- every pick-up, retire and exit of the refinement must happen at the
    instant, and by the stage, this loop chooses; only its empty polls may
    go."""

    parked = ()
    watched = ()
    ties = 0

    def __init__(self, env, interval) -> None:
        self.env = env
        self.interval = interval

    def __len__(self) -> int:
        return 0

    def park(self):
        return self.env.timeout(self.interval)

    def kick(self) -> None:
        pass


class PollingMinatoLoader(GeneratorMinatoLoader):
    """``GeneratorMinatoLoader`` with the poll loops it had before its idle
    stages parked (``_slow_worker`` on the temp store, strict-order
    ``_next_ready``): the same loop tops, with ``yield
    env.timeout(self.poll_interval)`` as the idle wait.  (Loading workers
    draw from the sampler and have no idle wait on either.)"""

    def start(self, ctx) -> None:
        super().start(ctx)
        # no stage has run yet: a process starts at its first kernel event
        self._idle = {
            name: _PollingSite(ctx.env, self.poll_interval) for name in self._idle
        }


# ---------------------------------------------------------------------------
# The core hold's specification: one hold per transform, core given back between
# ---------------------------------------------------------------------------


class _PerChunkContext:
    """Stands in for the loader's ``SimContext``: ``cpu_busy`` charges the
    run it was told about transform by transform -- release the core at each
    boundary, queue for it again -- where ``SimMinatoLoader`` now holds it
    for the whole run.  Everything else is the real context's.

    Both sides compute a run's end instant once, the same way: its last
    transform ends at the instant the run's core was granted plus the run's
    total, which is where the fused hold ends.  Summing the transforms'
    instants (``(now + a) + b``) can land one bit off ``now + (a + b)``,
    and two runs that end that close then reach the ready store swapped.
    A transform that had to queue for its core starts a new run."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        #: the per-transform charges of the run about to be charged
        self.run: Sequence[float] = ()

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def cpu_busy(self, seconds: float, tag: str = "preprocess"):
        chunks, self.run = self.run, ()
        assert sum(chunks) == seconds, "charged a run nobody announced"
        env = self._ctx.env
        charged = [i for i, chunk in enumerate(chunks) if chunk > 0]
        began = None
        for i in charged:
            hold = self._ctx.cpu_hold(chunks[i], tag)
            queued = hold.claim()
            try:
                if queued is not None:
                    yield queued
                if began is None or queued is not None:
                    began, rest = env.now, sum(chunks[i:])
                hold.start = env.now
                if i == charged[-1]:
                    yield env.succeed_at(env.event(), began + rest)
                else:
                    yield env.timeout(chunks[i])
            except BaseException:
                hold.resource.release(hold.request)
                raise
            hold.end()


class PerChunkMinatoLoader(GeneratorMinatoLoader):
    """``GeneratorMinatoLoader`` with the core discipline it had before a
    run was one hold: the inline run walks ``decision.inline_chunks`` and the
    background run ``profile[resume_at:]``, one ``cpu_busy`` each.  A plan
    and a temp-store pick-up are each followed by their charge with no
    kernel event in between, so remembering the last one names the run."""

    def start(self, ctx) -> None:
        super().start(ctx)
        # no stage has run yet: a process starts at its first kernel event
        walk = self.ctx = _PerChunkContext(ctx)

        def announcing(plan):
            def planned(*args):
                decision = plan(*args)
                walk.run = decision.inline_chunks
                return decision

            return planned

        self.routing.plan = announcing(self.routing.plan)
        if self.size_router is not None:
            self.size_router.plan = announcing(self.size_router.plan)
        take = self._temp_store.try_get

        def try_get():
            item = take()
            if item is not None:
                _spec, resume_at, profile, _seq = item
                walk.run = profile[resume_at:]
            return item

        self._temp_store.try_get = try_get


# ---------------------------------------------------------------------------
# The ring collective's specification: one generator per member and ring pass
# ---------------------------------------------------------------------------


class _DeliveryRing:
    """One ring pass as it was before it became a state machine: a kernel
    event per (stage, sender) delivery, created by whoever needs it first."""

    def __init__(self, fabric, ring) -> None:
        self.fabric = fabric
        self.ring = list(ring)
        self.deliveries = {}
        self.finished = set()

    def delivery(self, stage, sender):
        """The event 'sender's stage-``stage`` chunk reached its successor';
        a dead sender's resolves through the failure detector instead."""
        event = self.deliveries.get((stage, sender))
        if event is None:
            event = self.deliveries[(stage, sender)] = self.fabric.env.event()
            death = self.fabric.dead.get(sender)
            if death is not None:
                self.fabric._fill_in(event, death, self.fabric._fill_delay[sender])
        return event

    def complete(self) -> bool:
        return all(m in self.finished or m in self.fabric.dead for m in self.ring)


class GeneratorRingFabric(RingFabric):
    """``RingFabric`` with the per-rank path it had before its collectives
    became state machines: ``allreduce`` walks the topology's phases in the
    caller's process, each ring pass a loop of send / wait-for-predecessor
    with one delivery event per chunk; a dead sender's chunks are filled in
    by a detector process each, and a partition-stalled delivery is a
    process too.  A process interrupted mid-pass simply stops, and
    ``abort`` interrupts the member's processes inside an all-reduce
    before arming its fill-ins.  The collapse is not modelled here (it is
    held to the per-rank path by the kernel equivalence grid)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: member -> the processes inside one of its all-reduces
        self._inside = {}

    def allreduce(self, key, member, nbytes=None, deadline=None):
        proc = self.env.active_process
        inside = self._inside.setdefault(member, set())
        inside.add(proc)
        try:
            snapshot = self._snapshot(key)
            nbytes = self.gradient_bytes if nbytes is None else float(nbytes)
            if len(snapshot.ring) > 1 and member in snapshot.members:
                for phase in self.topology.phases(snapshot.ring, member, nbytes):
                    yield from self._ring_pass(key, phase, member)
            self._finish(key, snapshot, member)
        finally:
            inside.discard(proc)

    def abort(self, member) -> None:
        for proc in list(self._inside.get(member, ())):
            proc.interrupt("abort")
        self._remove(member, self.detection_timeout)

    def _ring_pass(self, key, phase, member):
        ckey = (key, phase.tag)
        collective = self._collectives.get(ckey)
        if collective is None:
            collective = self._collectives[ckey] = _DeliveryRing(self, phase.ring)
        ring = collective.ring
        world = len(ring)
        if world <= 1 or member not in ring:
            self._retire(ckey, collective, member)
            return
        position = ring.index(member)
        predecessor = ring[position - 1]
        successor = ring[(position + 1) % world]
        chunk = phase.nbytes / world
        stream = self.topology.stream(
            member, phase.scope, cls="collective", tenant=self,
            sink=self.link_wait_by_class,
        )
        for stage in range(world - 1):
            send_done = stream.transfer(chunk)
            mine = collective.delivery(stage, member)
            recv = collective.delivery(stage, predecessor)
            yield send_done
            if chunk > 0:
                self.link_wait_seconds += send_done.start - send_done.submitted
            if not mine.triggered:
                self._deliver_event(mine, member, successor)
            if not recv.triggered:
                yield recv
        self._retire(ckey, collective, member)

    def _retire(self, ckey, collective, member) -> None:
        collective.finished.add(member)
        if collective.complete():
            self._collectives.pop(ckey, None)

    def _remove(self, member, fill_delay) -> None:
        if member in self.dead:
            return
        death = self.env.now
        self.dead[member] = death
        self._fill_delay[member] = fill_delay
        self._install(m for m in self._ring if m != member)
        for collective in list(self._collectives.values()):
            for (_stage, sender), event in collective.deliveries.items():
                if sender == member and not event.triggered:
                    self._fill_in(event, death, fill_delay)
        self._sweep()

    def _fill_in(self, event, death_time, fill_delay) -> None:
        delay = max(0.0, death_time + fill_delay - self.env.now)

        def detector():
            if delay > 0:
                yield self.env.timeout(delay)
            if not event.triggered:
                event.succeed()

        self.env.process(detector())

    def _deliver_event(self, event, sender, receiver) -> None:
        if self.partitions is None:
            event.succeed()
            return
        release = self.partitions.partition_release(
            self.env.now, self._member_node(sender), self._member_node(receiver)
        )
        if release <= self.env.now:
            event.succeed()
            return
        self.partition_stall_seconds += release - self.env.now
        delay = release - self.env.now

        def stalled():
            yield self.env.timeout(delay)
            if not event.triggered:
                event.succeed()

        self.env.process(stalled())


# ---------------------------------------------------------------------------
# The link engine's specifications: the fluid model in exact arithmetic, and
# the FIFO watermark one stream reduces to
# ---------------------------------------------------------------------------


def fluid_drains(bandwidth, submits):
    """Drain instants, as exact fractions, of ``submits`` -- ``(at, stream,
    nbytes)`` in submission order -- on one link of ``bandwidth``: FIFO
    per stream, and the streams with a transfer draining share the
    bandwidth equally.  A drained transfer holds no share; it completes
    the link's latency later.  Advances from one drain or submit instant
    to the next, so nothing is projected and nothing rounded."""
    bandwidth = Fraction(bandwidth)
    arrivals = [Fraction(at) for at, _stream, _nbytes in submits]
    left = [Fraction(nbytes) for _at, _stream, nbytes in submits]
    drains = [None] * len(submits)
    queues = defaultdict(deque)
    now, k = Fraction(0), 0
    while k < len(submits) or any(queues.values()):
        heads = [queue[0] for queue in queues.values() if queue]
        share = bandwidth / len(heads) if heads else None
        then = min((now + left[i] / share for i in heads), default=None)
        if k < len(submits) and (then is None or arrivals[k] < then):
            then = arrivals[k]
        for i in heads:
            left[i] -= (then - now) * share
        now = then
        for queue in queues.values():
            if queue and left[queue[0]] == 0:
                drains[queue.popleft()] = now
        while k < len(submits) and arrivals[k] == now:
            queues[submits[k][1]].append(k)
            k += 1
    return drains


class WatermarkPipe:
    """The analytic FIFO bandwidth server a one-stream ``SharedLink`` must
    equal bit for bit: a single ``available_at`` watermark.  A transfer
    arriving at ``t`` starts at ``max(t, available_at)``, its bytes occupy
    the pipe for ``nbytes / bandwidth`` seconds and it completes one
    ``latency`` after they drain (queued transfers overlap their
    latencies).  One ``Timeout`` per transfer; ``transfers`` logs
    ``(start, finish, nbytes)`` at submit."""

    def __init__(self, env, bandwidth, latency=0.0):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._available_at = 0.0
        self.transfers = []
        self.total_bytes = 0.0
        self.transfer_count = 0

    def transfer(self, nbytes):
        if nbytes == 0:
            return self.env.timeout(0.0, value=0.0)
        start = max(self.env.now, self._available_at)
        # only the bytes occupy the pipe; latency is propagation delay on
        # top, so queued transfers overlap their latencies
        self._available_at = start + nbytes / self.bandwidth
        finish = start + self.latency + nbytes / self.bandwidth
        self.total_bytes += nbytes
        self.transfer_count += 1
        self.transfers.append((start, finish, float(nbytes)))
        return self.env.timeout(finish - self.env.now, value=nbytes)


# ---------------------------------------------------------------------------
# The round boundary's specification: four passes over the whole schedule
# ---------------------------------------------------------------------------


@dataclass
class LegacyBoundary:
    """What a job's round boundary decided, read the way it was before a
    boundary made one pass (``repro.sim.cluster.read_schedule``): every
    pass enumerates the whole schedule and skips consumed indices."""

    active: List[int]
    removed: List[int]
    consumed: Set[int]
    armed: List[MembershipEvent]
    next_change: Optional[int]


def legacy_boundary(
    events: Sequence[MembershipEvent],
    consumed: Set[int],
    active: Sequence[int],
    round_index: int,
    now: float,
) -> LegacyBoundary:
    active = list(active)
    consumed = set(consumed)
    removed: List[int] = []
    # pass 1: due joins and leaves
    for idx, event in enumerate(events):
        if idx in consumed or event.kind == "fail":
            continue
        due = (event.epoch is not None and event.epoch <= round_index) or (
            event.time is not None and event.time <= now
        )
        if not due:
            continue
        consumed.add(idx)
        if event.kind == "join":
            if event.node in active:
                raise ConfigurationError(
                    f"node {event.node} is already active"
                )
            active.append(event.node)
        elif event.node in active:
            active.remove(event.node)
            removed.append(event.node)
    # pass 2: fails whose anchor passed degrade to removal
    for idx, event in enumerate(events):
        if idx in consumed or event.kind != "fail":
            continue
        stale = (event.time is not None and event.time <= now) or (
            event.epoch is not None and event.epoch < round_index
        )
        if stale:
            consumed.add(idx)
            if event.node in active:
                active.remove(event.node)
                removed.append(event.node)
    # pass 3: where a budget-mode round must stop
    next_change: Optional[int] = None
    for idx, event in enumerate(events):
        if idx in consumed:
            continue
        if event.time is not None:
            anchors = [round_index + 1]
        elif event.kind == "fail":
            anchors = [event.epoch, event.epoch + 1]
        else:
            anchors = [event.epoch]
        for anchor in anchors:
            if anchor > round_index and (
                next_change is None or anchor < next_change
            ):
                next_change = anchor
    # pass 4: the fails that may fire this round
    nodes = sorted(active)
    armed = [
        event
        for idx, event in enumerate(events)
        if idx not in consumed
        and event.kind == "fail"
        and event.node in nodes
        and (
            (event.epoch is not None and event.epoch == round_index)
            or event.time is not None
        )
    ]
    return LegacyBoundary(active, removed, consumed, armed, next_change)


@dataclass
class MinatoObservation:
    """What one observed run of a Minato model did, and when."""

    #: (instant, sample index, stage kind) per successful poll, in order
    pickups: list
    #: (instant, gpu, sample indices, slow flags) per delivered batch
    batches: list
    worker_history: list
    events: int
    loader: SimMinatoLoader
    env: Environment

    @property
    def transitions(self):
        """Everything the refinement must reproduce, bit for bit: when each
        kind of stage picked up which sample, which GPU got which batch
        when, and every scheduler decision.  Pick-ups compare per kind (the
        three kinds take from different things, so their pick-ups within
        one instant commute) and do not say which stage of the kind it was
        (they are interchangeable; builders are told apart by their GPU)."""
        by_kind = {
            kind: [(at, index) for at, index, k in self.pickups if k == kind]
            for kind in ("loading", "slow", "builder")
        }
        return by_kind, self.batches, self.worker_history


def observe_minato(
    loader_cls,
    costs: Sequence[float],
    batch_size: int = 3,
    gpus: int = 1,
    cores: int = 128,
    epochs: int = 1,
    step: float = 0.02,
    stall: Optional[tuple] = None,
    halt_at: Optional[float] = None,
    horizon: Optional[float] = None,
    raw_nbytes: int = 1024,
    n_stages: int = 3,
    env_cls=Environment,
    **loader_kwargs,
) -> MinatoObservation:
    """Run ``loader_cls`` over a stub dataset with the given per-sample
    ``costs`` and log every pick-up and every batch.  Consumers train
    ``step`` seconds per batch; ``stall=(batch_number, seconds)`` makes GPU
    0 pause once; ``halt_at`` halts the loader at that instant, after which
    nothing ends the stream, so the run goes to ``horizon`` instead."""
    env = env_cls()
    workload = WorkloadSpec(
        name="observed",
        dataset=StubDataset(costs, raw_nbytes=raw_nbytes),
        pipeline=stub_pipeline(n_stages),
        model=None,
        batch_size=batch_size,
        epochs=epochs,
    )
    ctx = SimContext(env, workload, replace(CONFIG_A, cpu_cores=cores), gpus)
    loader = loader_cls(**loader_kwargs)
    loader.start(ctx)
    pickups: list = []
    batches: list = []

    def tap(owner, method, kind, index_of) -> None:
        inner = getattr(owner, method)

        def tapped():
            item = inner()
            if item is not None:
                pickups.append((env.now, index_of(item), kind))
            return item

        setattr(owner, method, tapped)

    tap(loader, "_next_index", "loading", lambda item: item[2])
    tap(loader._temp_store, "try_get", "slow", lambda item: item[0].index)
    if loader.construction.strict_order:
        tap(
            loader.construction.buffer, "try_next", "builder",
            lambda item: item[0].index,
        )

    def consumer(gpu: int):
        while True:
            batch = yield from loader.get_batch(gpu)
            if batch is None:
                return
            batches.append(
                (env.now, gpu, [s.index for s in batch.specs], list(batch.slow_flags))
            )
            if stall is not None and gpu == 0 and len(batches) == stall[0]:
                yield env.timeout(stall[1])
            yield from ctx.train_step(gpu, step)

    def killer():
        yield env.timeout(halt_at)
        loader.halt()

    consumers = [env.process(consumer(gpu)) for gpu in range(gpus)]
    if halt_at is not None:
        env.process(killer())
    env.run(until=AllOf(env, consumers) if horizon is None else horizon)
    return MinatoObservation(
        pickups, batches, list(loader.worker_history), env.events_processed,
        loader, env,
    )


# ---------------------------------------------------------------------------
# Every way to submit a simulated job (inputs to the validation tests)
# ---------------------------------------------------------------------------

_DOOR_NODES = 2


def _door_workload():
    return make_workload("speech_3s", dataset_size=120).scaled(0.02)


def _via_run_elastic(**knobs):
    return run_elastic(
        "minato", _door_workload(), CONFIG_A, ClusterMembership(_DOOR_NODES),
        **knobs,
    )


def _via_job_mix(**knobs):
    resources = {
        name: knobs.pop(name)
        for name in ("gpus_per_node", "topology")
        if name in knobs
    }
    spec = JobSpec(
        job_id="job0", loader="minato", workload_name="speech_3s",
        dataset_size=120, **knobs,
    )
    cluster = Cluster(ClusterMembership(_DOOR_NODES), CONFIG_A, **resources)
    return JobMix([spec], cluster).run()


#: name -> callable(**knobs) submitting one small speech job on two nodes;
#: a knob rule holds at every door or it is not a rule
FRONT_DOORS = {
    "run_elastic": _via_run_elastic,
    "JobMix": _via_job_mix,
}


def assert_every_door_rejects(match, **knobs):
    """``knobs`` must raise a ConfigurationError matching ``match`` at
    each front door."""
    for name, door in FRONT_DOORS.items():
        with pytest.raises(ConfigurationError, match=match):
            door(**knobs)
            pytest.fail(f"{name} accepted {knobs!r}")
