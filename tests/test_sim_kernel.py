"""Tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptySchedule, SimulationError
from repro.sim import AllOf, Environment, Interrupt
from repro.sim.kernel import NORMAL, URGENT, Event, Timeout
from repro.sim.links import SharedLink
from repro.sim.stores import Store

from .helpers import CheckedEnvironment


def test_the_event_queue_is_not_selectable():
    with pytest.raises(TypeError, match="queue"):
        Environment(queue="heap")


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.5]


def test_zero_delay_timeout_fires_at_current_instant():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0.0]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nan_timeout_rejected():
    """``nan < 0`` is false: a NaN delay used to sit in the heap, turn
    ``env.now`` into NaN when popped and poison every later ``now + delay``."""
    env = Environment()
    with pytest.raises(ValueError, match="NaN delay"):
        env.timeout(float("nan"))
    assert env.peek() == float("inf") and env.now == 0.0


def test_a_nan_delay_cannot_poison_the_clock():
    """Four sleepers, one of them asked for NaN seconds: it dies of a
    ``ValueError`` at its own yield, the others wake on time and the run
    ends at the infinite one, not at NaN."""
    env = Environment()
    log = []

    def sleeper(delay):
        yield env.timeout(delay)
        log.append((delay, env.now))

    procs = [env.process(sleeper(d)) for d in (1.0, float("nan"), 2.0, float("inf"))]
    with pytest.raises(ValueError, match="NaN"):
        env.run()
    env.run()
    assert log == [(1.0, 1.0), (2.0, 2.0), (float("inf"), float("inf"))]
    assert not procs[1].ok


@pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-300, float("-inf")])
def test_a_timeout_refuses_a_bad_delay_before_it_is_scheduled(delay):
    """``Timeout`` sets its fields itself instead of through
    ``Event.__init__``; the guard still comes first, so a refused timeout
    leaves nothing queued and the referee sees no schedule."""
    env = CheckedEnvironment()
    with pytest.raises(ValueError, match="negative or NaN delay"):
        Timeout(env, delay)
    assert env.peek() == float("inf") and not env._shadow
    fine = Timeout(env, 0.5, value="v")
    assert (fine.delay, fine.callbacks, fine.triggered, fine.processed) == (
        0.5, [], True, False
    )
    env.run()
    assert (env.now, fine.value, fine.processed) == (0.5, "v", True)


def sim_event_classes():
    """Every :class:`Event` subclass defined in a ``repro.sim`` module."""
    import importlib
    import pkgutil

    import repro.sim

    found = set()
    for info in pkgutil.iter_modules(repro.sim.__path__):
        module = importlib.import_module(f"repro.sim.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Event)
                and value.__module__.startswith("repro.sim.")
            ):
                found.add(value)
    return found


def test_every_event_class_is_slotted():
    """A simulation allocates an event per delivery: none of them carries
    an instance ``__dict__``."""
    classes = sim_event_classes()
    assert {cls.__name__ for cls in classes} >= {
        "Event", "Timeout", "_Initialize", "Process", "AllOf", "StorePut",
        "StoreGet", "Request", "_Transfer",
    }
    for cls in classes:
        unslotted = [k.__name__ for k in cls.__mro__[:-1] if "__slots__" not in vars(k)]
        assert not unslotted, f"{cls.__name__}: {unslotted} have no __slots__"
    env = Environment()
    store = Store(env)

    def proc():
        yield env.timeout(1)
        yield store.put("x")

    events = [env.process(proc()), env.timeout(0), env.event(), store.get()]
    events.append(AllOf(env, events[1:2]))
    for event in events:
        assert not hasattr(event, "__dict__"), type(event).__name__


def test_every_delivery_goes_through_pop_next():
    """The run loop pops through ``_pop_next`` once per delivered event in
    every form of ``run`` and in ``step`` -- the hook the referee and the
    event census override."""
    popped = []

    class Watched(Environment):
        def _pop_next(self):
            event = super()._pop_next()
            if event is not None:
                popped.append(event)
            return event

    env = Watched()

    def proc(n):
        for k in range(n):
            yield env.timeout(k % 2)
        return n

    target = env.process(proc(3))
    others = [env.process(proc(n)) for n in (1, 4, 6)]
    assert env.run(until=target) == 3
    env.step()
    env.run(until=2.5)
    env.run()
    assert all(not p.is_alive for p in others)
    assert len(popped) == env.events_processed > 0


def test_every_delivery_is_one_call_of_step():
    """Every form of ``run`` delivers through ``Environment.step``, one call
    per event plus the one that finds a drained schedule: counting calls
    of ``step`` under a profiler counts the kernel's events."""
    import cProfile

    env = Environment()

    def proc(n):
        for k in range(n):
            yield env.timeout(k % 2)
        return n

    target = env.process(proc(3))
    others = [env.process(proc(n)) for n in (1, 4, 6)]
    profile = cProfile.Profile()
    profile.enable()
    env.run(until=target)
    env.run(until=2.5)
    env.run()
    profile.disable()
    assert all(not p.is_alive for p in others)
    steps = sum(
        entry.callcount
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_name == "step"
        and entry.code.co_filename.endswith("sim/kernel.py")
    )
    assert steps == env.events_processed + 1 > 1


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(2, "b"))
    env.process(proc(1, "a"))
    env.process(proc(3, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in ("x", "y", "z"):
        env.process(proc(tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_return_value_propagates():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer(results):
        value = yield env.process(inner())
        results.append(value)

    results = []
    env.process(outer(results))
    env.run()
    assert results == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return "done"

    value = env.run(until=env.process(proc()))
    assert value == "done"
    assert env.now == 2


def test_run_until_failed_event_raises_processed_or_not():
    env = Environment()

    def proc():
        yield env.timeout(2)
        raise ValueError("boom")

    failing = env.process(proc())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=failing)
    assert failing.processed
    # already processed: still raised, never handed back as a value
    with pytest.raises(ValueError, match="boom"):
        env.run(until=failing)


def test_run_until_time_stops_and_sets_now():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=2)


def test_run_until_untriggered_event_with_empty_schedule_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(EmptySchedule):
        env.run(until=event)


def test_event_succeed_twice_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_to_waiter():
    env = Environment()
    event = env.event()

    def failer():
        yield env.timeout(1)
        event.fail(RuntimeError("boom"))

    def waiter(log):
        try:
            yield event
        except RuntimeError as exc:
            log.append(str(exc))

    log = []
    env.process(failer())
    env.process(waiter(log))
    env.run()
    assert log == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_on_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def proc():
        timeout = env.timeout(1)
        yield env.timeout(2)  # the first timeout is long processed by now
        yield timeout
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [2.0]


def test_interrupt_wakes_process_early():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("finished")
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt(cause="deadline")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 5.0, "deadline")]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_self_interrupt_raises():
    """Regression: the guard compared the process's *wait target* against
    the active process, so a process interrupting itself slipped past it
    and corrupted its own resume state instead of raising."""
    env = Environment()
    log = []

    def selfish():
        proc = env.active_process
        with pytest.raises(SimulationError):
            proc.interrupt(cause="me")
        log.append("guarded")
        yield env.timeout(1)
        log.append(env.now)

    env.process(selfish())
    env.run()
    assert log == ["guarded", 1.0]


def test_interrupting_the_process_waited_on_is_allowed():
    """The broken guard also *wrongly* rejected interrupting a process that
    is currently waiting on the interrupter: target-is-active is not
    self-interruption."""
    env = Environment()
    log = []

    def child():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append(("child-interrupted", env.now, interrupt.cause))

    def parent(child_proc):
        yield env.timeout(5)
        # child waits on its timeout; parent is active and interrupts it --
        # legitimate, and distinct from child interrupting itself
        child_proc.interrupt(cause="parent")
        yield child_proc

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert log == [("child-interrupted", 5.0, "parent")]


def test_interrupting_a_waiter_on_the_active_process():
    """A process A waiting on process B may be interrupted *by* B: the old
    guard compared A's target (B) to the active process (B) and raised."""
    env = Environment()
    log = []

    def waiter(target_holder):
        try:
            yield target_holder[0]
            log.append("target-finished")
        except Interrupt as interrupt:
            log.append(("interrupted-by", interrupt.cause, env.now))

    def busy(waiter_holder):
        yield env.timeout(3)
        # waiter is blocked on *this* process; interrupt it anyway
        waiter_holder[0].interrupt(cause="busy-proc")
        yield env.timeout(10)

    busy_holder = []
    waiter_holder = []
    busy_proc = env.process(busy(waiter_holder))
    busy_holder.append(busy_proc)
    waiter_proc = env.process(waiter(busy_holder))
    waiter_holder.append(waiter_proc)
    env.run()
    assert log == [("interrupted-by", "busy-proc", 3.0)]


def test_interrupt_delivered_after_its_target_ended_is_dropped():
    """``interrupt()`` on a live process whose own resumption is already
    queued ahead of the interrupt and runs it to completion: by delivery
    there is nothing left to throw into, and the result stands."""
    env = CheckedEnvironment()

    def quick():
        return "done"
        yield

    def parent():
        child = env.process(quick())
        child.interrupt("too late")
        assert (yield child) == "done"

    env.run(until=env.process(parent()))


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(1)
        log.append(env.now)

    def interrupter(victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    env.run()
    assert log == [6.0]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc():
        events = [env.timeout(d, value=d) for d in (1, 3, 2)]
        result = yield AllOf(env, events)
        log.append((env.now, sorted(result.values())))

    env.process(proc())
    env.run()
    assert log == [(3.0, [1, 2, 3])]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_yield_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_many_processes_scale():
    env = Environment()
    counter = []

    def proc(delay):
        yield env.timeout(delay)
        counter.append(delay)

    for i in range(1000):
        env.process(proc(i % 17))
    env.run()
    assert len(counter) == 1000


# ---------------------------------------------------------------------------
# Stale wait targets and already-processed yields
# ---------------------------------------------------------------------------


def interrupted_sleeper(env, log, after_interrupt):
    """A process cut out of ``timeout(5, "late")`` at t=1; what it does
    next is ``after_interrupt(stale)``, a generator over the stale wait."""

    def sleeper():
        stale = env.timeout(5, value="late")
        try:
            yield stale
        except Interrupt:
            pass
        yield from after_interrupt(stale)
        log.append(env.now)

    def interrupter(victim):
        yield env.timeout(1)
        victim.interrupt()

    env.process(interrupter(env.process(sleeper())))


def test_stale_timeout_of_interrupted_waiter_is_delivered_to_nobody():
    """The queue has no cancellation: the stale timeout is delivered at its
    own time, with no callback left to walk."""
    env = CheckedEnvironment()
    log = []
    interrupted_sleeper(env, log, lambda stale: iter(()))
    env.run()
    assert log == [1.0]
    assert env.now == 5.0
    assert env.events_skipped == 0
    # 2 process starts, the 1 s timeout, the interrupt, 2 process ends and
    # the stale timeout
    assert env.events_processed == 7


@pytest.mark.parametrize("pause", [0, 2], ids=["same-instant", "later"])
def test_a_waiter_back_before_fire_time_resumes_on_its_stale_event(pause):
    """The waiter comes back to its stale timeout before t=5 -- after a
    zero-delay hop (the stale event is then the only entry left in the
    heap) or after a real delay: it is delivered at its own time."""
    env = CheckedEnvironment()
    log = []

    def back_to_it(stale):
        yield env.timeout(pause)
        log.append((yield stale))

    interrupted_sleeper(env, log, back_to_it)
    env.run()
    assert log == ["late", 5.0]
    assert env.events_skipped == 0
    # the 7 deliveries of the waiter that never comes back, and its pause
    assert env.events_processed == 8


def test_late_yield_on_a_stale_event_delivered_to_nobody_resumes_at_once():
    env = CheckedEnvironment()
    log = []

    def long_after(stale):
        yield env.timeout(10)
        assert stale.processed
        log.append((yield stale))

    interrupted_sleeper(env, log, long_after)
    env.run()
    assert log == ["late", 11.0]
    assert env.events_skipped == 0
    # the 7 deliveries of the waiter that never comes back, its 10 s
    # timeout and the resume event of the already-processed yield
    assert env.events_processed == 9


def test_resume_recycling_never_leaks_a_stale_value_or_a_failure():
    env = CheckedEnvironment()
    seen = []

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def watcher(bad):
        try:
            yield bad
        except ValueError:
            pass

    def proc(bad):
        a, b, c = (env.timeout(1, value=v) for v in "abc")
        yield env.timeout(2)
        for event in (a, b, c, a):  # processed long ago, back to back
            seen.append((yield event))
        try:
            yield bad
        except ValueError:
            seen.append("raised")
        seen.append((yield b))  # the failure did not poison a later yield
        seen.append(env.now)

    bad = env.process(failing())
    env.process(watcher(bad))
    env.process(proc(bad))
    env.run()
    assert seen == ["a", "b", "c", "a", "raised", "b", 2.0]


# -- random process programs under the checking environment -------------------

OPS = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from([0, 0, 0.5, 1, 2])),
    st.tuples(st.just("put"), st.integers(0, 3)),
    st.tuples(st.just("get"), st.none()),
    st.tuples(st.just("at"), st.sampled_from([0, 0.5, 1])),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    st.tuples(st.just("again"), st.none()),
    st.tuples(st.just("old"), st.none()),
    # (stream, bytes) on a 1 B/s link; 0.5e-16 B at t >= 1 is absorbed
    # into ``now`` on its own and not when shared: zero-delay re-queues
    st.tuples(
        st.just("send"),
        st.tuples(st.integers(0, 2), st.sampled_from([0, 0.5e-16, 0.5, 1])),
    ),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=8), min_size=2, max_size=4)


def drive(env, programs):
    """Run one list of ops per process; returns the (time, pid, op, value)
    trace.  ``again`` re-yields the wait the last interrupt cut short (back
    before its fire time, or a late yield once it was delivered to
    nobody); ``old`` re-yields the last finished sleep (the
    already-processed passthrough);
    ``at`` waits on a plain event succeeded at an absolute instant;
    ``send`` waits on a transfer over a shared link (its entry moved or
    withdrawn when another stream opens); ``requeue`` waits on a triggered
    event queued at each of its delays in turn, the way the link moves
    its entry."""
    store = Store(env, capacity=2)
    link = SharedLink(env, bandwidth=1.0)
    trace = []
    procs = []

    def requeued(delays, value):
        event = env.event()
        event._ok, event._value = True, value
        for delay in delays:
            env._requeue(event, env.now + delay)
        return event

    def body(pid, ops):
        stale = old = None
        for n, (op, arg) in enumerate(ops):
            if op == "interrupt":
                victim = procs[arg % len(procs)]
                if victim.is_alive and victim is not env.active_process:
                    victim.interrupt(n)
                continue
            event = {
                "sleep": lambda: env.timeout(arg, value=n),
                "put": lambda: store.put(arg),
                "get": store.get,
                "at": lambda: env.succeed_at(env.event(), env.now + arg, n),
                "again": lambda: stale,
                "old": lambda: old,
                "send": lambda: link.stream(arg[0]).transfer(arg[1]),
                "requeue": lambda: requeued(arg, n),
            }[op]()
            if event is None:
                continue
            try:
                value = yield event
                if op == "sleep":
                    old = event
            except Interrupt as interrupt:
                stale, value = event, ("interrupted", interrupt.cause)
            trace.append((env.now, pid, n, value))

    for pid, ops in enumerate(programs):
        procs.append(env.process(body(pid, ops)))
    env.run(until=1.5)  # a horizon stop (peek) in the middle of the run
    env.run()
    return trace, env.events_processed, env.events_skipped


@settings(max_examples=300, deadline=None)
@given(programs=PROGRAMS)
def test_random_programs_agree_with_the_reference_heap(programs):
    """The referee raises on the first transition that departs from the
    ``(time, priority, eid)`` heap; and it only watches -- the unchecked
    kernel produces the same trace and the same event counts."""
    assert drive(CheckedEnvironment(), programs) == drive(Environment(), programs)


class SwappedLanes(Environment):
    """Mutant: URGENT and NORMAL current-instant events land in each
    other's lane."""

    def _schedule(self, event, priority, delay, at=None):
        super()._schedule(
            event, 1 - priority if delay == 0.0 else priority, delay, at
        )


class UnshadowedAbsolute(Environment):
    """Mutant: the absolute-time entry pushes onto the heap itself instead
    of going through ``_schedule``, so nothing that watches the hook (the
    referee, a census) ever sees the event."""

    def succeed_at(self, event, when, value=None):
        event._ok, event._value = True, value
        self._eid += 1
        heapq.heappush(self._queue, (when, 1, self._eid, event))
        return event


class BackdatedAbsolute(Environment):
    """Mutant: the absolute-time entry lost its guard and its aim -- the
    event lands one second before the instant asked for, in the past."""

    def succeed_at(self, event, when, value=None):
        event._ok, event._value = True, value
        self._schedule(event, 1, None, when - 1.0)
        return event


class LaneBeatsHeapAtNow(Environment):
    """Mutant: a lane head beats a heap entry at ``now`` whatever its eid
    (only priority still counts)."""

    def _head(self):
        source = super()._head()
        if source is self._queue and source[0][0] == self._now:
            prio = source[0][1]
            for lane, lane_prio in ((self._urgent, URGENT), (self._normal, NORMAL)):
                if lane and lane_prio <= prio:
                    return lane
        return source


class PriorityBlindHeap(Environment):
    """Mutant: a heap entry at ``now`` is ordered against a lane head by
    eid alone, not by priority first."""

    def _head(self):
        source = super()._head()
        heap = self._queue
        if source is not None and source is not heap and heap:
            when, _prio, eid, _event = heap[0]
            if when == self._now and eid < source[0]._eid:
                return heap
        return source


class SupersededDelivered(Environment):
    """Mutant: ``_head`` takes every heap entry for live, as if each carried
    its event's current id, so a re-queued transfer is also delivered at
    the instant it was first queued for."""

    def _head(self):
        self._queue[:] = [(when, p, e._eid, e) for when, p, _eid, e in self._queue]
        heapq.heapify(self._queue)
        return super()._head()


class LaneRequeue(Environment):
    """Mutant: a ``_requeue`` at ``now`` goes to the normal lane, where a
    later re-queue cannot supersede it: the lane keeps an entry whose event
    has since taken a newer id, out of id order."""

    def _requeue(self, event, at, eid=None):
        if at != self._now:
            super()._requeue(event, at, eid)
        else:
            self._eid += 1
            event._eid = self._eid
            self._normal.append(event)


@pytest.mark.parametrize(
    "mutant, programs",
    [
        # process starts are URGENT, the zero-delay timeout NORMAL
        (SwappedLanes, [[("sleep", 0)], [("sleep", 0)]]),
        (UnshadowedAbsolute, [[("at", 0.5)], [("sleep", 1)]]),
        (BackdatedAbsolute, [[("sleep", 2), ("at", 0.5)], [("sleep", 1)]]),
        # at t=2, past the horizon stop, so inside run()'s own loop: an
        # absolute entry at now (heap) ahead of a later zero-delay timeout
        # (normal lane), both NORMAL
        (
            LaneBeatsHeapAtNow,
            [[("sleep", 2), ("at", 0)], [("sleep", 2), ("sleep", 0)]],
        ),
        # ... and behind a later process end (urgent lane)
        (PriorityBlindHeap, [[("sleep", 2), ("at", 0)], [("sleep", 2)]]),
        # a's transfer, due at t=1 alone, is re-queued to t=1.5 when b opens
        (SupersededDelivered, [[("send", (0, 1))], [("sleep", 0.5), ("send", (1, 1))]]),
        # at t=1 an event is queued at once, then re-queued a quarter
        # second later, while another process wakes in between
        (
            LaneRequeue,
            [[("sleep", 1), ("requeue", (0.0, 0.25))], [("sleep", 1.125)]],
        ),
    ],
    ids=[
        "swapped-lanes", "unshadowed-absolute", "backdated-absolute",
        "lane-beats-heap-at-now", "priority-blind-heap", "superseded-delivered",
        "lane-requeue",
    ],
)
def test_the_referee_bites(mutant, programs):
    class Refereed(CheckedEnvironment, mutant):
        pass

    drive(CheckedEnvironment(), programs)  # the real kernel passes
    with pytest.raises(AssertionError):
        drive(Refereed(), programs)


# -- scheduling at an absolute instant ------------------------------------------


def test_succeed_at_delivers_at_the_very_instant_asked_for():
    """A delay cannot name an instant computed elsewhere: in floats
    ``now + (when - now)`` need not be ``when``."""
    env = CheckedEnvironment()
    when = 0.0
    for _ in range(6):
        when += 0.003  # a poll grid, built by repeated addition
    seen = []

    def waiter(event):
        seen.append(((yield event), env.now))

    def kicker(event):
        yield env.timeout(0.0021149793983923307)
        assert env.now + (when - env.now) != when
        assert env.succeed_at(event, when, "tick") is event
        assert event.triggered and not event.processed

    wake = env.event()
    env.process(waiter(wake))
    env.process(kicker(wake))
    env.run()
    assert seen == [("tick", when)]


def test_succeed_at_now_is_delivered_after_what_is_already_queued():
    env = CheckedEnvironment()
    order = []

    def proc():
        yield env.timeout(1)
        first = env.timeout(0, value="queued first")
        late = env.succeed_at(env.event(), env.now, "at now")
        for event in (late, first):
            event.callbacks.append(lambda e: order.append(e.value))
        yield env.timeout(0)

    env.process(proc())
    env.run()
    assert order == ["queued first", "at now"] and env.now == 1.0


def test_succeed_at_rejects_the_past_and_a_triggered_event():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError, match="in the past"):
        env.succeed_at(env.event(), 4.999)
    with pytest.raises(ValueError, match="in the past"):
        env.succeed_at(env.event(), float("nan"))
    done = env.event().succeed()
    with pytest.raises(SimulationError, match="already been triggered"):
        env.succeed_at(done, 6.0)


def test_an_empty_schedule_raised_by_a_process_is_not_taken_for_the_drain():
    """``run`` reads 'nothing left' off ``step()``'s EmptySchedule; one that
    a process raised with events still queued is that process's failure."""

    def nested():
        yield env.timeout(1)
        Environment().step()  # an inner kernel with nothing to do

    for until in (None, "event"):
        env = Environment()
        env.process(nested())
        later = env.timeout(10)
        with pytest.raises(EmptySchedule, match="no more events"):
            env.run(until=later if until else None)
        assert env.now == 1.0 and not later.processed
