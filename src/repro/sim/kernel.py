"""A small discrete-event simulation kernel (SimPy-flavoured).

The paper's evaluation runs for hundreds of wall-clock seconds per data point
(and up to 14 days for the accuracy study).  This kernel lets us execute the
*same pipeline semantics* in virtual time: processes are Python generators
that ``yield`` events (timeouts, queue operations, resource requests) and an
:class:`Environment` advances a global virtual clock from event to event.

Only the features needed by the loader models are implemented:

* :class:`Environment` -- event heap, virtual ``now``, ``run(until=...)``.
* :class:`Event` / :class:`Timeout` -- basic triggerable events.
* :class:`Process` -- generator-driven coroutine with ``interrupt`` support
  (used to model the paper's mid-transformation preemption of slow samples).
* :class:`AllOf` -- waits for a set of events.

Queues and resources live in :mod:`repro.sim.stores` and
:mod:`repro.sim.resources`.

Scheduling is served by an *indexed* event queue (see
:class:`Environment`): events fired at the current instant -- the dominant
class in a loader/fabric simulation, where nearly every ``succeed()`` and
process resumption is a zero-delay cascade -- live in two priority-indexed
FIFO lanes with O(1) push/pop, while genuinely future events fall back to
the exact binary heap.  The composite pop order is *identical* to a single
``(time, priority, eid)`` heap: that heap is the kernel's specification,
and ``tests/helpers.CheckedEnvironment`` checks every delivery and every
skip against it.  A heap entry is live only while it carries its event's
current scheduling id: ``_requeue`` moves a pending event by queueing
it again (or withdraws it), and the entry it supersedes is skipped when
it surfaces.  That is the queue's one skip rule: every other entry is
delivered, an interrupted process's stale wait target too (to nobody, at
its own time).

Per delivered event ``run`` makes one :meth:`Environment.step` call, which
pops through ``_pop_next`` -> ``_head``; the arbitration builds no key
tuples, and every event class is slotted.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import EmptySchedule, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
]

_PENDING = object()

#: Event scheduling priorities. Urgent events (process resumptions) run before
#: normal events scheduled for the same instant, mirroring SimPy's behaviour.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Thrown inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may eventually *succeed* or *fail*.

    Callbacks are invoked with the event as their only argument when the
    environment processes the event.  Events are slotted (no instance
    ``__dict__``): a simulation allocates one per delivery.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_eid")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set True once a failure's exception was consumed by somebody;
        #: unhandled failures surface in Environment.step().
        self._defused = False
        #: scheduling id of the event's current entry (orders lane heads
        #: against heap entries at the same time; a heap entry carrying
        #: another id was superseded by ``Environment._requeue``)
        self._eid = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self


class Timeout(Event):
    """An event that fires ``delay`` virtual seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # a NaN delay would poison env.now for good
            raise ValueError(f"negative or NaN delay: {delay!r}")
        # Event.__init__'s fields, set here directly: the commonest event
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._eid = 0
        self.delay = delay
        env._schedule(self, NORMAL, delay)


class _Initialize(Event):
    """Immediate event that starts a freshly created process -- or any
    other chain of transitions, given its first one as ``start``."""

    __slots__ = ()

    def __init__(self, env: "Environment", start: Callable[[Event], None]) -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(start)
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A process driven by a generator.

    The process itself is an event that triggers when the generator returns
    (value = the generator's return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process expects a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        _Initialize(env, self._resume)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._interrupted)
        self.env._schedule(interrupt_event, URGENT, 0.0)

    def _interrupted(self, event: Event) -> None:
        # the process may have ended on its own between interrupt() and
        # this delivery, later in the same instant: nothing left to throw into
        if self._ok is None:
            self._resume(event)

    def _resume(self, event: Event) -> None:
        # Drop the subscription on the event we were waiting for (if we are
        # being resumed by an interrupt instead of that event).
        if self._target is not None and self._target is not event:
            target = self._target
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        env = self.env
        env._active = self

        # every way out of the generator resets ``_active`` itself (cheaper
        # than a ``finally`` on the path every resumption takes)
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            self._ok = True
            self._value = stop.value
            env._schedule(self, URGENT, 0.0)
            return
        except BaseException as exc:
            env._active = None
            self._ok = False
            self._value = exc
            env._schedule(self, URGENT, 0.0)
            return
        env._active = None

        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded a non-event: {next_event!r} "
                f"(from {self._generator!r})"
            )
        if next_event.callbacks is None:
            # Already processed: resume immediately at the current instant.
            resume = Event(self.env)
            resume._ok = next_event._ok
            resume._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                resume._defused = True
            resume.callbacks.append(self._resume)
            self.env._schedule(resume, URGENT, 0.0)
            self._target = resume
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event


class AllOf(Event):
    """Triggers once all events have triggered."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done += 1
        if self._done >= len(self._events):
            # every event has been delivered, and none failed
            self.succeed({e: e._value for e in self._events})


class Environment:
    """Coordinates processes and advances virtual time.

    Events fired at the *current instant* (zero-delay ``succeed()``
    cascades and process resumptions, the vast majority of a simulation's
    traffic) are appended to two FIFO lanes indexed by priority (urgent /
    normal) with O(1) push and pop; only genuinely future events pay the
    binary heap.  The pop order is exactly the single-heap ``(time,
    priority, eid)`` order: lane entries carry their scheduling id, every
    entry in a lane is at the current time (lanes always drain before the
    clock advances), the heap holds nothing earlier, and each step takes
    the least of the heads (see :meth:`_head`).

    ``events_processed`` / ``events_skipped`` count delivered events and
    superseded heap entries; the benchmark layer reports events/sec from
    them.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list = []
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._eid = 0
        self._active: Optional[Process] = None
        #: events actually delivered (callbacks walked)
        self.events_processed = 0
        #: heap entries superseded by ``_requeue``, dropped undelivered
        self.events_skipped = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self,
        event: Event,
        priority: int,
        delay: Optional[float],
        at: Optional[float] = None,
    ) -> None:
        """Queue ``event`` ``delay`` seconds from now, or -- ``delay=None``
        -- at the absolute instant ``at`` (:meth:`succeed_at`; it always
        takes the heap, which orders an entry at ``now`` against the lanes
        by its id like any other)."""
        self._eid += 1
        event._eid = self._eid
        if delay == 0.0:
            # current-instant lane: O(1), no tuple, exact order preserved
            # via the carried eid (lanes only ever hold events at _now)
            if priority == URGENT:
                self._urgent.append(event)
            else:
                self._normal.append(event)
        else:
            heappush(
                self._queue,
                (
                    self._now + delay if at is None else at,
                    priority,
                    self._eid,
                    event,
                ),
            )

    def succeed_at(self, event: Event, when: float, value: Any = None) -> Event:
        """Succeed ``event`` at the *absolute* virtual instant ``when``.

        The event counts as triggered from now on (like a :class:`Timeout`
        from its creation) and is delivered at ``when`` -- after everything
        already queued for that instant.  A delay cannot say this: in
        floats ``now + (when - now)`` need not be ``when``, and a waiter
        that must resume on a grid of instants computed elsewhere (the
        loaders' poll ticks) could land one bit off it.
        """
        if event._ok is not None:
            raise SimulationError(f"{event!r} has already been triggered")
        if not when >= self._now:
            raise ValueError(
                f"cannot schedule in the past: at={when!r} < now={self._now!r}"
            )
        event._ok = True
        event._value = value
        self._schedule(event, NORMAL, None, when)
        return event

    def _requeue(self, event: Event, at: Optional[float], eid: Optional[int] = None) -> None:
        """Queue the triggered ``event`` at the instant ``at`` (not before
        now) under ``eid``, by default a fresh scheduling id, superseding
        any entry it has; ``at=None`` only supersedes.  A ``SharedLink``
        keeps its one entry, its next completion, with it.  The entry
        takes the heap even at ``now``, where it is delivered as a
        normal-lane entry with its id would be: only a heap entry carries
        its own id, so only a heap entry can be superseded."""
        if eid is None:
            self._eid += 1
            eid = self._eid
        event._eid = eid
        if at is not None:
            heappush(self._queue, (at, NORMAL, eid, event))

    def _head(self):
        """The queue -- heap or lane -- whose head is the next event in
        ``(time, priority, eid)`` order, or ``None`` if nothing is pending.

        One kind of entry is discarded on the way, only once it *is* the
        next entry, and counted in ``events_skipped``: a heap entry is live
        only while it carries its event's current ``_eid``, so one
        superseded by a later :meth:`_requeue` is dropped and its event
        stays pending at its newer entry.  Nothing else is ever skipped.

        The arbitration builds no key tuples.  Every lane entry is at
        ``now`` and the heap holds nothing earlier, so in ``(time,
        priority, eid)`` order the urgent lane's head precedes the normal
        lane's, and a lane head loses only to a heap entry *at* ``now``
        with a smaller ``(priority, eid)``.
        """
        heap = self._queue
        urgent = self._urgent
        normal = self._normal
        while True:
            if urgent or normal:
                if urgent:
                    source = urgent
                    prio = URGENT
                else:
                    source = normal
                    prio = NORMAL
                if not heap:
                    return source
                entry = heap[0]
                if entry[0] != self._now or entry[1] > prio or (
                    entry[1] == prio and entry[2] > source[0]._eid
                ):
                    return source
            elif heap:
                entry = heap[0]
            else:
                return None
            if entry[2] == entry[3]._eid:
                return heap
            heappop(heap)
            self.events_skipped += 1

    def _pop_next(self) -> Optional[Event]:
        """Pop the next live event (advancing ``now``), or ``None``."""
        source = self._head()
        if source is None:
            return None
        if source is self._queue:
            when, _prio, _eid, event = heappop(source)
            self._now = when
            return event
        return source.popleft()

    def settled(self) -> bool:
        """Nothing else is queued for the current instant: an event
        succeeded now would be the next one delivered, unless the rest of
        the current delivery schedules an urgent one.  A transition in tail
        position whose continuation would wait on such an event may take
        the continuation at once and deliver the same run.  (A superseded
        heap entry at ``now`` answers ``False``: a missed shortcut, never a
        wrong one.)"""
        if self._urgent or self._normal:
            return False
        heap = self._queue
        return not heap or heap[0][0] != self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        source = self._head()
        if source is None:
            return float("inf")
        return source[0][0] if source is self._queue else self._now

    def step(self) -> None:
        """Process the next event.  Raises :class:`EmptySchedule` if none.

        The one delivery body, called once per delivered event by every
        form of :meth:`run` (so counting its calls counts the events): one
        ``_pop_next`` (the hook the referee and the census watch), the
        count, the callbacks swapped out and called, the unhandled-failure
        check.
        """
        event = self._pop_next()
        if event is None:
            raise EmptySchedule("no more events scheduled")
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # Unhandled failure: surface it to the caller of run()/step().
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the schedule drains), a number
        (run until virtual time reaches it), or an :class:`Event` (run until
        it is processed, returning its value or raising its exception).
        """
        # the two open-ended forms loop on step() alone and read "nothing
        # left" off its EmptySchedule (with events still queued it is a
        # process's own failure surfacing, and propagates as such)
        step = self.step
        if until is None:
            try:
                while True:
                    step()
            except EmptySchedule:
                if self._head() is not None:
                    raise
                return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is not None:
                done = []
                sentinel.callbacks.append(done.append)
                try:
                    while not done:
                        step()
                except EmptySchedule:
                    if self._head() is not None:
                        raise
                    raise EmptySchedule(
                        "schedule drained before the target event triggered"
                    ) from None
            if sentinel._ok:
                return sentinel._value
            sentinel._defused = True
            raise sentinel._value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"cannot run backwards: until={horizon} < now={self._now}"
            )
        while self.peek() <= horizon:
            step()
        self._now = horizon
        return None
