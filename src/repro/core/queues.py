"""The bounded queue between the stages of the concurrent engine.

:class:`WorkQueue` is its own queue -- a ``collections.deque``, one
``threading.Lock`` and two ``Condition`` objects on it -- and the only queue
class of the threaded engine.  Its blocking behaviour is an interface
contract, stated here and checked in ``tests/test_core_components.py``:

* **No blocking call depends on a timeout.**  ``put`` on a full queue and
  ``get`` on an empty one wait on a condition until an item moves, the queue
  is closed or it is aborted; nothing wakes up just to look.
* **A producer parked on a full queue is released by the low-water
  crossing.**  A ``put`` that finds the queue full parks; every parked
  producer is released together by the ``get`` / ``try_get`` that drains the
  occupancy to ``low_water``.  With the default mark, ``capacity - 1``, that
  is the first ``get`` (the classic bounded queue).  With a lower mark a
  woken producer refills a run of free slots per wake-up where it would have
  filled one, which is what keeps a loader that runs ahead of its consumer
  cheap: one thread wake-up per burst, not per sample.
* **A consumer is notified only when one is waiting**, one per item.
* ``close()`` and ``abort()`` release every blocked caller, and that
  wake-up cannot be lost (see :meth:`WorkQueue.abort`).

A stage that cannot wait in one ``get`` -- a batch builder drawing from two
queues or a reorder buffer, a slow-task worker that also watches for the end
of the stream -- parks on a :class:`Doorbell`; a queue built with one rings
it after every put.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from ..errors import LoaderStateError

__all__ = ["Doorbell", "WorkQueue", "QueueClosed"]


class QueueClosed(LoaderStateError):
    """Raised when putting into (or draining past the end of) a closed queue."""


class Doorbell:
    """Where a stage that found nothing to do parks until work may be there.

    A producer calls :meth:`ring` once its work is visible; :meth:`close`
    releases every waiter for good.  A ring costs one attribute read while
    nobody is parked, and no wake-up can be lost: a waiter *registers*
    (counts itself parked, notes the ring count), then *re-checks* its
    source, then waits for the ring count to move.  The producer's work is
    visible before it reads the parked count, so either it sees the waiter
    (and moves the count under the lock, before the waiter reads it or
    while it waits) or the waiter registered later and its re-check finds
    the work.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rung = threading.Condition(self._lock)
        #: registered waiters; read without the lock by ``ring``
        self._parked = 0
        self._rings = 0
        self._closed = False

    def ring(self) -> None:
        """Wake every parked waiter (call once the new work is visible)."""
        if self._parked:
            with self._lock:
                self._rings += 1
                self._rung.notify_all()

    def close(self) -> None:
        """Release every waiter, now and from here on."""
        with self._lock:
            self._closed = True
            self._rung.notify_all()

    def wait(self, ready: Callable[[], bool]) -> bool:
        """Block until a ring, unless ``ready()`` already holds; False once
        the bell is closed."""
        with self._lock:
            if self._closed:
                return False
            self._parked += 1
            rings = self._rings
        found = ready()
        with self._lock:
            if not found:
                while rings == self._rings and not self._closed:
                    self._rung.wait()
            self._parked -= 1
            return not self._closed


class WorkQueue:
    """Bounded MPMC FIFO with close and abort semantics.

    ``capacity`` is at least 1: no loader builds an unbounded queue.
    ``low_water`` is the occupancy at which producers parked on a full queue
    are released, ``capacity - 1`` unless given; ``doorbell``, if given, is
    rung after every put.  Occupancy never exceeds ``capacity``.  Liveness
    holds for every capacity >= 1 and every mark in
    ``[0, capacity)``: producers park only at occupancy ``capacity``, above
    the mark, and a consumer can find the queue empty only at occupancy
    0 <= ``low_water``, which the ``get`` that released them had to cross --
    no consumer waits or polls while a producer is still parked.
    """

    def __init__(
        self,
        capacity: int,
        name: str = "queue",
        low_water: Optional[int] = None,
        doorbell: Optional[Doorbell] = None,
    ) -> None:
        if capacity < 1:
            raise LoaderStateError(f"capacity must be >= 1, got {capacity!r}")
        if low_water is None:
            low_water = capacity - 1
        elif not 0 <= low_water < capacity:
            raise LoaderStateError(
                f"low_water must be in [0, {capacity}), got {low_water!r}"
            )
        self.name = name
        self._capacity = capacity
        self._low_water = low_water
        self._doorbell = doorbell
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        #: blocked callers not yet notified (whoever notifies them resets it)
        self._parked_producers = 0
        self._waiting_consumers = 0
        self._closed = False
        self._aborted = False

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._items)

    def fill_fraction(self) -> float:
        """Occupancy in [0, 1] for scheduler feedback."""
        return len(self._items) / self._capacity

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Mark the queue closed; pending items can still be drained."""
        with self._lock:
            self._closed = True
            self._release_all()

    def abort(self) -> None:
        """Release every blocked caller, now and from here on: ``put`` returns
        False and ``get`` returns None.  The non-blocking calls still work.

        A blocked caller reads this flag holding the lock and lets go of the
        lock only inside ``wait()``, and the flag is set holding the same
        lock: the abort runs either before the read or after the caller is a
        registered waiter, so the wake-up cannot be lost.  (Same for close.)
        """
        with self._lock:
            self._aborted = True
            self._release_all()

    def _release_all(self) -> None:
        self._parked_producers = self._waiting_consumers = 0
        self._not_full.notify_all()
        self._not_empty.notify_all()

    # -- operations -----------------------------------------------------------

    def _append(self, item: Any) -> None:
        self._items.append(item)
        if self._waiting_consumers:
            self._waiting_consumers -= 1
            self._not_empty.notify()

    def _pop(self) -> Any:
        item = self._items.popleft()
        if self._parked_producers and len(self._items) <= self._low_water:
            self._parked_producers = 0
            self._not_full.notify_all()
        return item

    def _full(self) -> bool:
        return self._capacity <= len(self._items)

    def try_put(self, item: Any) -> bool:
        with self._lock:
            if self._closed:
                raise QueueClosed(f"{self.name} is closed")
            if self._full():
                return False
            self._append(item)
        if self._doorbell is not None:
            self._doorbell.ring()
        return True

    def put(self, item: Any) -> bool:
        """Blocking put; returns False if aborted, raises if closed."""
        with self._lock:
            while True:
                if self._aborted:
                    return False
                if self._closed:
                    raise QueueClosed(f"{self.name} is closed")
                if not self._full():
                    self._append(item)
                    break
                self._parked_producers += 1
                self._not_full.wait()
        if self._doorbell is not None:
            self._doorbell.ring()
        return True

    def try_get(self) -> Any:
        with self._lock:
            return self._pop() if self._items else None

    def get(self) -> Any:
        """Blocking get; returns None if aborted or closed-and-drained."""
        with self._lock:
            while True:
                if self._aborted:
                    return None
                if self._items:
                    return self._pop()
                if self._closed:
                    return None
                self._waiting_consumers += 1
                self._not_empty.wait()
