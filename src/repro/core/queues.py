"""Thread-safe bounded queues for the concurrent engine.

A thin layer over :class:`queue.Queue` adding the operations loader threads
need: non-blocking ``try_get``/``try_put``, interruptible blocking variants
driven by a stop event, close semantics, and the occupancy fraction the
worker scheduler feeds on.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Optional

from ..errors import LoaderStateError

__all__ = ["WorkQueue", "QueueClosed", "DEFAULT_SOFT_CAPACITY"]

#: reference occupancy denominator for unbounded queues: scheduler feedback
#: needs a finite "full" point, and this matches the default bounded capacity
DEFAULT_SOFT_CAPACITY = 100


class QueueClosed(LoaderStateError):
    """Raised when putting into (or draining past the end of) a closed queue."""


class WorkQueue:
    """Bounded MPMC FIFO with close semantics.

    ``get``/``put`` poll in small slices so a stop event can interrupt them;
    the poll slice is wall-clock and short, it does not affect virtual-time
    accounting (waiting threads are idle by definition).
    """

    _POLL_SLICE = 0.005  # wall seconds

    def __init__(
        self,
        capacity: int = 0,
        name: str = "queue",
        soft_capacity: int = DEFAULT_SOFT_CAPACITY,
    ) -> None:
        if soft_capacity < 1:
            raise LoaderStateError(
                f"soft_capacity must be >= 1, got {soft_capacity!r}"
            )
        self._q: "queue.Queue" = queue.Queue(maxsize=capacity)
        self.name = name
        self._soft_capacity = soft_capacity
        self._closed = threading.Event()

    # -- introspection -------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._q.maxsize

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def __len__(self) -> int:
        return self._q.qsize()

    def fill_fraction(self) -> float:
        """Occupancy in [0, 1] for scheduler feedback.

        Unbounded queues report against ``soft_capacity``: a constant 0.0
        would make the worker scheduler read a backlogged queue as
        permanently empty and scale up without bound.
        """
        reference = self._q.maxsize if self._q.maxsize > 0 else self._soft_capacity
        return min(1.0, self._q.qsize() / reference)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Mark the queue closed; pending items can still be drained."""
        self._closed.set()

    # -- operations -----------------------------------------------------------

    def try_put(self, item: Any) -> bool:
        if self._closed.is_set():
            raise QueueClosed(f"{self.name} is closed")
        try:
            self._q.put_nowait(item)
        except queue.Full:
            return False
        return True

    def put(self, item: Any, stop: Optional[threading.Event] = None) -> bool:
        """Blocking put; returns False if interrupted by ``stop`` or close."""
        while True:
            if stop is not None and stop.is_set():
                return False
            if self._closed.is_set():
                raise QueueClosed(f"{self.name} is closed")
            try:
                self._q.put(item, timeout=self._POLL_SLICE)
            except queue.Full:
                continue
            return True

    def try_get(self) -> Any:
        try:
            return self._q.get_nowait()
        except queue.Empty:
            return None

    def get(self, stop: Optional[threading.Event] = None) -> Any:
        """Blocking get; returns None if interrupted or closed-and-drained."""
        while True:
            if stop is not None and stop.is_set():
                return None
            try:
                return self._q.get(timeout=self._POLL_SLICE)
            except queue.Empty:
                if self._closed.is_set() and self._q.empty():
                    return None
