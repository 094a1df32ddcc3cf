"""Clock abstractions shared by the concurrent engine and the tests.

The paper's transformations include *injected* compute (e.g. the Speech
workload's LightStep/HeavyStep, which sleep for 0.5 s / 3 s / 10 s).  To make
those costs testable at any speed, every component in the concurrent engine
charges compute through a :class:`Clock` instead of calling ``time.sleep``
directly.  Three implementations are provided:

* :class:`RealClock` -- wall time; ``advance`` really sleeps.  Faithful mode.
* :class:`ScaledClock` -- virtual seconds mapped onto scaled wall seconds, so
  a paper-scale workload (hundreds of virtual seconds) can run in a fraction
  of the time while every reported number stays at paper scale.
* :class:`ThreadLocalClock` -- purely logical, per-thread time.  ``advance``
  just bumps a thread-local counter; ``now`` reads it.  Deterministic and
  instantaneous, used by unit tests that only care about *accounting*.

All clocks report time in (virtual) seconds as ``float``.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod

from .contracts import positive

__all__ = [
    "Clock",
    "RealClock",
    "ScaledClock",
    "ThreadLocalClock",
]


class Clock(ABC):
    """Interface for time sources used by the concurrent engine."""

    #: True when all threads observe one coherent timeline (wall-backed
    #: clocks); False for purely logical per-thread clocks.  Components that
    #: need cross-thread timing (the worker scheduler, idle waits) consult it.
    shared_timeline: bool = True

    @abstractmethod
    def now(self) -> float:
        """Current time in virtual seconds."""

    @abstractmethod
    def advance(self, seconds: float) -> None:
        """Consume ``seconds`` of compute (blocking in real-time clocks)."""

    def sleep(self, seconds: float) -> None:
        """Idle-wait for ``seconds``.  Alias of :meth:`advance` by default.

        Subclasses may distinguish busy compute from idle waiting; the default
        treats them identically, which is correct for timing purposes.
        """
        self.advance(seconds)

    def wait(self, event: threading.Event, seconds: float) -> bool:
        """Idle until ``event`` is set or ``seconds`` have passed on this
        clock, whichever is first; True when the event is set.

        The default sleeps the whole interval (all a logical clock can do);
        wall-backed clocks block on the event so that setting it wakes them.
        """
        self.sleep(seconds)
        return event.is_set()


class RealClock(Clock):
    """Wall-clock time based on :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait(self, event: threading.Event, seconds: float) -> bool:
        return event.wait(seconds)


class ScaledClock(Clock):
    """Virtual seconds running ``1/scale`` times faster than wall time.

    With ``scale=0.01`` a transformation that charges 0.5 virtual seconds
    blocks for 5 wall milliseconds, and ``now()`` advances 100 virtual seconds
    per wall second.  All threads sharing the instance observe a coherent
    virtual timeline, so cross-thread orderings remain meaningful.
    """

    def __init__(self, scale: float = 0.01) -> None:
        self._scale = float(positive("scale", scale))
        self._origin = time.monotonic()

    @property
    def scale(self) -> float:
        return self._scale

    def now(self) -> float:
        return (time.monotonic() - self._origin) / self._scale

    def advance(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds * self._scale)

    def wait(self, event: threading.Event, seconds: float) -> bool:
        return event.wait(seconds * self._scale)


class ThreadLocalClock(Clock):
    """Deterministic logical clock with an independent timeline per thread.

    ``advance`` adds to the calling thread's counter only.  There is no
    global ordering across threads -- this clock is meant for tests of
    *per-sample accounting* (e.g. "is this sample classified slow?") where
    wall time would make results flaky.
    """

    shared_timeline = False

    def __init__(self) -> None:
        self._local = threading.local()

    def _counter(self) -> float:
        return getattr(self._local, "t", 0.0)

    def now(self) -> float:
        return self._counter()

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance by a negative duration: {seconds!r}")
        self._local.t = self._counter() + seconds

    def reset(self) -> None:
        """Reset the calling thread's timeline to zero."""
        self._local.t = 0.0
