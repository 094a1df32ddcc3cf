"""Capacity resources for the simulation kernel.

* :class:`Resource` -- SimPy-style capacity resource.  GPUs are modelled as
  ``Resource(env, capacity=1)``: training steps and (for DALI) GPU-side
  preprocessing jobs contend for it in FIFO order, which is exactly the
  contention story of paper §3.5.  ``request()`` always answers with an
  event to yield; ``try_request()`` takes a slot that is free without one
  (the loaders' ``cpu_busy`` / ``train_step`` yield a request only when it
  actually queued), and both share the users list, the ``on_change``
  notification and the FIFO hand-over on ``release``.

Bytes are not a capacity resource: disks and links move them through
:mod:`repro.sim.links` (a node's disk is :func:`~repro.sim.links.BandwidthPipe`,
one FIFO stream on a private :class:`~repro.sim.links.SharedLink`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from ..contracts import count
from .kernel import Environment, Event

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager inside process generators::

        with gpu.request() as req:
            yield req
            yield env.timeout(step_time)
    """

    __slots__ = ("resource", "released")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: set by :meth:`Resource.release`; a released request can never
        #: free a slot again
        self.released = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class Resource:
    """A resource with finite capacity and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        count("capacity", capacity)
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: deque = deque()
        #: optional callback(now, in_use) fired on every occupancy change
        self.on_change: Optional[Callable[[float, int], None]] = None
        #: releases of an already-released request (each one a latent
        #: double-free in the caller; a no-op here by design, but counted
        #: so tests and audits can see them)
        self.double_releases = 0

    @property
    def count(self) -> int:
        """Number of granted requests currently holding the resource."""
        return len(self.users)

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(self.env.now, len(self.users))

    def request(self) -> Request:
        event = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(event)
            event.succeed()
            self._notify()
        else:
            self.queue.append(event)
        return event

    def try_request(self) -> Optional[Request]:
        """Non-blocking request: take a free slot *now* and return the
        granted :class:`Request` (to be released like any other), or
        ``None`` when every slot is busy.

        The grant is synchronous -- the request is never scheduled, so the
        caller pays no kernel event to learn what it can already see.  A
        slot is only ever free with no live waiter (``release`` hands slots
        over before it returns), so this cannot overtake the FIFO queue.
        """
        if len(self.users) >= self.capacity:
            return None
        event = Request(self)
        self.users.append(event)
        self._notify()
        return event

    def release(self, request: Request) -> None:
        """Release a request: free its slot if granted, drop it from the
        wait queue if still pending.

        Releasing the same request twice (an explicit ``release`` followed
        by the context manager's ``__exit__``) is a designed, *tracked*
        no-op: after a slot has been handed to the next waiter, a second
        release of the old request must never free that waiter's slot.
        """
        if request.released:
            self.double_releases += 1
            return
        request.released = True
        try:
            self.users.remove(request)
        except ValueError:
            # Request still queued (context-manager exit after an interrupt):
            # leave it in place -- the grant loop skips released entries, so
            # abandoning a deep-queue request is O(1) instead of an O(n)
            # ``deque.remove`` scan.
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            if nxt.released:
                continue
            self.users.append(nxt)
            nxt.succeed()
        self._notify()
