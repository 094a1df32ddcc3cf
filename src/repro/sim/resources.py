"""Capacity resources and bandwidth servers for the simulation kernel.

* :class:`Resource` -- SimPy-style capacity resource.  GPUs are modelled as
  ``Resource(env, capacity=1)``: training steps and (for DALI) GPU-side
  preprocessing jobs contend for it in FIFO order, which is exactly the
  contention story of paper §3.5.  ``request()`` always answers with an
  event to yield; ``try_request()`` takes a slot that is free without one
  (the loaders' ``cpu_busy`` / ``train_step`` yield a request only when it
  actually queued), and both share the users list, the ``on_change``
  notification and the FIFO hand-over on ``release``.
* :class:`BandwidthPipe` -- analytic FIFO bandwidth server used for disks and
  shared-filesystem links.  A transfer of ``n`` bytes occupies the pipe for
  ``n / bandwidth`` seconds after everything queued before it drains, and
  completes one ``latency`` later (propagation delay: latencies of queued
  transfers overlap, they never serialize).  Completed transfers are
  recorded so experiments can plot read-throughput time series (paper
  Fig. 10).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .kernel import Environment, Event, Timeout

__all__ = ["Resource", "Request", "BandwidthPipe", "throughput_series"]


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
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
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


class BandwidthPipe:
    """FIFO bandwidth server (disk, NIC, or shared-filesystem link).

    The analytic model: the pipe has a single ``available_at`` watermark; a
    transfer arriving at ``t`` starts at ``max(t, available_at)`` and occupies
    the pipe for ``nbytes / bandwidth`` seconds.  Total throughput therefore
    never exceeds ``bandwidth`` and concurrent readers queue fairly (FIFO).
    ``latency`` is propagation delay, not occupancy: a transfer completes
    ``latency`` after its bytes drain, but the next queued transfer starts
    as soon as the bytes are through -- N queued readers pay one latency
    each, overlapped, never N serialized latencies.

    ``record=False`` disables the per-transfer ``transfers`` log (one tuple
    per transfer, unbounded -- benchmark-scale runs accumulate millions);
    the scalar totals ``total_bytes`` / ``transfer_count`` are always
    maintained, so aggregate accounting never needs the log.
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        record: bool = True,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency!r}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._available_at = 0.0
        self._record = record
        #: completed transfers as (start, finish, nbytes); empty when
        #: ``record=False``
        self.transfers: List[Tuple[float, float, float]] = []
        #: total bytes ever transferred (maintained with recording off)
        self.total_bytes = 0.0
        #: total transfer count (maintained with recording off)
        self.transfer_count = 0

    def transfer(self, nbytes: float) -> Timeout:
        """Schedule a transfer; the returned event fires on completion."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes!r}")
        if nbytes == 0:
            # nothing enters the pipe (a no-delta incremental snapshot, an
            # empty tail read): complete at ``now`` with no propagation
            # delay and no accounting noise -- the watermark, counters, and
            # transfer log describe bytes, and there are none
            return self.env.timeout(0.0, value=0.0)
        start = max(self.env.now, self._available_at)
        # only the bytes occupy the pipe; latency is propagation delay on
        # top, so queued transfers overlap their latencies
        self._available_at = start + nbytes / self.bandwidth
        finish = start + self.latency + nbytes / self.bandwidth
        self.total_bytes += nbytes
        self.transfer_count += 1
        if self._record:
            self.transfers.append((start, finish, float(nbytes)))
        return self.env.timeout(finish - self.env.now, value=nbytes)

    @property
    def backlog(self) -> float:
        """Seconds of queued work currently ahead of a new transfer."""
        return max(0.0, self._available_at - self.env.now)

    def throughput_series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """:func:`throughput_series` of this pipe's transfer log."""
        return throughput_series(self.transfers, bucket)


def throughput_series(
    transfers: Sequence[Tuple[float, float, float]], bucket: float = 1.0
) -> List[Tuple[float, float]]:
    """Aggregate completed ``(start, finish, nbytes)`` transfers into
    ``(t, bytes/s)`` buckets.

    Each transfer's bytes are spread uniformly over its active interval.
    One linear sweep over the sorted interval endpoints accumulates the
    piecewise-constant aggregate rate, so the cost is
    ``O(T log T + buckets)`` rather than transfers x buckets-per-transfer
    (long distributed runs record hundreds of thousands of reads).
    """
    if bucket <= 0:
        raise ValueError(f"bucket must be positive, got {bucket!r}")
    if not transfers:
        return []
    events: List[Tuple[float, float]] = []
    horizon = 0.0
    for start, finish, nbytes in transfers:
        horizon = max(horizon, finish)
        duration = max(finish - start, 1e-12)
        rate = nbytes / duration
        events.append((start, rate))
        events.append((finish, -rate))
    events.sort()
    nbuckets = int(horizon / bucket) + 1
    volume = [0.0] * nbuckets
    #: difference array over *interior* buckets fully covered by a
    #: segment: accumulate the segment rate at entry/exit and recover
    #: per-bucket volume with one prefix-sum sweep, so each segment
    #: costs O(1) instead of O(buckets spanned)
    interior = [0.0] * (nbuckets + 1)
    rate = 0.0
    prev = 0.0
    for t, delta in events:
        if t > prev and rate > 0.0:
            first = int(prev / bucket)
            last = min(int(t / bucket), nbuckets - 1)
            if first == last:
                volume[first] += rate * (t - prev)
            else:
                volume[first] += rate * ((first + 1) * bucket - prev)
                volume[last] += rate * (min(t, horizon) - last * bucket)
                if last > first + 1:
                    interior[first + 1] += rate
                    interior[last] -= rate
        rate += delta
        prev = max(prev, t)
    running = 0.0
    for i in range(nbuckets):
        running += interior[i]
        if running != 0.0:
            volume[i] += running * bucket
    series: List[Tuple[float, float]] = []
    for i, v in enumerate(volume):
        # the final bucket only extends to the horizon, not the full
        # bucket width: normalize by the width actually covered, or the
        # tail throughput is systematically underreported
        width = min(horizon, (i + 1) * bucket) - i * bucket
        series.append((i * bucket, v / width if width > 0 else 0.0))
    return series
