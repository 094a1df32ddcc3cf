"""Stream-aware shared links: fluid max-min fair bandwidth sharing.

The one byte mover of the simulator.  A :class:`SharedLink` models one
physical link (a NIC, an NVLink lane, a node's storage device); each
:class:`Stream` on it is one flow endpoint -- a collective ring pass, a
tenant's remote-storage loader path, a checkpoint writer -- tagged with a
traffic class (``collective`` / ``loader`` / ``checkpoint``).  Transfers
on one stream are FIFO; across streams the link is max-min fair: ``n``
streams with a transfer draining each drain at ``bandwidth / n``.  A
node's disk is one FIFO stream on a private link (:func:`BandwidthPipe`),
which logs each transfer as ``(start, finish, nbytes)`` for the disk
throughput series (:func:`throughput_series`, paper Fig. 10).

A transfer *drains* when its last byte leaves: it leaves the fair share
and its stream's next transfer starts.  It *completes* exactly
``latency`` later and is never re-timed.  A stream is busy while a
transfer of it drains -- the one definition the engine, the collapse
probe (:meth:`SharedLink.busy_streams`) and :func:`project` share.
Pinned by ``tests/test_links.py``: one stream is the FIFO watermark
server bit for bit (``finish = max(now, prev_drain) + latency + nbytes /
(bandwidth / 1)``, one event per transfer), and G streams sending equal
chunks at one instant finish at ``start + latency + chunk / (bandwidth /
G)``, what the collapsed collective gets from :func:`project`.

The engine is one virtual clock per link, the generalized processor
sharing of fair queueing (Parekh & Gallager 1993; Demers, Keshav &
Shenker 1989): ``V``, the service each busy stream has had, grows at
``bandwidth / n``, so a head drains when ``V`` reaches its *virtual
drain* (``V`` at its start plus its bytes; a chained transfer's is its
predecessor's plus its bytes).  The heads sit in a heap on that key, so
a stream opening or emptying moves only the rate, never the order.  A
head whose share has not moved since it started is projected with
:func:`project`'s floats, and heads with one virtual drain leave at one
instant, before ``n`` moves: that keeps the pinned regimes exact.  A
drain is no event: :meth:`SharedLink._advance` replays the drains due at
the next link event.

A transfer is its own completion event, and a link holds one live kernel
entry, its next completion: the oldest drained transfer (they complete
in drain order), else the earliest head.  The entry lies at
``submitted + (finish - submitted)``, where a timer set at submit would,
and moves (:meth:`Environment._requeue`; the entry it leaves is skipped,
``events_skipped``) only when a stream opens.  A completion hands it on.
Heads that drain at one instant complete in stream creation order.  One
same-instant rule stays: a transfer whose share never moved keeps the
scheduling id it took at submit (``_Transfer.kept``), so it completes
where a timer set at submit would among the instant's other events;
without it ``mix-two-job-64`` delivered 276 708 events, not 184 662 (its
ring wake-ups went from 2 652 to 94 697).

At completion a transfer books its queue wait plus its slowdown versus
an idle link, ``(drain - start) - nbytes / bandwidth`` -- :func:`project`'s
``excess`` if it drained at one share -- to its stream, its class
(``wait_by_class``) and the stream's optional ``sink``, an exact sum
(:class:`~repro.engine.metrics.ExactSums`: the fabric's and the jobs'
``link_wait_by_class``), which no completion order can move.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from ..contracts import nonnegative, positive
from ..engine.metrics import ExactSums
from .kernel import Environment, Event, Timeout

__all__ = ["SharedLink", "Stream", "BandwidthPipe", "project", "throughput_series"]

_NEVER = float("inf")
_CREATION = attrgetter("_order")


def project(
    anchor: float, nbytes: float, bandwidth: float, latency: float, streams: int = 1
) -> Tuple[float, float, float]:
    """The link model's closed form, written once: ``(drain, finish, excess)``
    of ``nbytes`` draining from ``anchor`` on a link of ``bandwidth`` split
    equally among ``streams`` busy streams.

    ``drain`` frees the stream for its next transfer, ``finish`` adds the
    latency tail, ``excess`` is the fair-sharing slowdown versus an idle
    link (exactly ``0.0`` for one stream: ``bandwidth / 1 == bandwidth``).
    The engine below (which writes the same expressions inline) and the
    collapsed collective fast path
    (:meth:`~repro.sim.fabric.RingFabric._collapse_decider`) share it, so
    their floats agree by construction; the operand order is pinned by
    the single-stream == FIFO watermark equivalence.
    """
    share = bandwidth / streams
    seconds = nbytes / share
    return anchor + seconds, anchor + latency + seconds, seconds - nbytes / bandwidth


class _Transfer(Event):
    """One draining (or stream-queued) transfer on a shared link, and its
    own completion event: triggered at creation, as a :class:`Timeout`
    is, with the bytes moved as its value.  Its first callback is the
    link's completion hook."""

    __slots__ = ("stream", "nbytes", "start", "submitted", "drain", "finish", "wait", "kept")

    def __init__(self, stream: "Stream", nbytes: float, now: float) -> None:
        link = stream.link
        # Event.__init__'s fields, set here directly (one per transfer);
        # the scheduling id is taken at submit, as a timer would take it
        env = self.env = link.env
        self.callbacks = [link._hook]
        self._value = nbytes
        self._ok = True
        self._defused = False
        env._eid += 1
        self._eid = env._eid
        self.stream = stream
        self.nbytes = nbytes
        #: when it starts draining; its drain and completion instants,
        #: projected while it is the link's earliest head, fixed once it
        #: drains; and the wait it books, fixed at its drain
        self.start = self.submitted = self.drain = self.finish = now
        self.wait = 0.0


class Stream:
    """One flow endpoint on a :class:`SharedLink`.

    :meth:`transfer` returns the transfer, a kernel event that fires at
    completion (value = bytes moved).  Its ``start - submitted`` is the
    time it queued behind *this stream's* earlier transfers, read once it
    has completed: under fair sharing that start is fixed only once the
    shares stop moving, so no wait is projected at submit.  Other
    streams' traffic shows up as a lower drain rate, not as queueing --
    the slowdown term of the wait the link books per class.
    """

    __slots__ = (
        "link", "tag", "cls", "sink", "total_bytes", "transfer_count",
        "wait_seconds", "transfers", "_chain", "_order", "_vdrain",
    )

    def __init__(
        self, link: "SharedLink", tag: Hashable, cls: str, sink: Optional[ExactSums] = None
    ) -> None:
        self.link = link
        self.tag = tag
        self.cls = cls
        #: creation rank on the link: breaks ties between equal virtual
        #: drains, and orders :meth:`SharedLink.busy_streams`
        self._order = len(link._streams)
        #: optional sink the completion-time wait is added into
        #: (``sink.add(cls, wait)``): the fabric's ``link_wait_by_class``
        self.sink = sink
        self.total_bytes = 0
        self.transfer_count = 0
        #: own-queue time plus fair-sharing slowdown, booked at completion
        self.wait_seconds = 0.0
        #: completed ``(start, finish, nbytes)`` in completion order, kept
        #: only if :func:`BandwidthPipe` asked (a run completes millions)
        self.transfers: Optional[List[Tuple[float, float, float]]] = None
        #: the transfers not yet drained: the head drains, the rest queue
        self._chain: Deque[_Transfer] = deque()
        #: the head's virtual drain (its key in the link's heap)
        self._vdrain = 0.0

    def transfer(self, nbytes) -> Event:
        """Move ``nbytes`` on this stream; returns the completion event."""
        return self.link._submit(self, nbytes)


class SharedLink:
    """A link whose capacity is divided max-min fair among busy streams."""

    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.0) -> None:
        positive("bandwidth", bandwidth)
        nonnegative("latency", latency)
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._streams: Dict[Hashable, Stream] = {}
        #: ``(virtual drain, creation rank, stream)`` per busy stream
        self._heads: List[Tuple[float, int, Stream]] = []
        #: the virtual clock: ``_v`` bytes of service per busy stream at ``_vt``
        self._v = 0.0
        self._vt = 0.0
        #: when the busy count last moved (a head that started no earlier
        #: drains at one share)
        self._changed = 0.0
        #: the head that drains first, and its projected drain
        self._earliest: Optional[_Transfer] = None
        self._next_drain = _NEVER
        #: drained transfers in their latency tails, in drain order
        self._drained: Deque[_Transfer] = deque()
        #: the transfer that holds the link's one kernel entry
        self._armed: Optional[_Transfer] = None
        #: every transfer's first callback, bound once
        self._hook = self._complete
        self.total_bytes = 0
        self.transfer_count = 0
        self.bytes_by_class: Dict[str, float] = {}
        self.wait_by_class: Dict[str, float] = {}

    # -- streams -----------------------------------------------------------

    def stream(
        self, tag: Hashable, cls: str = "collective", sink: Optional[ExactSums] = None
    ) -> Stream:
        """The flow endpoint keyed ``tag`` (created on first use).  Asking
        for an existing tag under another class is refused: its bytes
        would be booked under the class it was created with."""
        s = self._streams.get(tag)
        if s is None:
            s = self._streams[tag] = Stream(self, tag, cls, sink)
        elif s.cls != cls:
            raise ValueError(f"stream {tag!r} carries class {s.cls!r}, not {cls!r}")
        elif sink is not None and s.sink is None:
            s.sink = sink
        return s

    def streams(self) -> List[Stream]:
        return list(self._streams.values())

    def busy_streams(self) -> List[Stream]:
        """The streams with a transfer draining now, in creation order: the
        engine's own busy set, caught up to the current instant."""
        now = self.env._now
        if self._next_drain <= now:
            self._advance(now)
        if not self._heads:
            return []
        return sorted([s for _v, _o, s in self._heads], key=_CREATION)

    # -- engine ------------------------------------------------------------

    def _submit(self, stream: Stream, nbytes) -> Event:
        env = self.env
        now = env._now
        if nbytes == 0:
            # free zero-byte fast path: no bytes, no accounting, no log
            return Timeout(env, 0.0, 0.0)
        if not nbytes > 0:
            raise ValueError(f"cannot transfer {nbytes!r} bytes")
        self.total_bytes += nbytes
        self.transfer_count += 1
        self.bytes_by_class[stream.cls] = self.bytes_by_class.get(stream.cls, 0.0) + nbytes
        stream.total_bytes += nbytes
        stream.transfer_count += 1
        if self._next_drain <= now:
            self._advance(now)
        t = _Transfer(stream, float(nbytes), now)
        chain = stream._chain
        chain.append(t)
        if len(chain) > 1:  # a FIFO append moves no share and no entry
            return t
        heads = self._heads
        # a stream opens: V catches up at the old rate, the head enters at V + bytes
        n = len(heads)
        if not n:
            self._v = 0.0
            self._vt = now
        elif now > self._vt:  # never past the earliest head, not drained yet
            self._v = min(self._v + (now - self._vt) * (self.bandwidth / n), heads[0][0])
            self._vt = now
        stream._vdrain = self._v + t.nbytes
        heappush(heads, (stream._vdrain, stream._order, stream))
        self._changed = now
        if n:
            self._advance(now)
        else:  # alone: the earliest head, at project's floats
            seconds = t.nbytes / self.bandwidth
            t.drain = now + seconds
            t.finish = now + self.latency + seconds
            self._earliest = t
            self._next_drain = t.drain
        self._arm()
        return t

    def _advance(self, until: float) -> None:
        """Drain every head due by ``until``, in virtual-drain order, and
        project the earliest head left (``_earliest``, ``_next_drain``).
        Heads that share a virtual drain leave together, in stream creation
        order, before the busy count moves."""
        heads = self._heads
        drained = self._drained
        bandwidth, latency = self.bandwidth, self.latency
        while heads:
            vdrain, _o, s = heads[0]
            head = s._chain[0]
            share = bandwidth / len(heads)
            changed = self._changed
            if head.start >= changed:
                # its share has not moved since it started: project's floats
                seconds = head.nbytes / share
                at = head.start + seconds
                finish = head.start + latency + seconds
            else:
                at = self._vt + (vdrain - self._v) / share
                finish = at + latency
            if at > until:
                self._next_drain = head.drain = at
                head.finish = finish
                self._earliest = head
                return
            emptied = False
            while heads and heads[0][0] == vdrain:
                _v, order, s = heappop(heads)
                chain = s._chain
                t = chain.popleft()
                t.drain = at
                if t.start >= changed:
                    seconds = t.nbytes / share
                    t.finish = t.start + latency + seconds
                    t.wait = (t.start - t.submitted) + (seconds - t.nbytes / bandwidth)
                    t.kept = t.submitted >= changed
                else:  # the share moved while it drained
                    t.kept = False
                    t.finish = at + latency
                    t.wait = (t.start - t.submitted) + ((at - t.start) - t.nbytes / bandwidth)
                drained.append(t)
                if chain:
                    # the stream's next transfer starts draining now
                    chain[0].start = at
                    s._vdrain = vdrain + chain[0].nbytes
                    heappush(heads, (s._vdrain, order, s))
                else:
                    emptied = True
            self._v = vdrain
            self._vt = at
            if emptied:
                self._changed = at
        self._next_drain = _NEVER

    def _arm(self) -> None:
        """Give the link's one kernel entry to its next completion, the
        oldest drained transfer, else the earliest head: under the id it
        took at submit if its share never moved since, else a fresh one."""
        drained = self._drained
        if drained:
            nxt = drained[0]
            kept = nxt.kept
        elif self._heads:
            nxt = self._earliest
            kept = nxt.submitted >= self._changed
        else:
            return
        env = self.env
        now = env._now
        at = nxt.submitted + (nxt.finish - nxt.submitted)
        if at < now:
            at = now
        armed = self._armed
        if nxt is armed:
            if not drained:  # the earliest head's projection moved
                env._requeue(nxt, at)
            return
        if armed is not None:  # overtaken: withdrawn
            env._requeue(armed, None)
        self._armed = nxt
        env._requeue(nxt, at, nxt._eid if kept else None)

    def _complete(self, t: _Transfer) -> None:
        # ``t`` held the entry: it has drained, or is the earliest head and
        # its entry may lie an ulp short of its drain: catch up to that
        until = self.env._now
        if t.drain > until:
            until = t.drain
        if self._next_drain <= until:
            self._advance(until)
        # completions leave in drain order, and ``t`` is the oldest
        self._drained.popleft()
        self._armed = None
        self._arm()
        stream = t.stream
        if stream.transfers is not None:
            stream.transfers.append((t.start, t.finish, t.nbytes))
        wait = t.wait
        stream.wait_seconds += wait
        self.wait_by_class[stream.cls] = self.wait_by_class.get(stream.cls, 0.0) + wait
        if stream.sink is not None:
            stream.sink.add(stream.cls, wait)


def BandwidthPipe(
    env: Environment, bandwidth: float, latency: float = 0.0, record: bool = True
) -> Stream:
    """A FIFO bandwidth server (a node's disk): the one stream of a private
    :class:`SharedLink`.

    A transfer of ``n`` bytes starts once everything queued before it has
    drained, drains for ``n / bandwidth`` seconds and completes one
    ``latency`` later (propagation delay: queued transfers overlap their
    latencies, they never serialize).  ``record`` keeps the stream's
    per-transfer log (:attr:`Stream.transfers`); the scalar totals
    ``total_bytes`` / ``transfer_count`` are kept either way.
    """
    stream = SharedLink(env, bandwidth, latency).stream("fifo")
    if record:
        stream.transfers = []
    return stream


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
    #: difference array over *interior* buckets a segment fully covers:
    #: one prefix-sum sweep recovers their volume, O(1) per segment
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
        # the final bucket ends at the horizon: normalize by the width
        # covered, or the tail throughput is underreported
        width = min(horizon, (i + 1) * bucket) - i * bucket
        series.append((i * bucket, v / width if width > 0 else 0.0))
    return series
