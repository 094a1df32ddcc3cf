"""Stream-aware shared links: fluid max-min fair bandwidth sharing.

The one byte mover of the simulator.  A :class:`SharedLink` models one
physical link (a NIC, an NVLink lane, a node's storage device) carrying
any number of concurrent *flows*.  Each :class:`Stream` is one
flow endpoint -- a collective ring pass, a tenant's remote-storage loader
path, a checkpoint writer -- tagged with a traffic class
(``collective`` / ``loader`` / ``checkpoint``).  Transfers submitted on
one stream are FIFO among themselves (per-stream FIFO); *across* streams
the link divides its capacity max-min fair: ``n`` streams with a transfer
draining each drain at ``bandwidth / n``.

A transfer has two transitions.  It *drains* when its last byte leaves
the sender: at that instant it leaves the fair share, and its stream's
next transfer, if any, starts draining.  It *completes* exactly
``latency`` later (``project``'s ``finish``), and a drained transfer is
never re-timed: latency is a delay line, not a flow.  A stream is busy
while a transfer of it drains -- the one definition the engine, the
collapse probe (:meth:`SharedLink.busy_streams`) and :func:`project`
share.

A node's disk is one FIFO stream on a private link
(:func:`BandwidthPipe`): every tenant of the node queues on that stream,
so the disk serves reads in submission order, while tenants sharing a
NIC share it max-min fair.  Which of the two a disk should do is an open
model decision (DESIGN "Multi-tenant scenarios").  A stream built that
way logs each completed transfer as ``(start, finish, nbytes)`` in
:attr:`Stream.transfers`, the data behind the disk-throughput series
(:func:`throughput_series`, paper Fig. 10).

Equivalence contracts (pinned by ``tests/test_links.py`` and the kernel
equivalence grid):

* **single stream == FIFO watermark**: while only one stream has
  in-flight work the link is the analytic FIFO server bit-for-bit --
  ``start = max(now, prev_drain)``, ``finish = start + latency + nbytes /
  (bandwidth / 1)``, one kernel event per transfer -- against the
  watermark referee kept in ``tests/helpers``, ``sim_events`` included;
* **G symmetric streams == bw/G closed form**: G streams submitting
  equal chunks at the same instant all finish at ``start + latency +
  chunk / (bandwidth / G)`` -- what the homogeneous-rank fast path gets
  from :func:`project` for the link parameters
  ``Topology.collapse_schedule`` hands it.

A transfer is its own completion event, queued the moment its finish is
projectable and *re-queued* when its projection moves --
:meth:`Environment._requeue` gives it a fresh scheduling id, and the
entry that carried the old one is skipped by the kernel when it surfaces
(``events_skipped``, never ``events_processed``).  A drain is no event
at all.  Every completion on a link lands one ``latency`` after its
drain, so completions arrive in drain order; between two link events (a
completion or a submit) shares change only at drains, and only upwards.
The first drain after a link event is therefore projected exactly, and
every later one completes no earlier than it.  So :meth:`_advance`, run
at each link event, replays the drains since the last one in time order
and re-queues the completions that moved, each to an instant at or after
now: the catch-up is exact without an event per drain.

Per-class accounting: the link counts ``total_bytes`` / ``transfer_count``
/ ``bytes_by_class`` at submit time, and at each
transfer's completion attributes its queue wait plus its slowdown versus
an idle link, ``(drain - start) - nbytes / bandwidth``, to the stream's
class, both on the stream and into the stream's optional ``sink`` dict
(the fabric / job-level ``link_wait_by_class`` aggregator).  A transfer
that drained at one share throughout books :func:`project`'s ``excess``
for that share, the same float the collapsed collective adds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from .kernel import Environment, Event, Timeout

__all__ = ["SharedLink", "Stream", "BandwidthPipe", "project", "throughput_series"]

_NEVER = float("inf")


def project(
    anchor: float, nbytes: float, bandwidth: float, latency: float, streams: int = 1
) -> Tuple[float, float, float]:
    """The link model's closed form, written once: ``(drain, finish, excess)``
    of ``nbytes`` draining from ``anchor`` on a link of ``bandwidth`` split
    equally among ``streams`` busy streams.

    ``drain`` frees the stream for its next transfer, ``finish`` adds the
    latency tail, ``excess`` is the fair-sharing slowdown versus an idle
    link (exactly ``0.0`` for one stream: ``bandwidth / 1 == bandwidth``).
    The engine below and the collapsed collective fast path
    (:meth:`~repro.sim.fabric.RingFabric._collapse_decider`) both call it,
    so their floats agree by construction; the operand order is pinned by
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

    __slots__ = (
        "stream",
        "nbytes",
        "remaining",
        "anchor",
        "start",
        "submitted",
        "streams",
        "drain",
        "finish",
        "timer_at",
    )

    def __init__(self, stream: "Stream", nbytes: float, now: float) -> None:
        link = stream.link
        # Event.__init__'s fields, set here directly (one per transfer)
        self.env = link.env
        self.callbacks = [link._hook]
        self._value = nbytes
        self._ok = True
        self._defused = False
        self._eid = 0
        self.stream = stream
        self.nbytes = nbytes
        #: bytes left to drain as of ``anchor`` (queued transfers keep the
        #: full size; only a chain head actually drains)
        self.remaining = nbytes
        #: time ``remaining`` refers to: the instant the share last moved
        #: while this transfer drained, else its (projected) start
        self.anchor = now
        self.start = now
        self.submitted = now
        #: busy streams sharing the link as of the last projection
        self.streams = 1
        self.drain = now
        self.finish = now
        #: instant the event is queued for, ``None`` until first queued
        #: (``finish`` runs ahead of it while a settle pass is pending)
        self.timer_at: Optional[float] = None


class Stream:
    """One flow endpoint on a :class:`SharedLink`.

    :meth:`transfer` returns a kernel event that fires at completion
    (value = bytes moved) and :attr:`backlog` is the seconds of queued
    work ahead on *this stream* -- other streams' traffic shows up as a
    lower drain rate, not as backlog, which is exactly the
    decomposition the per-class wait accounting reports.
    """

    __slots__ = (
        "link",
        "tag",
        "cls",
        "sink",
        "total_bytes",
        "transfer_count",
        "wait_seconds",
        "transfers",
        "_chain",
        "_order",
    )

    def __init__(
        self,
        link: "SharedLink",
        tag: Hashable,
        cls: str,
        sink: Optional[Dict[str, float]] = None,
    ) -> None:
        self.link = link
        self.tag = tag
        self.cls = cls
        #: creation rank on the link: the link walks its busy streams in
        #: this order
        self._order = len(link._streams)
        #: optional dict the completion-time excess is accumulated into
        #: (``sink[cls] += excess``): the fabric / job-level per-class
        #: ``link_wait_by_class`` aggregator
        self.sink = sink
        self.total_bytes = 0
        self.transfer_count = 0
        #: completion-attributed wait: own-queue time plus fair-sharing
        #: slowdown versus an idle link, in seconds
        self.wait_seconds = 0.0
        #: completed transfers as ``(start, finish, nbytes)``, in completion
        #: order; ``None`` (no log) unless :func:`BandwidthPipe` asked for
        #: one -- a benchmark-scale run completes millions
        self.transfers: Optional[List[Tuple[float, float, float]]] = None
        #: the transfers not yet drained: the head drains, the rest queue
        self._chain: Deque[_Transfer] = deque()

    @property
    def backlog(self) -> float:
        """Seconds until this stream's queued work drains (projected)."""
        link = self.link
        now = link.env.now
        if link._next_drain <= now:
            link._advance(now)
        return self._chain[-1].drain - now if self._chain else 0.0

    def transfer(self, nbytes) -> Event:
        """Move ``nbytes`` on this stream; returns the completion event."""
        return self.link._submit(self, nbytes)


class SharedLink:
    """A link whose capacity is divided max-min fair among busy streams."""

    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency!r}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._streams: Dict[Hashable, Stream] = {}
        #: the streams with a transfer draining, in stream-creation order
        #: (the order every sweep visits them in); its length is the
        #: fair-share divisor
        self._busy: List[Stream] = []
        #: the earliest projected drain among the busy streams' heads
        self._next_drain = _NEVER
        #: every transfer's first callback, bound once
        self._hook = self._complete
        #: a zero-delay settle event is pending at the current instant
        self._settle_armed = False
        self.total_bytes = 0
        self.transfer_count = 0
        self.bytes_by_class: Dict[str, float] = {}
        self.wait_by_class: Dict[str, float] = {}

    # -- streams -----------------------------------------------------------

    def stream(
        self,
        tag: Hashable,
        cls: str = "collective",
        sink: Optional[Dict[str, float]] = None,
    ) -> Stream:
        """The flow endpoint keyed ``tag`` (created on first use).  Asking
        for an existing tag under another class is refused: its bytes
        would be booked under the class it was created with."""
        s = self._streams.get(tag)
        if s is None:
            s = Stream(self, tag, cls, sink)
            self._streams[tag] = s
        else:
            if s.cls != cls:
                raise ValueError(
                    f"stream {tag!r} carries class {s.cls!r}, not {cls!r}"
                )
            if sink is not None and s.sink is None:
                s.sink = sink
        return s

    def streams(self) -> List[Stream]:
        return list(self._streams.values())

    def busy_streams(self) -> List[Stream]:
        """The streams with a transfer draining now: the engine's own busy
        set, caught up to the current instant."""
        now = self.env.now
        if self._next_drain <= now:
            self._advance(now)
        return list(self._busy)

    # -- engine ------------------------------------------------------------

    def _submit(self, stream: Stream, nbytes) -> Event:
        env = self.env
        now = env.now
        if nbytes == 0:
            # free zero-byte fast path: no bytes, no accounting, no log
            return Timeout(env, 0.0, 0.0)
        if not nbytes > 0:
            raise ValueError(f"cannot transfer {nbytes!r} bytes")
        self.total_bytes += nbytes
        self.transfer_count += 1
        self.bytes_by_class[stream.cls] = (
            self.bytes_by_class.get(stream.cls, 0.0) + nbytes
        )
        stream.total_bytes += nbytes
        stream.transfer_count += 1
        if self._next_drain <= now:
            self._advance(now)
        t = _Transfer(stream, float(nbytes), now)
        chain = stream._chain
        chain.append(t)
        busy = self._busy
        if len(chain) > 1:
            # same-stream FIFO append: nobody's fair share moves, so only
            # the new tail is projected, chained at its predecessor's drain
            # (still ahead: ``_advance`` took every drain up to now)
            t.anchor = t.start = chain[-2].drain
            t.streams = len(busy)
            t.drain, t.finish, _ = project(
                t.anchor, t.remaining, self.bandwidth, self.latency, t.streams
            )
        else:
            # a stream opens work: keep the busy list in creation order
            i = len(busy)
            while i and busy[i - 1]._order > stream._order:
                i -= 1
            busy.insert(i, stream)
            self._reproject(now)
            if len(busy) > 1 and not self._settle_armed:
                # every other share moved: their completions are re-queued
                # once per instant, by a zero-delay settle event, so a burst
                # of k same-instant submits costs one sweep, not k.  Safe:
                # every projection left fires after now
                self._settle_armed = True
                settle = Event(env)
                settle.callbacks.append(self._settle)
                settle.succeed()
        self._set_timer(t, now)
        return t

    def _advance(self, until: float) -> None:
        """Replay, in time order, the drains due by ``until`` (callers skip
        the call while ``_next_drain`` lies ahead): each drained head
        leaves its chain (its completion stays as projected; it is
        re-queued only if a replayed drain before it moved it), and each
        drain that empties a stream re-projects the others from that
        instant.  Every completion that moved is re-queued before this
        returns."""
        now = self.env.now
        busy = self._busy
        moved = False
        while self._next_drain <= until:
            at = self._next_drain
            emptied = False
            for s in busy:
                chain = s._chain
                t = chain[0]
                if t.drain == at:
                    # the stream's next transfer, projected from this very
                    # drain, starts draining at ``at``.  A completion being
                    # delivered (an ulp of rounding may have moved it) stays
                    chain.popleft()
                    if t.timer_at != t.finish and not t.processed:
                        self._set_timer(t, now)
                    emptied = emptied or not chain
            if emptied:
                busy[:] = [s for s in busy if s._chain]
                self._reproject(at, rising=True)
                moved = True
            else:
                self._next_drain = min(s._chain[0].drain for s in busy)
        if moved:
            self._retime(now)

    def _reproject(self, at: float, rising: bool = False) -> None:
        """Re-derive every busy chain's projection at the current fair share,
        the heads settled up to ``at`` (the instant the share moved).  In a
        catch-up (``rising``) shares only rose, so no projection moves
        later: a revision that rounds later keeps the old one, and a
        completion that fired finds its transfer drained."""
        bandwidth, latency = self.bandwidth, self.latency
        n = len(self._busy)
        next_drain = _NEVER
        for s in self._busy:
            prev: Optional[_Transfer] = None
            for t in s._chain:
                if prev is not None:
                    t.anchor = t.start = prev.drain
                elif at > t.anchor:
                    t.remaining = max(
                        0.0, t.remaining - (at - t.anchor) * (bandwidth / t.streams)
                    )
                    t.anchor = at
                t.streams = n
                drain, finish, _ = project(
                    t.anchor, t.remaining, bandwidth, latency, n
                )
                if not rising or drain <= t.drain:
                    t.drain, t.finish = drain, finish
                prev = t
            if s._chain[0].drain < next_drain:
                next_drain = s._chain[0].drain
        self._next_drain = next_drain

    def _settle(self, _event: Event) -> None:
        """End-of-instant sweep after a burst of submits."""
        self._settle_armed = False
        self._retime(self.env.now)

    def _retime(self, now: float) -> None:
        """Align every queued completion with its projection in one pass."""
        for s in self._busy:
            for t in s._chain:
                if t.timer_at != t.finish:
                    self._set_timer(t, now)

    def _set_timer(self, t: _Transfer, now: float) -> None:
        """Queue ``t`` to complete at its projected finish (never before
        ``now``): one fresh scheduling id, any entry it had is superseded."""
        t.timer_at = t.finish
        delay = t.finish - now
        if delay < 0.0:
            delay = 0.0
        self.env._requeue(t, delay)

    def _complete(self, t: _Transfer) -> None:
        # ``t`` has drained: the catch-up takes it off its chain.  Its
        # delay was ``finish - now``, and ``now + (finish - now)`` may land
        # an ulp short of ``finish``, which is ``drain`` at zero latency
        until = self.env.now
        if t.drain > until:
            until = t.drain
        if self._next_drain <= until:
            self._advance(until)
        stream = t.stream
        if stream.transfers is not None:
            stream.transfers.append((t.start, t.finish, t.nbytes))
        if t.anchor == t.start:
            excess = (t.start - t.submitted) + project(
                t.start, t.nbytes, self.bandwidth, self.latency, t.streams
            )[2]
        else:
            # the share moved while it drained
            excess = (t.start - t.submitted) + (
                (t.drain - t.start) - t.nbytes / self.bandwidth
            )
        stream.wait_seconds += excess
        self.wait_by_class[stream.cls] = (
            self.wait_by_class.get(stream.cls, 0.0) + excess
        )
        sink = stream.sink
        if sink is not None:
            sink[stream.cls] = sink.get(stream.cls, 0.0) + excess


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
