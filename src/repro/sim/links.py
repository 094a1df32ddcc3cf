"""Stream-aware shared links: fluid max-min fair bandwidth sharing.

A :class:`SharedLink` models one physical link (a NIC, an NVLink lane)
carrying any number of concurrent *flows*.  Each :class:`Stream` is one
flow endpoint -- a collective ring pass, a tenant's remote-storage loader
path, a checkpoint writer -- tagged with a traffic class
(``collective`` / ``loader`` / ``checkpoint``).  Transfers submitted on
one stream are FIFO among themselves (per-stream FIFO); *across* streams
the link divides its capacity max-min fair: ``n`` streams with queued
work each drain at ``bandwidth / n``, and rates are recomputed
event-driven whenever a stream opens work on an idle queue or drains its
last transfer.

Equivalence contracts (pinned by ``tests/test_links.py`` and the kernel
equivalence grid):

* **single stream == legacy pipe**: while only one stream has in-flight
  work the link reproduces :class:`~repro.sim.resources.BandwidthPipe`
  timing bit-for-bit -- same float expressions (``start = max(now,
  prev_drain)``, ``finish = start + latency + nbytes / (bandwidth / 1)``,
  one kernel timer per transfer), so flat rings and intra-node links are
  byte-identical to the pre-refactor model, including ``sim_events``;
* **G symmetric streams == bw/G closed form**: G streams submitting
  equal chunks at the same instant all finish at ``start + latency +
  chunk / (bandwidth / G)`` -- exactly the steady-state fair share the
  hierarchical topology used to bake into per-member pipe bandwidth, and
  exactly what the homogeneous-rank fast path gets from :func:`project`
  for the link parameters ``Topology.collapse_schedule`` hands it.

The fluid revision trick: a transfer is its own completion event, queued
the moment its finish time is projectable and *re-queued* when the fair
share changes -- :meth:`Environment._requeue` gives it a fresh scheduling
id, and the entry that carried the old one is lazily skipped by the
kernel when it surfaces (``events_skipped``, never ``events_processed``).
Subscribers stay on the one event, so a caller that yields it late still
waits for the completion, and event counts are identical to the legacy
one-timer-per-transfer model whenever no revision happens.  A transfer
that is past its drain point but still inside its latency tail continues
to count as an active flow until its timer fires; the resulting slight
under-estimate of the other flows' rates is the documented approximation
of this fluid model (exact whenever drains are synchronized, i.e. in
both pinned regimes above).

Per-class accounting: the link counts ``total_bytes`` / ``transfer_count``
/ ``bytes_by_class`` at submit time (like the legacy pipe), and at each
transfer's completion attributes ``excess = queue_wait + (nbytes / share
- nbytes / bandwidth)`` -- time lost to own-stream queueing plus
fair-sharing slowdown relative to an idle link -- to the stream's class,
both on the stream and into the stream's optional ``sink`` dict (the
fabric / job-level ``link_wait_by_class`` aggregator).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from .kernel import Environment, Event, Timeout

__all__ = ["SharedLink", "Stream", "project"]


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
    the single-stream == ``BandwidthPipe`` equivalence.
    """
    share = bandwidth / streams
    seconds = nbytes / share
    return anchor + seconds, anchor + latency + seconds, seconds - nbytes / bandwidth


class _Transfer(Event):
    """One in-flight (or stream-queued) transfer on a shared link, and its
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
        "done",
    )

    def __init__(self, stream: "Stream", nbytes: float, now: float) -> None:
        link = stream.link
        # Event.__init__'s fields, set here directly (one per transfer)
        self.env = link.env
        self.callbacks = [link._hook]
        self._value = nbytes
        self._ok = True
        self._defused = False
        self._dead = False
        self._eid = 0
        self.stream = stream
        self.nbytes = nbytes
        #: bytes left to drain as of ``anchor`` (queued transfers keep the
        #: full size; only a chain head actually drains)
        self.remaining = nbytes
        #: time ``remaining`` refers to; for a queued transfer this is its
        #: *projected* start (the predecessor's projected drain)
        self.anchor = now
        self.start = now
        self.submitted = now
        #: busy streams sharing the link as of the last projection
        self.streams = 1
        self.drain = now
        self.finish = now
        #: instant the event is queued for, ``None`` until first queued
        #: (``finish`` may run ahead of it while a same-instant settle pass
        #: is pending)
        self.timer_at: Optional[float] = None
        self.done = False


class Stream:
    """One flow endpoint on a :class:`SharedLink`.

    Duck-types the legacy pipe surface the layers above consume:
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
        self._chain: Deque[_Transfer] = deque()

    @property
    def backlog(self) -> float:
        """Seconds until this stream's queued work drains (projected)."""
        if not self._chain:
            return 0.0
        return max(0.0, self._chain[-1].drain - self.link.env.now)

    def transfer(self, nbytes) -> Event:
        """Move ``nbytes`` on this stream; returns the completion event."""
        return self.link._submit(self, nbytes)


class SharedLink:
    """A link whose capacity is divided max-min fair among active streams."""

    def __init__(self, env: Environment, bandwidth: float, latency: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency!r}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._streams: Dict[Hashable, Stream] = {}
        #: the streams with a non-empty chain, in stream-creation order (the
        #: order every sweep visits them in); its length is the fair-share
        #: divisor
        self._busy: List[Stream] = []
        #: every transfer's first callback, bound once
        self._hook = self._complete
        #: a zero-delay settle event is pending at the current instant
        self._settle_armed = False
        #: instant the last retire-and-settle sweep ran (the sweep is
        #: idempotent within an instant, so repeats are skipped)
        self._advanced_at = -1.0
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

    # -- quiescence probe --------------------------------------------------

    def busy_streams(self) -> List[Stream]:
        """Streams with work still *draining* (latency tails excluded,
        matching the legacy ``_available_at > now`` probe semantics)."""
        now = self.env.now
        return [s for s in self._busy if s._chain[-1].drain > now]

    # -- engine ------------------------------------------------------------

    def _submit(self, stream: Stream, nbytes) -> Event:
        env = self.env
        now = env.now
        if nbytes == 0:
            # free zero-byte fast path (legacy pipe parity: no accounting)
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
        n_before = len(self._busy)
        self._advance(now)
        t = _Transfer(stream, float(nbytes), now)
        chain = stream._chain
        chain.append(t)
        busy = self._busy
        if len(chain) == 1:
            # a stream opens work: keep the busy list in creation order
            i = len(busy)
            while i and busy[i - 1]._order > stream._order:
                i -= 1
            busy.insert(i, stream)
        n_after = len(busy)
        if n_after != n_before:
            self._reproject(now)
            if t.timer_at is None:
                # the settle pass is batched per instant, but the caller
                # needs this transfer's completion queued right now
                self._set_timer(t, t.finish, now)
        else:
            # same-stream FIFO append: nobody's fair share changed, so only
            # the new tail needs projecting -- chained at the predecessor's
            # projected drain with the legacy watermark arithmetic
            if len(chain) > 1:
                t.anchor = t.start = max(now, chain[-2].drain)
            t.streams = n_after
            t.drain, finish, _ = project(
                t.anchor, t.remaining, self.bandwidth, self.latency, n_after
            )
            self._set_timer(t, finish, now)
        return t

    def _advance(self, now: float) -> None:
        """Retire transfers whose completion is due and settle the drains
        of the surviving chain heads up to ``now``.

        Idempotent within an instant, so repeat sweeps at the same ``now``
        return immediately: no time has elapsed to settle, and anything
        that came due meanwhile has its own event firing this instant
        (retired by :meth:`_complete` directly)."""
        if now == self._advanced_at:
            return
        self._advanced_at = now
        drained = False
        for s in self._busy:
            chain = s._chain
            while chain and chain[0].finish <= now:
                self._finish(chain.popleft())
            if chain:
                head = chain[0]
                if now > head.anchor:
                    share = self.bandwidth / head.streams
                    head.remaining = max(
                        0.0, head.remaining - (now - head.anchor) * share
                    )
                    head.anchor = now
            else:
                drained = True
        if drained:
            self._busy = [s for s in self._busy if s._chain]

    def _reproject(self, now: float) -> None:
        """Re-derive every projection at the current fair share and re-queue
        the completion events whose finish time moved.  Called only while
        some stream is busy (an idle link has nothing to re-project).

        With more than one active stream the re-queues are *batched*: the
        projections (share / drain / finish) are revised synchronously, but
        the kernel entries are brought up to date by a single zero-delay
        settle event at the end of the current instant, so a burst of k
        same-instant submits costs one sweep instead of k.  This is safe
        because :meth:`_advance` has already retired everything due at
        ``now`` -- every surviving entry fires strictly in the future,
        after the settle.  With one active stream (the legacy-pipe parity
        regime) events are still re-queued inline, keeping the event trace
        bit-identical to :class:`~repro.sim.resources.BandwidthPipe`."""
        busy = self._busy
        n = len(busy)
        defer = n > 1
        dirty = False
        for s in busy:
            prev: Optional[_Transfer] = None
            for t in s._chain:
                if prev is None:
                    if t.timer_at is not None and t.finish <= now:
                        # due this instant (its event fires later in the
                        # same step): already drained, never revise it
                        # backwards
                        prev = t
                        continue
                else:
                    t.anchor = t.start = max(now, prev.drain)
                t.streams = n
                t.drain, finish, _ = project(
                    t.anchor, t.remaining, self.bandwidth, self.latency, n
                )
                if finish != t.finish or t.timer_at is None:
                    if defer:
                        t.finish = finish
                        dirty = True
                    else:
                        self._set_timer(t, finish, now)
                prev = t
        if dirty and not self._settle_armed:
            self._settle_armed = True
            settle = Event(self.env)
            settle.callbacks.append(self._settle)
            settle.succeed()

    def _settle(self, _event: Event) -> None:
        """End-of-instant sweep: align every queued completion with its
        (possibly repeatedly revised) projection in one pass."""
        self._settle_armed = False
        now = self.env.now
        for s in self._busy:
            for t in s._chain:
                if t.timer_at != t.finish:
                    self._set_timer(t, t.finish, now)

    def _set_timer(self, t: _Transfer, finish: float, now: float) -> None:
        """Queue ``t`` to complete at ``finish``: one fresh scheduling id,
        whatever entry it had before is superseded."""
        t.finish = t.timer_at = finish
        delay = finish - now
        if delay < 0.0:
            delay = 0.0
        self.env._requeue(t, delay)

    def _complete(self, t: _Transfer) -> None:
        if t.done:
            return
        now = self.env.now
        n_before = len(self._busy)
        self._advance(now)
        if not t.done:
            # defensive: the event fired but the sweep didn't retire it
            # (float drift put finish an ulp past now) -- retire directly
            chain = t.stream._chain
            if chain and chain[0] is t:
                chain.popleft()
                if not chain:
                    self._busy.remove(t.stream)
            self._finish(t)
        n = len(self._busy)
        if n != n_before and n:
            self._reproject(now)

    def _finish(self, t: _Transfer) -> None:
        if t.done:
            return
        t.done = True
        stream = t.stream
        excess = (t.start - t.submitted) + project(
            t.start, t.nbytes, self.bandwidth, self.latency, t.streams
        )[2]
        stream.wait_seconds += excess
        self.wait_by_class[stream.cls] = (
            self.wait_by_class.get(stream.cls, 0.0) + excess
        )
        sink = stream.sink
        if sink is not None:
            sink[stream.cls] = sink.get(stream.cls, 0.0) + excess

