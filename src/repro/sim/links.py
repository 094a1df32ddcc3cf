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

The fluid revision trick: a transfer's completion timer is scheduled the
moment its finish time is projectable, and *re-projected* when the fair
share changes -- the old timer's callbacks migrate to a new timer and the
old one is lazily skipped by the kernel (``events_skipped``, never
``events_processed``), which keeps event counts identical to the legacy
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


class _Transfer:
    """One in-flight (or stream-queued) transfer on a shared link."""

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
        "timer",
        "timer_at",
        "done",
    )

    def __init__(self, stream: "Stream", nbytes: float, now: float) -> None:
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
        self.timer: Optional[Timeout] = None
        #: absolute fire time of ``timer`` (``finish`` may run ahead of it
        #: while a same-instant settle pass is pending)
        self.timer_at = now
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

    def transfer(self, nbytes) -> Timeout:
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
        #: number of streams with a non-empty chain, maintained
        #: incrementally (the engine consults it on every submit)
        self._active = 0
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
        """The flow endpoint keyed ``tag`` (created on first use)."""
        s = self._streams.get(tag)
        if s is None:
            s = Stream(self, tag, cls, sink)
            self._streams[tag] = s
        elif sink is not None and s.sink is None:
            s.sink = sink
        return s

    def streams(self) -> List[Stream]:
        return list(self._streams.values())

    # -- quiescence probe --------------------------------------------------

    def busy_streams(self) -> List[Stream]:
        """Streams with work still *draining* (latency tails excluded,
        matching the legacy ``_available_at > now`` probe semantics)."""
        now = self.env.now
        return [
            s
            for s in self._streams.values()
            if s._chain and s._chain[-1].drain > now
        ]

    # -- engine ------------------------------------------------------------

    def _n_active(self) -> int:
        return self._active

    def _submit(self, stream: Stream, nbytes) -> Timeout:
        env = self.env
        now = env.now
        if nbytes == 0:
            # free zero-byte fast path (legacy pipe parity: no accounting)
            return Timeout(env, 0.0, 0.0)
        self.total_bytes += nbytes
        self.transfer_count += 1
        self.bytes_by_class[stream.cls] = (
            self.bytes_by_class.get(stream.cls, 0.0) + nbytes
        )
        stream.total_bytes += nbytes
        stream.transfer_count += 1
        n_before = self._active
        self._advance(now)
        t = _Transfer(stream, float(nbytes), now)
        chain = stream._chain
        chain.append(t)
        if len(chain) == 1:
            self._active += 1
        n_after = self._active
        if n_after != n_before:
            self._reproject(now)
            if t.timer is None:
                # the settle pass is batched per instant, but the caller
                # needs this transfer's completion event right now
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
        return t.timer

    def _advance(self, now: float) -> None:
        """Retire transfers whose completion is due and settle the drains
        of the surviving chain heads up to ``now``.

        Idempotent within an instant, so repeat sweeps at the same ``now``
        return immediately: no time has elapsed to settle, and anything
        that came due meanwhile has its own timer firing this instant
        (retired by :meth:`_complete` directly)."""
        if now == self._advanced_at:
            return
        self._advanced_at = now
        for s in self._streams.values():
            chain = s._chain
            if not chain:
                continue
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
                self._active -= 1

    def _reproject(self, now: float) -> None:
        """Re-derive every projection at the current fair share and migrate
        completion timers whose finish time moved.

        With more than one active stream the timer migrations are *batched*:
        the projections (share / drain / finish) are revised synchronously,
        but the kernel timers are brought up to date by a single zero-delay
        settle event at the end of the current instant, so a burst of k
        same-instant submits costs one migration sweep instead of k.  This
        is safe because :meth:`_advance` has already retired everything due
        at ``now`` -- every surviving timer fires strictly in the future,
        after the settle.  With one active stream (the legacy-pipe parity
        regime) timers are still set inline, keeping the event trace
        bit-identical to :class:`~repro.sim.resources.BandwidthPipe`."""
        n = self._active
        if n == 0:
            return
        defer = n > 1
        dirty = False
        for s in self._streams.values():
            prev: Optional[_Transfer] = None
            for t in s._chain:
                if prev is None:
                    if t.timer is not None and t.finish <= now:
                        # due this instant (timer fires later in the same
                        # step): already drained, never revise it backwards
                        prev = t
                        continue
                else:
                    t.anchor = t.start = max(now, prev.drain)
                t.streams = n
                t.drain, finish, _ = project(
                    t.anchor, t.remaining, self.bandwidth, self.latency, n
                )
                if finish != t.finish or t.timer is None:
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
        """End-of-instant sweep: align every live timer with its (possibly
        repeatedly revised) projection in one pass."""
        self._settle_armed = False
        now = self.env.now
        for s in self._streams.values():
            for t in s._chain:
                if t.timer is None or t.timer_at != t.finish:
                    self._set_timer(t, t.finish, now)

    def _set_timer(self, t: _Transfer, finish: float, now: float) -> None:
        t.finish = finish
        t.timer_at = finish
        delay = finish - now
        if delay < 0.0:
            delay = 0.0
        timer = Timeout(self.env, delay, t.nbytes)
        old = t.timer
        if old is None:
            timer.callbacks.append(lambda _event, t=t: self._complete(t))
        else:
            # migrate subscribers (the completion hook plus any waiting
            # process) onto the revised timer; the stale one is lazily
            # skipped by the kernel without being processed
            timer.callbacks.extend(old.callbacks or ())
            old.callbacks = []
            old._dead = True
            # keep interrupt bookkeeping coherent: a process waiting on the
            # old timer must see the revised one as its target, or an
            # interrupt would leave a stale resume behind on the new timer
            for cb in timer.callbacks:
                waiter = getattr(cb, "__self__", None)
                if waiter is not None and getattr(waiter, "_target", None) is old:
                    waiter._target = timer
        t.timer = timer

    def _complete(self, t: _Transfer) -> None:
        if t.done:
            return
        now = self.env.now
        n_before = self._n_active()
        self._advance(now)
        if not t.done:
            # defensive: the timer fired but the sweep didn't retire it
            # (float drift put finish an ulp past now) -- retire directly
            chain = t.stream._chain
            if chain and chain[0] is t:
                chain.popleft()
                if not chain:
                    self._active -= 1
            self._finish(t)
        if self._n_active() != n_before:
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
