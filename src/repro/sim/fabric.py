"""Collective layer: modelled ring collectives over a topology.

The closed-form :class:`~repro.sim.distributed.AllReduceModel` charges every
rank the same per-step constant, so a straggler's lateness (or a mid-step
failure) is averaged away: it can never delay one ring neighbor more than
another.  This module replaces the constant with *simulated transfers* over
the links a :class:`~repro.sim.topology.Topology` owns.

The stack has three layers:

* **topology** (:mod:`repro.sim.topology`): owns the
  :class:`~repro.sim.links.SharedLink` s and plans which ring
  phases one all-reduce traverses (:class:`~repro.sim.topology.FlatRing`:
  one world-wide ring; :class:`~repro.sim.topology.Hierarchical`:
  intra-node reduce -> inter-node ring all-reduce -> intra-node broadcast);
  each fabric member sends on its own collective-class
  :class:`~repro.sim.links.Stream`, contending max-min fair with whatever
  other streams (other members, other tenants, loader misses, checkpoint
  writes) share the physical link;
* **collectives** (this module): composable ring primitives --
  :meth:`RingFabric.reduce_scatter` and :meth:`RingFabric.all_gather`, each
  ``W - 1`` ring stages of ``nbytes / W`` chunks -- with
  :meth:`RingFabric.allreduce` executing the topology's phase plan;
* **step loop** (:mod:`repro.sim.distributed`): spawns one collective per
  gradient bucket, optionally overlapping them with backprop.

At ring stage ``s`` each rank sends one chunk to its ring successor and
cannot enter stage ``s+1`` until it has both finished its own send and
received its predecessor's stage-``s`` chunk.  Consequences the closed form
cannot express:

* on a homogeneous cluster where every rank enters together, the flat
  collective takes exactly ``2(W-1) * (latency + nbytes / (W * bandwidth))``
  -- the closed-form :meth:`AllReduceModel.step_cost` -- and the hierarchical
  one exactly :meth:`AllReduceModel.hierarchical_step_cost`; tests
  cross-check both;
* a rank that enters late delays its *successor* first, and the delay
  propagates one hop per stage around the ring (neighbor coupling);
* a rank that dies mid-collective stalls its successor until the failure
  detector fires (``detection_timeout``), after which its undelivered chunks
  are filled in -- the surviving ring re-forms instead of deadlocking, and
  collectives created after the abort exclude the dead rank entirely.  The
  detector fill-in, :meth:`RingFabric.abort` and the sweep apply *per
  sub-collective*, so a hierarchical all-reduce's intra and inter rings each
  unblock independently.

Members are opaque hashables; the distributed runner uses ``(node, gpu)``
tuples (the hierarchical topology requires them).  Collectives are keyed by
``(round, step, bucket)`` so ranks that drift ahead of each other (there is
no global barrier in fabric mode) still join the right collective.

**Homogeneous-rank collapse** (``collapse=True``): when every ring member
enters a collective at the same instant and the fabric is quiescent (no
churn, no simulated collective in flight, every link idle), a lockstep
all-reduce advances all ``W`` ranks through identical per-stage timing --
so one representative rank's timeline, replicated by the topology's
:meth:`~repro.sim.topology.Topology.collapse_schedule` with bit-identical
float arithmetic, is the whole collective.  The fast path registers every
entrant, decides at the entry instant (a zero-delay decision event fires
after all same-instant arrivals), and either walks the representative
schedule once (``O(stages)`` events instead of ``O(W x stages)`` simulated
transfers) or releases every entrant, still at the entry instant, into the
exact per-rank path.  Fallback triggers on ragged arrival, members whose
ring passes differ (heterogeneous links, ragged groups), a zero-byte
collective, churn (any dead member), concurrent simulated collectives,
busy links, or an entrant that was told overlap may bleed into the next
collective (``collapse_ok=False``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Hashable, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .kernel import Environment, Event
from .links import project
from .topology import CollapsePhase, FlatRing, RingPhase, Topology

__all__ = ["RingFabric", "RingCollective"]


class RingCollective:
    """One in-flight ring pass: delivery events per (stage, sender).

    A flat all-reduce is two of these (reduce-scatter + all-gather over the
    world ring); a hierarchical one adds intra-node and inter-node
    sub-rings, each with its own ``RingCollective``.
    """

    def __init__(self, fabric: "RingFabric", ring: Iterable[Hashable]) -> None:
        self.fabric = fabric
        #: ring order snapshotted at creation; every participant of this
        #: collective derives its predecessor from the same snapshot
        self.ring = list(ring)
        self._deliveries: Dict[Tuple[int, Hashable], Event] = {}
        self._finished: set = set()

    def delivery(self, stage: int, sender: Hashable) -> Event:
        """The event 'sender's stage-``stage`` chunk reached its successor'.

        Created lazily; if the sender is already dead the event resolves via
        the fabric's failure detector instead of a transfer.
        """
        event = self._deliveries.get((stage, sender))
        if event is None:
            event = self.fabric.env.event()
            self._deliveries[(stage, sender)] = event
            death = self.fabric.dead.get(sender)
            if death is not None:
                self.fabric._fill_in(
                    event, death, self.fabric._fill_delay.get(sender, 0.0)
                )
        return event

    @property
    def survivors(self) -> set:
        return {m for m in self.ring if m not in self.fabric.dead}


class _CollapseEntry:
    """Registration state of one potentially-collapsed collective."""

    __slots__ = ("t0", "ring", "nbytes", "waiters", "allowed", "collapsed")

    def __init__(self, t0: float, ring: List[Hashable], nbytes: float) -> None:
        self.t0 = t0
        self.ring = ring
        self.nbytes = nbytes
        #: member -> the event its entrant blocks on; succeeds with True
        #: (collapsed, resume at the collective's end) or False (fall back
        #: to the per-rank path, resume still at t0)
        self.waiters: Dict[Hashable, Event] = {}
        self.allowed = True
        self.collapsed = False


class RingFabric:
    """Simulated collectives over a mutable membership and a topology.

    ``topology`` defaults to a :class:`~repro.sim.topology.FlatRing` built
    from ``latency`` / ``bandwidth`` -- the pre-refactor behaviour, byte-
    and stage-identical to the old monolithic ring all-reduce.
    """

    def __init__(
        self,
        env: Environment,
        latency: float,
        bandwidth: float,
        gradient_bytes: float,
        detection_timeout: float = 1.0,
        topology: Optional[Topology] = None,
        collapse: bool = False,
        partitions: Optional[Any] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth!r}")
        if latency < 0 or gradient_bytes < 0 or detection_timeout < 0:
            raise ConfigurationError(
                "latency, gradient_bytes and detection_timeout must be >= 0"
            )
        self.env = env
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.gradient_bytes = float(gradient_bytes)
        self.detection_timeout = float(detection_timeout)
        self.topology = (
            topology if topology is not None else FlatRing(env, latency, bandwidth)
        )
        #: dead member -> virtual death time (failure detector anchor)
        self.dead: Dict[Hashable, float] = {}
        #: dead member -> how long after death its chunks fill in
        #: (detection_timeout for failures, 0 for graceful exits)
        self._fill_delay: Dict[Hashable, float] = {}
        self._ring: List[Hashable] = []
        #: (key, phase tag) -> in-flight ring pass
        self._collectives: Dict[Any, RingCollective] = {}
        #: key -> (membership snapshot, members finished with the whole
        #: collective): all phases of one collective must derive their
        #: sub-rings from the same snapshot even if membership mutates
        #: while ranks are mid-collective
        self._snapshots: Dict[Any, Tuple[List[Hashable], set]] = {}
        #: homogeneous-rank collapse enabled (the elastic runner toggles
        #: this per round: off whenever a fail event is armed)
        self.collapse = bool(collapse)
        #: collectives served by the collapsed fast path (observability:
        #: tests assert the fast path engaged -- or stayed out)
        self.collapsed_collectives = 0
        #: key -> registration entry of a not-yet-completed fast-path try
        self._pending_collapse: Dict[Any, _CollapseEntry] = {}
        #: (collective bytes, ring length) -> the ring's collapse plan, so
        #: the O(W^2) derivation runs once per ring, not per collective.
        #: Safe to keep: ``set_ring`` empties it, and the only other way
        #: the ring changes (``_remove``) makes ``dead`` non-empty, which
        #: vetoes every collapse until the next ``set_ring``
        self._plans: Dict[Tuple[float, int], Optional[List[CollapsePhase]]] = {}
        #: partition schedule (an object answering
        #: ``partition_release(now, node_a, node_b)`` -- in practice the
        #: cluster's :class:`~repro.sim.cluster.ClusterMembership`); a
        #: delivery crossing an active cut stalls until the window heals
        #: instead of the ring aborting.  None: deliveries land inline,
        #: byte-identical to the pre-partition fabric.
        self.partitions = partitions
        #: seconds this fabric's sends queued behind other traffic on
        #: their links before starting (cross-job link contention plus any
        #: same-job overlap backlog)
        self.link_wait_seconds = 0.0
        #: completion-attributed per-class link wait (the collective-class
        #: sink of this fabric's streams: own-stream queueing plus
        #: fair-sharing slowdown versus an idle link; the collapsed fast
        #: path replays its stages into the same dict bit-for-bit)
        self.link_wait_by_class: Dict[str, float] = {}
        #: collapse attempts vetoed because loader/checkpoint (or another
        #: tenant's non-collective) traffic was in flight on a link the
        #: collective would use -- the fast path assumes idle links, so
        #: cross-class contention deactivates it (counted, not silent)
        self.collapse_cross_vetoes = 0
        #: seconds of delivery stall injected by partition windows
        self.partition_stall_seconds = 0.0

    # -- membership --------------------------------------------------------

    @property
    def ring(self) -> List[Hashable]:
        return list(self._ring)

    def set_ring(self, members: Iterable[Hashable]) -> None:
        """Install the ring for subsequently created collectives.

        Resets the dead set: the caller's member list is authoritative for
        the new ring (an elastic runner re-forms the ring every epoch from
        its live membership; ranks that merely finished early last epoch
        rejoin, failed nodes are simply not listed)."""
        self.dead = {}
        self._fill_delay = {}
        self._ring = list(members)
        self._plans = {}

    def abort(self, member: Hashable) -> None:
        """Remove ``member`` on failure without deadlocking any ring.

        Collectives created afterwards exclude it; its undelivered chunks in
        in-flight collectives are filled in once the failure detector fires
        (``detection_timeout`` after the abort), so ring neighbors stall for
        the detection window -- not forever.
        """
        self._remove(member, self.detection_timeout)

    def leave(self, member: Hashable) -> None:
        """Remove ``member`` gracefully (budget exhausted / early exit): its
        undelivered chunks fill in immediately, so neighbors only ever wait
        for work that is actually outstanding."""
        self._remove(member, 0.0)

    def _remove(self, member: Hashable, fill_delay: float) -> None:
        if member in self.dead:
            return
        death = self.env.now
        self.dead[member] = death
        self._fill_delay[member] = fill_delay
        self._ring = [m for m in self._ring if m != member]
        for collective in list(self._collectives.values()):
            for (_stage, sender), event in collective._deliveries.items():
                if sender == member and not event.triggered:
                    self._fill_in(event, death, fill_delay)
        self._sweep()

    def _fill_in(
        self, event: Event, death_time: float, fill_delay: float
    ) -> None:
        """Resolve a dead sender's delivery after its fill-in window."""
        delay = max(0.0, death_time + fill_delay - self.env.now)

        def detector() -> Generator:
            if delay > 0:
                yield self.env.timeout(delay)
            if not event.triggered:
                event.succeed()

        self.env.process(detector())

    # -- delivery (partition-aware) ----------------------------------------

    @staticmethod
    def _member_node(member: Hashable) -> Hashable:
        """The node a ring member lives on ((node, gpu) ranks; plain
        hashables are their own node)."""
        if isinstance(member, tuple) and len(member) == 2:
            return member[0]
        return member

    def _deliver(
        self, event: Event, sender: Hashable, receiver: Hashable
    ) -> None:
        """Land ``sender``'s finished chunk at ``receiver``.

        Without partitions this succeeds the delivery inline -- no extra
        kernel event, byte-identical to the pre-partition fabric.  A
        delivery crossing an active partition window stalls until the
        window heals: the receiver waits, nothing aborts, and once healed
        the ring resumes where it stopped.
        """
        if self.partitions is None:
            event.succeed()
            return
        release = self.partitions.partition_release(
            self.env.now,
            self._member_node(sender),
            self._member_node(receiver),
        )
        if release <= self.env.now:
            event.succeed()
            return
        self.partition_stall_seconds += release - self.env.now
        delay = release - self.env.now

        def stalled() -> Generator:
            yield self.env.timeout(delay)
            # a failure-detector fill-in may have landed the chunk while
            # the cut was open; a delivery only ever succeeds once
            if not event.triggered:
                event.succeed()

        self.env.process(stalled())

    # -- links -------------------------------------------------------------

    def link(self, member: Hashable, scope: str = "inter"):
        """``member``'s outgoing link (owned by the topology)."""
        return self.topology.link(member, scope)

    # -- ring primitives ---------------------------------------------------

    def _snapshot(self, key: Any) -> Tuple[List[Hashable], set]:
        entry = self._snapshots.get(key)
        if entry is None:
            entry = (list(self._ring), set())
            self._snapshots[key] = entry
        return entry

    def _ring_pass(
        self, key: Any, phase: RingPhase, member: Hashable
    ) -> Generator:
        """Run ``member``'s sends/receives of one ring pass (a process).

        ``W - 1`` stages; at each stage the member sends one
        ``nbytes / W`` chunk on its ``phase.scope`` link and waits for its
        ring predecessor's chunk before entering the next stage.
        """
        ckey = (key, phase.tag)
        collective = self._collectives.get(ckey)
        if collective is None:
            collective = RingCollective(self, phase.ring)
            self._collectives[ckey] = collective
        ring = collective.ring
        world = len(ring)
        if world <= 1 or member not in ring:
            self._retire(ckey, collective, member)
            return
        position = ring.index(member)
        predecessor = ring[position - 1]
        successor = ring[(position + 1) % world]
        chunk = phase.nbytes / world
        stream = self.topology.stream(
            member,
            phase.scope,
            cls="collective",
            tenant=self,
            sink=self.link_wait_by_class,
        )
        for stage in range(world - 1):
            backlog = stream.backlog
            if backlog > 0:
                self.link_wait_seconds += backlog
            send_done = stream.transfer(chunk)
            mine = collective.delivery(stage, member)
            recv = collective.delivery(stage, predecessor)
            yield send_done
            if not mine.triggered:
                self._deliver(mine, member, successor)
            if not recv.triggered:
                yield recv
        self._retire(ckey, collective, member)

    def reduce_scatter(
        self, key: Any, member: Hashable, nbytes: Optional[float] = None
    ) -> Generator:
        """One ring reduce-scatter over the current membership (a process).

        ``W - 1`` stages; afterwards each rank holds one reduced
        ``nbytes / W`` shard.  Composable: ``allreduce`` is reduce-scatter
        followed by all-gather over the same snapshot.
        """
        ring, finished = self._snapshot(key)
        nbytes = self.gradient_bytes if nbytes is None else float(nbytes)
        yield from self._ring_pass(
            key, RingPhase("rs", tuple(ring), "reduce_scatter", nbytes, "inter"),
            member,
        )
        self._finish(key, ring, finished, member)

    def all_gather(
        self, key: Any, member: Hashable, nbytes: Optional[float] = None
    ) -> Generator:
        """One ring all-gather over the current membership (a process).

        ``W - 1`` stages re-replicating ``nbytes / W`` shards to every
        rank."""
        ring, finished = self._snapshot(key)
        nbytes = self.gradient_bytes if nbytes is None else float(nbytes)
        yield from self._ring_pass(
            key, RingPhase("ag", tuple(ring), "all_gather", nbytes, "inter"),
            member,
        )
        self._finish(key, ring, finished, member)

    # -- the collective ----------------------------------------------------

    def allreduce(
        self,
        key: Any,
        member: Hashable,
        nbytes: Optional[float] = None,
        collapse_ok: bool = True,
    ) -> Generator:
        """Participate in the all-reduce ``key`` as ``member`` (a process).

        All ranks calling with the same ``key`` join one collective whose
        membership is snapshotted from :meth:`set_ring` at first entry; the
        topology maps that snapshot to this member's ring phases (flat: one
        world ring, reduce-scatter + all-gather; hierarchical: intra-node
        reduce -> inter-node ring all-reduce -> intra-node broadcast).
        ``nbytes`` overrides the fabric's full ``gradient_bytes`` (the step
        loop passes one bucket's slice).  Returns when this rank has
        completed every stage of every phase.

        With :attr:`collapse` on, a homogeneous all-entered-together
        collective is served by one representative-rank schedule instead of
        ``W`` simulated ring processes (see the module docstring);
        ``collapse_ok=False`` vetoes the fast path for this collective (the
        step loop passes it when a bucket's collective may still be in
        flight when the next one launches -- the collapsed path assumes
        idle links, so such overlap must run the exact path).
        """
        ring, finished = self._snapshot(key)
        nbytes = self.gradient_bytes if nbytes is None else float(nbytes)
        if len(ring) > 1 and member in ring:
            served = False
            if self.collapse:
                served = yield from self._collapsed_allreduce(
                    key, ring, member, nbytes, collapse_ok
                )
            if not served:
                for phase in self.topology.phases(ring, member, nbytes):
                    yield from self._ring_pass(key, phase, member)
        self._finish(key, ring, finished, member)

    # -- homogeneous-rank collapse -----------------------------------------

    def _collapse_quiescent(self) -> bool:
        """No churn, no simulated collective in flight, every link idle --
        the state from which a lockstep collective is provably identical to
        the per-rank simulation (and after which it leaves every link
        idle-equivalent again: a link's owner only sends once its previous
        collective finished, by which time the link had drained)."""
        if self.dead or self._collectives:
            return False
        if self.partitions is not None:
            # a partition window can open mid-walk; the representative
            # schedule cannot model a stalled cross-cut delivery
            return False
        for link in self.topology._links.values():
            for busy in link.busy_streams():
                if busy.cls != "collective":
                    # loader/checkpoint traffic in flight on a shared
                    # link: the closed form cannot price the fluid
                    # cross-class interleaving -- deactivate, counted
                    self.collapse_cross_vetoes += 1
                return False
        return True

    def _collapse_plan(
        self, ring: List[Hashable], nbytes: float
    ) -> Optional[List[CollapsePhase]]:
        key = (nbytes, len(ring))
        if key not in self._plans:
            self._plans[key] = self.topology.collapse_schedule(ring, nbytes)
        return self._plans[key]

    def collapse_seconds(self, nbytes: float) -> float:
        """Seconds one all-reduce of ``nbytes`` over the installed ring takes
        when every rank enters together on idle links -- its collapse plan,
        each pass priced by :func:`~repro.sim.links.project` -- or ``inf``
        when the ring is not collapsible."""
        plan = self._collapse_plan(self._ring, nbytes)
        if plan is None:
            return float("inf")
        return sum(
            stages * project(0.0, chunk, bandwidth, latency, streams)[1]
            for stages, _scope, chunk, bandwidth, latency, streams, _fanout in plan
        )

    def _collapsed_allreduce(
        self,
        key: Any,
        ring: List[Hashable],
        member: Hashable,
        nbytes: float,
        collapse_ok: bool,
    ) -> Generator:
        """Try the fast path; returns True iff it served this member."""
        entry = self._pending_collapse.get(key)
        if entry is None:
            if self._pending_collapse or not self._collapse_quiescent():
                return False
            entry = _CollapseEntry(self.env.now, list(ring), nbytes)
            self._pending_collapse[key] = entry
            self.env.process(self._collapse_decider(key, entry))
        if not collapse_ok or nbytes != entry.nbytes:
            entry.allowed = False
        wait = self.env.event()
        entry.waiters[member] = wait
        outcome = yield wait
        return bool(outcome)

    def _collapse_decider(self, key: Any, entry: _CollapseEntry) -> Generator:
        # a zero-delay NORMAL event: every entrant arriving at the same
        # instant was scheduled before it, so by the time this fires the
        # registration window is closed
        yield self.env.timeout(0.0)
        schedule = None
        if (
            entry.allowed
            and len(entry.waiters) == len(entry.ring)
            and self._collapse_quiescent()
        ):
            schedule = self._collapse_plan(entry.ring, entry.nbytes)
        if schedule is None:
            # ragged arrival / heterogeneity / churn: release every entrant
            # into the exact per-rank path, still at the entry instant
            self._pending_collapse.pop(key, None)
            for wait in entry.waiters.values():
                wait.succeed(False)
            return
        entry.collapsed = True
        self.collapsed_collectives += 1
        # one representative rank's lockstep timeline.  ``drained`` is its
        # per-scope stream's drain watermark (a send starts at max(now,
        # watermark), as on a live stream) and the link layer's closed
        # form prices each stage, so the resume instants match the
        # simulation bit-for-bit.  Each stage also replays the engine's
        # completion-time per-class wait attribution: ``fanout`` member
        # transfers, each adding the same fair-sharing ``excess`` the live
        # path would have accumulated (in the same order, so float sums
        # agree exactly with the uncollapsed run).
        drained: Dict[str, float] = {}
        wait = self.link_wait_by_class
        for stages, scope, chunk, bandwidth, latency, streams, fanout in schedule:
            for _stage in range(stages):
                now = self.env.now
                drained[scope], finish, excess = project(
                    max(now, drained.get(scope, now)),
                    chunk, bandwidth, latency, streams,
                )
                if excess:
                    for _ in range(fanout):
                        wait["collective"] = wait.get("collective", 0.0) + excess
                else:
                    # zero excess still creates the key the live engine's
                    # completion hook would have written
                    wait["collective"] = wait.get("collective", 0.0)
                yield self.env.timeout(finish - now)
        # defense in depth: a member removed mid-flight would have stalled
        # the simulated ring until its chunks filled in; never complete
        # before the latest fill-in window (unreachable under the runner's
        # gating -- every ring member is blocked in this collective)
        while True:
            horizon = self.env.now
            for ring_member in entry.ring:
                death = self.dead.get(ring_member)
                if death is not None:
                    fill = death + self._fill_delay.get(ring_member, 0.0)
                    if fill > horizon:
                        horizon = fill
            if horizon <= self.env.now:
                break
            yield self.env.timeout(horizon - self.env.now)
        self._pending_collapse.pop(key, None)
        for wait in entry.waiters.values():
            if not wait.triggered:
                wait.succeed(True)

    # -- retirement --------------------------------------------------------

    def _finish(
        self, key: Any, ring: List[Hashable], finished: set, member: Hashable
    ) -> None:
        """Mark ``member`` done with collective ``key``; drop the snapshot
        once every survivor of it has finished."""
        finished.add(member)
        survivors = {m for m in ring if m not in self.dead}
        if survivors <= finished:
            self._snapshots.pop(key, None)

    def _retire(self, ckey: Any, collective: RingCollective, member: Hashable) -> None:
        collective._finished.add(member)
        if collective.survivors <= collective._finished:
            self._collectives.pop(ckey, None)

    def _sweep(self) -> None:
        """Drop collectives/snapshots whose survivors have all finished."""
        done = [
            ckey
            for ckey, col in self._collectives.items()
            if col.survivors <= col._finished
        ]
        for ckey in done:
            self._collectives.pop(ckey, None)
        stale = [
            key
            for key, (ring, finished) in self._snapshots.items()
            if {m for m in ring if m not in self.dead} <= finished
        ]
        for key in stale:
            self._snapshots.pop(key, None)

    @property
    def in_flight(self) -> int:
        """Number of collectives not yet completed by every survivor."""
        return len(self._snapshots)
