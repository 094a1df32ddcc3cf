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
  one world-wide ring, reduce-scatter then all-gather;
  :class:`~repro.sim.topology.Hierarchical`: intra-node reduce ->
  inter-node ring all-reduce -> intra-node broadcast); each fabric member
  sends on its own collective-class :class:`~repro.sim.links.Stream`,
  contending max-min fair with whatever other streams (other members, other
  tenants, loader misses, checkpoint writes) share the physical link;
* **collectives** (this module): :meth:`RingFabric.start` drives one
  member through the topology's phase plan and returns the event that
  fires when it is done; each ring pass is a :class:`RingCollective`
  (``W - 1`` stages of ``nbytes / W`` chunks);
* **step loop** (:mod:`repro.sim.distributed`): starts one collective per
  gradient bucket, optionally overlapping them with backprop.

At ring stage ``s`` each rank sends one ``nbytes / W`` chunk to its ring
successor and cannot enter stage ``s+1`` until it has both finished its own
send and received its predecessor's stage-``s`` chunk.  Consequences the
closed form cannot express:

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
  fill-in, :meth:`RingFabric.abort` and the sweep apply *per
  sub-collective*, so a hierarchical all-reduce's intra and inter rings each
  unblock independently.

**Collectives as state machines.**  No process runs a ring pass.  A
:class:`RingCollective` holds, per member, the stage it is in, the chunks
that have landed at their receivers and whether it is waiting for its
predecessor's chunk.  A member's next send is submitted from the
link-completion callback of its previous one; a receiver that is waiting
when the chunk it needs lands is woken through one zero-delay event (the
event the waiting process used to resume on, so same-instant order is
kept); the fill-in of a dead sender's chunks and a partition-stalled
delivery are timer callbacks.  Every transfer is submitted at the same
virtual instant, on the same stream, as by the per-rank generators this
replaces (``tests/helpers.GeneratorRingFabric``, the specification the
state machine is held to), so no virtual time moves.

Members are opaque hashables; the distributed runner uses ``(node, gpu)``
tuples (the hierarchical topology requires them).  Collectives are keyed by
``(round, step, bucket)`` so ranks that drift ahead of each other (there is
no global barrier in fabric mode) still join the right collective.

**Homogeneous-rank collapse** (``collapse=True``): when every ring member
enters a collective at the same instant on idle links, a lockstep
all-reduce advances all ``W`` ranks through identical per-stage timing --
so one representative rank's timeline, replicated by the topology's
:meth:`~repro.sim.topology.Topology.collapse_schedule` with bit-identical
float arithmetic, is the whole collective.  The fast path registers every
entrant, decides at the entry instant (a zero-delay decision event fires
after all same-instant arrivals), and either walks the representative
schedule once -- priced in a local loop and waited out with one kernel
timer, instead of ``O(W x stages)`` simulated transfers -- or starts every
entrant's per-rank run, still at the entry instant.  The caller states
only what it alone knows: :attr:`RingFabric.collapse` (off while a failure
may strike) and, per entrant, a ``deadline`` by which its next collective
may enter the same links.  The fabric decides everything else, checking
in this order:

1. another collective's decider is pending (one at a time);
2. a member is dead (churn) or a per-rank collective is in flight;
3. a partition schedule is attached (a window may open mid-walk);
4. another fabric rides the topology (its future traffic is invisible);
5. a link is busy -- a non-collective flow counts in
   :attr:`RingFabric.collapse_cross_vetoes`;
6. at the decision: an entrant is missing (ragged arrival) or moves other
   bytes, or one of 2-5 fails again;
7. members' ring passes differ (heterogeneous links, ragged groups) or
   there are no bytes to move;
8. the walk does not end strictly before the earliest entrant deadline.

Checks 1-5 run when the first entrant registers; a collective that fails
one runs per rank without a decider.  After 6-8 fail, every entrant
begins per rank at the entry instant.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Generator,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..contracts import nonnegative
from ..engine.metrics import ExactSums
from .kernel import Environment, Event, Interrupt, Timeout
from .links import project
from .topology import CollapsePhase, FlatRing, Topology

__all__ = ["RingFabric", "RingCollective"]


class _Snapshot:
    """The membership one collective was created with, and who finished it.

    Every phase of one collective derives its sub-rings from the same
    snapshot even if membership mutates while ranks are mid-collective."""

    __slots__ = ("ring", "members", "finished")

    def __init__(self, ring: Tuple[Hashable, ...], members: FrozenSet) -> None:
        self.ring = ring
        self.members = members
        self.finished: set = set()

    def finish(self, member: Hashable, dead: Dict[Hashable, float]) -> bool:
        """Mark ``member`` done; True once every survivor is (O(1) while
        nobody is dead)."""
        if member in self.members:
            self.finished.add(member)
        return _complete(self.ring, self.finished, dead)


def _complete(ring: Sequence[Hashable], finished: set, dead: Dict) -> bool:
    """Has every survivor of ``ring`` finished?  ``finished`` only ever
    holds members of ``ring``, so with nobody dead a count decides."""
    if not dead:
        return len(finished) == len(ring)
    return all(m in finished or m in dead for m in ring)


class _Run:
    """One member's way through one collective: the topology's phase plan,
    the ring pass it is in and its stage there, and the event its caller
    waits on."""

    __slots__ = (
        "fabric", "key", "member", "snapshot", "nbytes", "done", "cancelled",
        "plan", "phase", "collective", "predecessor", "stream", "chunk",
        "stage", "last",
    )

    def __init__(
        self, fabric: "RingFabric", key: Any, member: Hashable,
        snapshot: _Snapshot, nbytes: float,
    ) -> None:
        self.fabric = fabric
        self.key = key
        self.member = member
        self.snapshot = snapshot
        self.nbytes = nbytes
        self.done = Event(fabric.env)
        self.cancelled = False
        self.plan: Sequence = ()
        self.phase = -1
        self.collective: Optional[RingCollective] = None
        self.stage = -1

    def begin(self) -> None:
        """Start the per-rank run: the first send of the first ring pass is
        submitted before this returns."""
        self.plan = self.fabric.topology.phases(
            self.snapshot.ring, self.member, self.nbytes
        )
        self.next_phase()

    def finish(self) -> None:
        self.fabric._finish(self.key, self.snapshot, self.member)
        self.done.succeed()

    def cancel(self) -> None:
        """Stop: no further send, no further delivery.  A send in flight
        still drains on its link."""
        self.cancelled = True
        collective = self.collective
        if collective is not None:
            waiting = collective.waiting
            if waiting.get(self.predecessor) is self:
                del waiting[self.predecessor]

    def next_phase(self) -> None:
        """Enter the next ring pass of the plan (skipping those this member
        has no stage in), or finish."""
        fabric = self.fabric
        member = self.member
        while True:
            self.phase += 1
            if self.phase == len(self.plan):
                self.collective = None
                self.finish()
                return
            phase = self.plan[self.phase]
            collective = fabric._collective((self.key, phase.tag), phase.ring)
            ring = collective.ring
            position = collective.position.get(member)
            if len(ring) <= 1 or position is None:
                collective.retire(member)
                continue
            self.collective = collective
            self.predecessor = ring[position - 1]
            self.chunk = phase.nbytes / len(ring)
            self.last = len(ring) - 2
            self.stream = fabric.topology.stream(
                member,
                phase.scope,
                cls="collective",
                tenant=fabric,
                sink=fabric.link_wait_by_class,
            )
            self.stage = 0
            collective.runs[member] = self
            self.send()
            return

    def send(self) -> None:
        """Enter the current stage: submit this member's chunk."""
        sent = self.stream.transfer(self.chunk)
        if self.fabric.dead:
            self.collective.ask_dead(self)
        sent.callbacks.append(self._sent)

    def _sent(self, sent: Event) -> None:
        """Link completion of this stage's send: book the time it queued
        before starting, land the chunk, then move on if the predecessor's
        chunk is in, else wait for it."""
        if self.cancelled:
            return
        if self.chunk > 0:  # a zero-byte send is a free timer, with no queue
            self.fabric.link_wait_seconds += sent.start - sent.submitted
        collective = self.collective
        stage = self.stage
        self.fabric._deliver(collective, stage, self.member)
        if collective.has(stage, self.predecessor):
            self.advance()
        else:
            collective.waiting[self.predecessor] = self

    def _woken(self, _event: Event) -> None:
        if not self.cancelled:
            self.advance()

    def advance(self) -> None:
        if self.stage < self.last:
            self.stage += 1
            self.send()
        else:
            self.collective.retire(self.member)
            self.next_phase()


class RingCollective:
    """One ring pass of one collective, as a labelled transition system.

    Per member: its run (and through it the stage it is in), how many of
    its chunks have landed at its successor, and -- keyed by the sender it
    waits on -- whether it is blocked on its predecessor's chunk.  A flat
    all-reduce is two of these (reduce-scatter + all-gather over the world
    ring); a hierarchical one adds intra-node and inter-node sub-rings,
    each with its own ``RingCollective``.
    """

    __slots__ = (
        "fabric", "ckey", "ring", "position", "runs", "landed", "early",
        "waiting", "finished",
    )

    def __init__(
        self, fabric: "RingFabric", ckey: Any, ring: Iterable[Hashable]
    ) -> None:
        self.fabric = fabric
        self.ckey = ckey
        #: ring order snapshotted at creation; every participant of this
        #: collective derives its predecessor from the same snapshot
        self.ring = tuple(ring)
        self.position = {m: i for i, m in enumerate(self.ring)}
        #: member -> its run, kept after the run moves on (see entered)
        self.runs: Dict[Hashable, _Run] = {}
        #: sender -> number of its chunks landed, stages 0.. in order
        self.landed: Dict[Hashable, int] = {}
        #: (stage, sender) landed ahead of an earlier stage of the same
        #: sender (fill-in and partition timers need not fire in order)
        self.early: set = set()
        #: sender -> the run blocked on that sender's chunk of its stage
        self.waiting: Dict[Hashable, _Run] = {}
        self.finished: set = set()

    # -- chunks ------------------------------------------------------------

    def has(self, stage: int, sender: Hashable) -> bool:
        """Has ``sender``'s stage-``stage`` chunk reached its successor?"""
        return stage < self.landed.get(sender, 0) or (
            bool(self.early) and (stage, sender) in self.early
        )

    def land(self, stage: int, sender: Hashable) -> None:
        """``sender``'s stage-``stage`` chunk reaches its successor (once);
        a successor blocked on exactly it is woken by one zero-delay
        event."""
        count = self.landed.get(sender, 0)
        if stage < count:
            return
        if stage == count:
            count += 1
            early = self.early
            while early and (count, sender) in early:
                early.discard((count, sender))
                count += 1
            self.landed[sender] = count
        elif (stage, sender) in self.early:
            return
        else:
            self.early.add((stage, sender))
        run = self.waiting.get(sender)
        if run is not None and run.stage == stage:
            del self.waiting[sender]
            wake = Event(self.fabric.env)
            wake.callbacks.append(run._woken)
            wake.succeed()

    def _released(self, timer: Timeout) -> None:
        """A partition-stalled delivery's window healed."""
        self.land(*timer._value)

    # -- dead senders ------------------------------------------------------

    def entered(self, member: Hashable) -> int:
        """The last stage ``member`` entered in this pass (-1: none)."""
        run = self.runs.get(member)
        if run is None:
            return -1
        return run.stage if run.collective is self else len(self.ring) - 2

    def successor(self, member: Hashable) -> Hashable:
        return self.ring[(self.position[member] + 1) % len(self.ring)]

    def ask_dead(self, run: _Run) -> None:
        """``run`` entered a stage: a delivery it is the first to need
        from a dead sender -- its own, or its predecessor's -- is filled in
        once that sender's fill-in window closes."""
        fabric = self.fabric
        stage = run.stage
        for sender, other in (
            (run.member, self.successor(run.member)),
            (run.predecessor, run.predecessor),
        ):
            death = fabric.dead.get(sender)
            if death is not None and self.entered(other) < stage:
                self.fill(sender, (stage,), death, fabric._fill_delay[sender])

    def fill_pending(
        self, sender: Hashable, death: float, fill_delay: float
    ) -> None:
        """``sender`` just died: every chunk of it somebody has needed
        and that has not landed is filled in after ``fill_delay``."""
        if sender not in self.position:
            return
        # asked for by the sender itself, or by its successor, at stage entry
        asked = 1 + max(
            self.entered(sender), self.entered(self.successor(sender))
        )
        stages = tuple(s for s in range(asked) if not self.has(s, sender))
        if stages:
            self.fill(sender, stages, death, fill_delay)

    def fill(
        self, sender: Hashable, stages: Tuple[int, ...], death: float,
        fill_delay: float,
    ) -> None:
        delay = max(0.0, death + fill_delay - self.fabric.env.now)
        if delay > 0:
            timer = Timeout(self.fabric.env, delay, (sender, stages))
            timer.callbacks.append(self._filled)
            return
        for stage in stages:
            self.land(stage, sender)

    def _filled(self, timer: Timeout) -> None:
        sender, stages = timer._value
        for stage in stages:
            self.land(stage, sender)

    # -- retirement --------------------------------------------------------

    def retire(self, member: Hashable) -> None:
        if member in self.position:
            self.finished.add(member)
        if self.complete():
            self.fabric._collectives.pop(self.ckey, None)

    def complete(self) -> bool:
        return _complete(self.ring, self.finished, self.fabric.dead)


class _CollapseEntry:
    """Registration state of one potentially-collapsed collective."""

    __slots__ = (
        "key", "t0", "ring", "nbytes", "runs", "allowed", "deadline",
        "collapsed",
    )

    def __init__(self, run: _Run, t0: float) -> None:
        self.key = run.key
        self.t0 = t0
        self.ring = run.snapshot.ring
        self.nbytes = run.nbytes
        #: member -> its run, in registration order: finished at the
        #: collective's end (collapsed) or begun at t0 (fallback)
        self.runs: Dict[Hashable, _Run] = {}
        #: False once an entrant moves other bytes than the first
        self.allowed = True
        #: the earliest entrant deadline: the walk must end before it
        self.deadline = float("inf")
        self.collapsed = False


class RingFabric:
    """Simulated collectives over a mutable membership and a topology.

    ``topology`` defaults to a :class:`~repro.sim.topology.FlatRing` built
    from ``latency`` / ``bandwidth`` -- the pre-refactor behaviour, byte-
    and stage-identical to the old monolithic ring all-reduce.  That
    constructor is where the two are checked: beside a given topology they
    are not used.
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
        nonnegative("gradient_bytes", gradient_bytes)
        nonnegative("detection_timeout", detection_timeout)
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
        #: the installed ring, replaced (never mutated) on every change so
        #: collectives created between two changes share one snapshot
        self._ring: Tuple[Hashable, ...] = ()
        self._members: FrozenSet = frozenset()
        #: (key, phase tag) -> in-flight ring pass
        self._collectives: Dict[Any, RingCollective] = {}
        #: key -> membership snapshot of a collective not every survivor
        #: has finished yet
        self._snapshots: Dict[Any, _Snapshot] = {}
        #: homogeneous-rank collapse enabled (the elastic runner toggles
        #: this per round: off whenever a fail event is armed)
        self.collapse = bool(collapse)
        #: collectives served by the collapsed fast path (observability:
        #: tests assert the fast path engaged -- or stayed out)
        self.collapsed_collectives = 0
        #: the one not-yet-completed fast-path try (a second collective
        #: entering meanwhile runs per rank)
        self._pending: Optional[_CollapseEntry] = None
        #: (collective bytes, ring length) -> the ring's collapse plan, so
        #: the O(W^2) derivation runs once per ring, not per collective.
        #: Only a decider derives one: a fabric sharing its topology
        #: starts none, so derives none.  Safe to keep: ``set_ring``
        #: empties it, and the only other way the ring changes
        #: (``_remove``) makes ``dead`` non-empty, which vetoes every
        #: collapse until the next ``set_ring``
        self._plans: Dict[Tuple[float, int], Optional[List[CollapsePhase]]] = {}
        #: partition schedule (an object answering
        #: ``partition_release(now, node_a, node_b)`` -- in practice the
        #: cluster's :class:`~repro.sim.cluster.ClusterMembership`); a
        #: delivery crossing an active cut stalls until the window heals
        #: instead of the ring aborting.  None: deliveries land inline,
        #: byte-identical to the pre-partition fabric.
        self.partitions = partitions
        #: seconds this fabric's sends queued on their own streams before
        #: starting, booked as each completes: bucket overlap, not cross-job
        #: contention -- other tenants ride other streams, and slow these
        #: sends down rather than queue them (``link_wait_by_class``)
        self.link_wait_seconds = 0.0
        #: completion-attributed per-class link wait (the collective-class
        #: sink of this fabric's streams: own-stream queueing plus
        #: fair-sharing slowdown versus an idle link; the collapsed fast
        #: path adds its stages' excess into the same exact sums)
        self.link_wait_by_class = ExactSums()
        #: collapse attempts vetoed because loader/checkpoint (or another
        #: tenant's non-collective) traffic was in flight on a link the
        #: collective would use -- the fast path assumes idle links, so
        #: cross-class contention deactivates it (counted, not silent)
        self.collapse_cross_vetoes = 0
        #: seconds of delivery stall injected by partition windows
        self.partition_stall_seconds = 0.0
        self.topology.fabrics += 1

    # -- membership --------------------------------------------------------

    @property
    def ring(self) -> List[Hashable]:
        return list(self._ring)

    def _install(self, members: Iterable[Hashable]) -> None:
        self._ring = tuple(members)
        self._members = frozenset(self._ring)

    def set_ring(self, members: Iterable[Hashable]) -> None:
        """Install the ring for subsequently created collectives.

        Resets the dead set: the caller's member list is authoritative for
        the new ring (an elastic runner re-forms the ring every epoch from
        its live membership; ranks that merely finished early last epoch
        rejoin, failed nodes are simply not listed)."""
        self.dead = {}
        self._fill_delay = {}
        self._install(members)
        self._plans = {}

    def abort(self, member: Hashable) -> None:
        """Remove ``member`` on failure without deadlocking any ring.

        First every run of the dead rank stops: it sends nothing more and
        its completion events never fire; sends already on a link still
        drain there.  Then its undelivered chunks in in-flight collectives
        are filled in once the failure detector fires (``detection_timeout``
        after the abort), so ring neighbors stall for the detection window
        -- not forever.  Collectives created afterwards exclude it.
        """
        for collective in self._collectives.values():
            run = collective.runs.get(member)
            if run is not None and run.collective is collective:
                run.cancel()
        entry = self._pending
        if entry is not None and member in entry.runs:
            entry.runs[member].cancel()
        self._remove(member, self.detection_timeout)

    def leave(self, member: Hashable) -> None:
        """Remove ``member`` gracefully (budget exhausted / early exit): its
        undelivered chunks fill in immediately, so neighbors only ever wait
        for work that is actually outstanding.  Collectives it already
        started it keeps running."""
        self._remove(member, 0.0)

    def _remove(self, member: Hashable, fill_delay: float) -> None:
        if member in self.dead:
            return
        death = self.env.now
        self.dead[member] = death
        self._fill_delay[member] = fill_delay
        self._install(m for m in self._ring if m != member)
        for collective in list(self._collectives.values()):
            collective.fill_pending(member, death, fill_delay)
        self._sweep()

    # -- delivery (partition-aware) ----------------------------------------

    @staticmethod
    def _member_node(member: Hashable) -> Hashable:
        """The node a ring member lives on ((node, gpu) ranks; plain
        hashables are their own node)."""
        if isinstance(member, tuple) and len(member) == 2:
            return member[0]
        return member

    def _deliver(
        self, collective: RingCollective, stage: int, sender: Hashable
    ) -> None:
        """Land ``sender``'s finished stage-``stage`` chunk at its successor.

        Without partitions this lands inline -- no kernel event.  A delivery
        crossing an active partition window stalls until the window heals:
        the receiver waits, nothing aborts, and once healed the ring resumes
        where it stopped.  A chunk already filled in is not delivered again.
        """
        if collective.has(stage, sender):
            return
        if self.partitions is not None:
            now = self.env.now
            release = self.partitions.partition_release(
                now,
                self._member_node(sender),
                self._member_node(collective.successor(sender)),
            )
            if release > now:
                self.partition_stall_seconds += release - now
                timer = Timeout(self.env, release - now, (stage, sender))
                timer.callbacks.append(collective._released)
                return
        collective.land(stage, sender)

    # -- links -------------------------------------------------------------

    def link(self, member: Hashable, scope: str = "inter"):
        """``member``'s outgoing link (owned by the topology)."""
        return self.topology.link(member, scope)

    # -- the collective ----------------------------------------------------

    def _snapshot(self, key: Any) -> _Snapshot:
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            snapshot = self._snapshots[key] = _Snapshot(self._ring, self._members)
        return snapshot

    def _collective(self, ckey: Any, ring: Sequence[Hashable]) -> RingCollective:
        collective = self._collectives.get(ckey)
        if collective is None:
            collective = self._collectives[ckey] = RingCollective(self, ckey, ring)
        return collective

    def start(
        self,
        key: Any,
        member: Hashable,
        nbytes: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Event:
        """Join the all-reduce ``key`` as ``member``; returns the event that
        fires when this member has completed every stage of every phase.

        All ranks starting the same ``key`` join one collective whose
        membership is snapshotted from :meth:`set_ring` at first entry; the
        topology maps that snapshot to this member's ring phases (flat: one
        world ring, reduce-scatter + all-gather; hierarchical: intra-node
        reduce -> inter-node ring all-reduce -> intra-node broadcast).
        ``nbytes`` overrides the fabric's full ``gradient_bytes`` (the step
        loop passes one bucket's slice).  No process is involved: the run
        advances on link-completion callbacks.

        With :attr:`collapse` on, a homogeneous all-entered-together
        collective is served by one representative-rank schedule instead of
        ``W`` simulated runs (see the module docstring).  ``deadline`` is
        the earliest instant this member's next collective may enter the
        same links (the step loop passes the next overlapped bucket's
        launch): the walk assumes idle links, so it must end strictly
        before then, or the collective runs per rank.
        """
        return self._start(key, member, nbytes, deadline).done

    def _start(
        self, key: Any, member: Hashable, nbytes: Optional[float],
        deadline: Optional[float],
    ) -> _Run:
        snapshot = self._snapshot(key)
        nbytes = self.gradient_bytes if nbytes is None else float(nbytes)
        run = _Run(self, key, member, snapshot, nbytes)
        if len(snapshot.ring) > 1 and member in snapshot.members:
            if not (self.collapse and self._register_collapse(run, deadline)):
                run.begin()
        else:
            run.finish()
        return run

    def allreduce(
        self,
        key: Any,
        member: Hashable,
        nbytes: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Generator:
        """:meth:`start` as a generator to ``yield from`` in a process; an
        interrupt of that process cancels this member's run."""
        yield from self._await(self._start(key, member, nbytes, deadline))

    @staticmethod
    def _await(run: _Run) -> Generator:
        try:
            yield run.done
        except Interrupt:
            run.cancel()
            raise

    # -- homogeneous-rank collapse -----------------------------------------

    def _collapse_quiescent(self) -> bool:
        """No churn, no simulated collective in flight, no partition
        schedule, no other fabric on the topology, every link idle -- the
        state from which a lockstep collective is provably identical to
        the per-rank simulation (and after which it leaves every link
        idle-equivalent again: a link's owner only sends once its previous
        collective finished, by which time the link had drained)."""
        if (
            self.dead
            or self._collectives
            or self.partitions is not None
            or self.topology.fabrics > 1
        ):
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
        self, ring: Sequence[Hashable], nbytes: float
    ) -> Optional[List[CollapsePhase]]:
        key = (nbytes, len(ring))
        if key not in self._plans:
            self._plans[key] = self.topology.collapse_schedule(ring, nbytes)
        return self._plans[key]

    def _register_collapse(self, run: _Run, deadline: Optional[float]) -> bool:
        """Hand ``run`` to the fast path's decider; False: not tried."""
        entry = self._pending
        if entry is None:
            if not self._collapse_quiescent():
                return False
            entry = self._pending = _CollapseEntry(run, self.env.now)
            self.env.process(self._collapse_decider(entry))
        elif entry.key != run.key:
            return False
        if run.nbytes != entry.nbytes:
            entry.allowed = False
        if deadline is not None and deadline < entry.deadline:
            entry.deadline = deadline
        entry.runs[run.member] = run
        return True

    def _collapse_decider(self, entry: _CollapseEntry) -> Generator:
        # a zero-delay NORMAL event: every entrant arriving at the same
        # instant was scheduled before it, so by the time this fires the
        # registration window is closed
        yield self.env.timeout(0.0)
        schedule = None
        if (
            entry.allowed
            and len(entry.runs) == len(entry.ring)
            and self._collapse_quiescent()
        ):
            schedule = self._collapse_plan(entry.ring, entry.nbytes)
        # one representative rank's lockstep timeline, priced in a local
        # loop.  ``drained`` is its per-scope stream's drain watermark (a
        # send starts at max(now, watermark), as on a live stream) and the
        # link layer's closed form prices each stage; ``now`` advances as
        # ``now + (finish - now)``, the very instant a per-stage timeout of
        # ``finish - now`` would land on, so the end instant matches the
        # simulation bit-for-bit.
        now = self.env.now
        drained: Dict[str, float] = {}
        for stages, scope, chunk, bandwidth, latency, streams, _fanout in (
            schedule or ()
        ):
            for _stage in range(stages):
                drained[scope], finish, _excess = project(
                    max(now, drained.get(scope, now)),
                    chunk, bandwidth, latency, streams,
                )
                now = now + (finish - now)
        if schedule is None or not now < entry.deadline:
            # ragged arrival / heterogeneity / churn / a walk the next
            # collective would overlap: every entrant runs the exact
            # per-rank path, still at the entry instant
            self._pending = None
            for run in entry.runs.values():
                if not run.cancelled:
                    run.begin()
            return
        entry.collapsed = True
        self.collapsed_collectives += 1
        # every stage's ``fanout`` member transfers book the fair-sharing
        # excess, as the live completion hook would (zero too: that creates
        # the key); the sums are exact, so this is the per-rank path's value
        for stages, _scope, chunk, bandwidth, _latency, streams, fanout in schedule:
            excess = project(0.0, chunk, bandwidth, 0.0, streams)[2]
            self.link_wait_by_class.add("collective", excess, stages * fanout)
        yield self.env.succeed_at(self.env.event(), now)
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
        self._pending = None
        for run in entry.runs.values():
            if not run.cancelled:
                run.finish()

    # -- retirement --------------------------------------------------------

    def _finish(self, key: Any, snapshot: _Snapshot, member: Hashable) -> None:
        """Mark ``member`` done with collective ``key``; drop the snapshot
        once every survivor of it has finished."""
        if snapshot.finish(member, self.dead):
            self._snapshots.pop(key, None)

    def _sweep(self) -> None:
        """Drop collectives/snapshots whose survivors have all finished."""
        for ckey in [c for c, col in self._collectives.items() if col.complete()]:
            self._collectives.pop(ckey, None)
        for key in [
            k for k, s in self._snapshots.items()
            if _complete(s.ring, s.finished, self.dead)
        ]:
            self._snapshots.pop(key, None)

    @property
    def in_flight(self) -> int:
        """Number of collectives not yet completed by every survivor."""
        return len(self._snapshots)
