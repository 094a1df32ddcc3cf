"""Cluster interconnect topologies for the collective fabric.

This is the bottom layer of the synchronization stack: a
:class:`Topology` owns the simulated links (one
:class:`~repro.sim.links.SharedLink` per physical link) and maps a
membership snapshot onto the sequence of *ring phases* one all-reduce
traverses.  The collective layer (:class:`~repro.sim.fabric.RingFabric`)
executes those phases, one ring pass each; the step loop
(:mod:`repro.sim.distributed`) never sees links
at all.  A topology writes its plan once, in :meth:`Topology.phases`: the
collapsed fast path's schedule (:meth:`Topology.collapse_schedule`) is read
off it, so collapse and per-rank ring cannot disagree about the plan.

Two topologies are provided:

* :class:`FlatRing` -- every rank owns one outgoing link of NIC class and
  the all-reduce is a single ring over the whole world: reduce-scatter then
  all-gather, ``2(W-1)`` stages of ``bytes / W`` chunks.  This is exactly
  the pre-refactor ``RingFabric`` behaviour.
* :class:`Hierarchical` -- members are ``(node, gpu)`` tuples; ``G`` GPUs
  per node talk over fast intra-node links (NVLink class) and each node
  reaches the others through one NIC-class inter-node ring, the structure
  NCCL's hierarchical rings exploit.  One all-reduce decomposes into an
  intra-node reduce (ring reduce-scatter over the node's GPUs), an
  inter-node ring all-reduce of each GPU's shard across its same-position
  peers (``W_nodes`` chunks), and an intra-node broadcast (ring
  all-gather), so only ``1/G`` of the traffic ever crosses a NIC and the
  latency term pays ``2(N-1)`` inter-node hops instead of ``2(NG-1)``.

The node's single NIC is **one** full-bandwidth :class:`SharedLink`
carrying a real per-(member, scope) :class:`~repro.sim.links.Stream` for
each of the node's ``G`` concurrent inter-node ring streams -- plus the
node's loader-miss and checkpoint streams under
``Cluster(storage_over_nic=True)``.  Capacity is divided max-min fair
among whichever streams have queued work, so ``G`` symmetric collective
streams each see exactly the old steady-state ``bandwidth / G`` share
(what :meth:`collapse_schedule` reports as ``streams=G``), while asymmetric
or cross-class traffic gets the fluid interleaving the old fixed-share
constant could not represent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..contracts import count, nonnegative, positive
from ..errors import ConfigurationError
from .kernel import Environment
from .links import SharedLink, Stream

__all__ = ["Topology", "FlatRing", "Hierarchical", "RingPhase", "TOPOLOGIES"]

TOPOLOGIES = ("flat", "hierarchical")

#: one ring phase of a collapsed all-reduce, as link parameters:
#: (stages, scope, chunk bytes, bandwidth, latency, streams, fanout)
CollapsePhase = Tuple[int, str, float, float, float, int, int]


@dataclass(frozen=True)
class RingPhase:
    """One ring pass of a collective, from one member's point of view.

    ``tag`` keys the phase's sub-collective (members of the same sub-ring
    share it); ``ring`` is the sub-ring in snapshot order; ``op`` is
    ``"reduce_scatter"`` or ``"all_gather"`` (``W - 1`` stages each);
    ``nbytes`` is the tensor size this ring pass moves (each stage sends a
    ``nbytes / len(ring)`` chunk); ``scope`` selects which link class the
    topology serves the sends from.
    """

    tag: Hashable
    ring: Tuple[Hashable, ...]
    op: str
    nbytes: float
    scope: str


class Topology:
    """Owns the shared links and plans the ring phases of one all-reduce."""

    kind = "abstract"

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._links: Dict[Tuple[str, Hashable], SharedLink] = {}
        #: collective fabrics riding these links (each counts itself in);
        #: a fabric collapses only while it rides alone, since another's
        #: not-yet-issued traffic is invisible to its quiescence check
        self.fabrics = 0

    # -- links -------------------------------------------------------------

    def link_key(self, member: Hashable, scope: str) -> Hashable:
        """The physical-link identity ``member``'s ``scope`` traffic rides
        on (several members may map onto one shared link)."""
        return member

    def link(self, member: Hashable, scope: str = "inter") -> SharedLink:
        """The shared link serving ``member`` in ``scope`` (created on
        first use)."""
        key = (scope, self.link_key(member, scope))
        link = self._links.get(key)
        if link is None:
            bandwidth, latency = self.link_params(member, scope)
            link = SharedLink(self.env, bandwidth, latency)
            self._links[key] = link
        return link

    def stream(
        self,
        member: Hashable,
        scope: str = "inter",
        cls: str = "collective",
        tenant: Hashable = None,
        sink=None,
    ) -> Stream:
        """``member``'s flow endpoint on its ``scope`` link, one per
        (tenant, member, class) so concurrent jobs' traffic stays
        separately attributed while contending on the same link."""
        return self.link(member, scope).stream((tenant, member, cls), cls, sink)

    def link_params(self, member: Hashable, scope: str) -> Tuple[float, float]:
        """(bandwidth, latency) of ``member``'s outgoing ``scope`` link."""
        raise NotImplementedError

    def nic_link(self, node: Hashable) -> SharedLink:
        """The node's inter-scope NIC link, addressed by node id.

        Ranks are ``(node, gpu)`` members; the node's non-collective
        traffic (remote-storage loader reads and checkpoint writes under
        ``Cluster(storage_over_nic=True)``) opens loader / checkpoint
        class streams on the same shared link the node's collective
        streams use, so cross-class traffic lowers -- and is slowed by --
        the collectives' fair share.
        """
        return self.link((node, 0), "inter")

    # -- collective plan ---------------------------------------------------

    def phases(
        self, ring: Sequence[Hashable], member: Hashable, nbytes: float
    ) -> List[RingPhase]:
        """The ring passes ``member`` performs in one all-reduce over the
        membership snapshot ``ring``."""
        raise NotImplementedError

    # -- homogeneous-rank collapse -----------------------------------------

    def collapse_schedule(
        self, ring: Sequence[Hashable], nbytes: float
    ) -> Optional[List[CollapsePhase]]:
        """Link parameters of a *collapsed* all-reduce, or ``None``.

        Read off :meth:`phases`: when every member of ``ring`` performs
        passes of the same shape (stages, scope, chunk, link parameters,
        streams sharing its link), a lockstep all-reduce advances every
        rank through the same per-stage timing and one rank's schedule is
        the whole collective.  The return value is one ``(stages, scope,
        chunk, bandwidth, latency, streams, fanout)`` tuple per ring pass:
        each of the ``stages`` sends ``chunk`` bytes on a ``scope`` link of
        ``bandwidth`` / ``latency`` that ``streams`` symmetric collective
        streams keep busy together, and ``fanout`` member transfers happen
        per stage across the whole collective (the fast path replays that
        many wait attributions).  Numbers only -- the timing is
        :func:`repro.sim.links.project`'s to compute, and no link is
        created here (the order of ``_links`` decides which busy stream
        the quiescence probe meets first).  ``None`` means the caller must
        simulate the per-rank ring: members' passes differ (ragged groups,
        heterogeneous links under a pass), or there are no bytes to move
        (the link layer skips a 0-byte transfer, latency included, so the
        per-rank ring is free and there is nothing to walk).
        """
        if not nbytes:
            return None
        #: scope -> link key -> members of ``ring`` whose sends ride it: in
        #: lockstep they keep it busy through every stage of a pass, so the
        #: live engine splits the link that many ways
        sharing: Dict[str, Counter] = {}

        def streams(member: Hashable, scope: str) -> int:
            if scope not in sharing:
                sharing[scope] = Counter(self.link_key(m, scope) for m in ring)
            return sharing[scope][self.link_key(member, scope)]

        shape = None
        for member in ring:
            passes = [
                (
                    len(phase.ring) - 1,
                    phase.scope,
                    phase.nbytes / len(phase.ring),
                    *self.link_params(member, phase.scope),
                    streams(member, phase.scope),
                    len(ring),
                )
                for phase in self.phases(ring, member, nbytes)
            ]
            if shape is None:
                shape = passes
            elif passes != shape:
                return None
        return shape


class FlatRing(Topology):
    """Single ring over the whole world on NIC-class links (the
    pre-refactor behaviour: one all-reduce is reduce-scatter then
    all-gather over the same ``W``-member ring)."""

    kind = "flat"

    def __init__(self, env: Environment, latency: float, bandwidth: float) -> None:
        positive("bandwidth", bandwidth)
        nonnegative("latency", latency)
        super().__init__(env)
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)

    def link_params(self, member: Hashable, scope: str) -> Tuple[float, float]:
        return self.bandwidth, self.latency

    def phases(
        self, ring: Sequence[Hashable], member: Hashable, nbytes: float
    ) -> List[RingPhase]:
        full = tuple(ring)
        return [
            RingPhase("rs", full, "reduce_scatter", nbytes, "inter"),
            RingPhase("ag", full, "all_gather", nbytes, "inter"),
        ]


class Hierarchical(Topology):
    """Two-level topology: G GPUs per node on fast intra-node links, one
    NIC-class ring between nodes.

    Members must be ``(node, gpu)`` tuples (the distributed runner's rank
    identity).  The all-reduce plan for member ``(n, g)``:

    1. *intra-node reduce*: ring reduce-scatter over node ``n``'s GPUs on
       intra-node links -- ``(G-1)`` stages, each GPU ends holding one
       reduced ``bytes / G`` shard of the node's gradient sum;
    2. *inter-node ring all-reduce*: the GPU at intra position ``p`` of
       every node forms an ``N``-node ring that all-reduces its shard
       (``bytes / G``) across nodes -- reduce-scatter + all-gather,
       ``2(N-1)`` stages of ``bytes / (G N)`` chunks over the NIC's fair
       share (``bandwidth / gpus_per_node`` per concurrent stream);
    3. *intra-node broadcast*: ring all-gather over the node's GPUs --
       ``(G-1)`` stages re-replicate the globally reduced gradient.

    ``intra_params`` optionally maps a node id to its own
    ``(latency, bandwidth)`` intra-node link class (heterogeneous
    clusters); unlisted nodes use the defaults.
    """

    kind = "hierarchical"

    def __init__(
        self,
        env: Environment,
        latency: float,
        bandwidth: float,
        intra_latency: float,
        intra_bandwidth: float,
        gpus_per_node: int,
        intra_params: Optional[
            Dict[Hashable, Tuple[float, float]]
        ] = None,
    ) -> None:
        positive("bandwidth", bandwidth)
        positive("intra_bandwidth", intra_bandwidth)
        nonnegative("latency", latency)
        nonnegative("intra_latency", intra_latency)
        count("gpus_per_node", gpus_per_node)
        super().__init__(env)
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.intra_latency = float(intra_latency)
        self.intra_bandwidth = float(intra_bandwidth)
        self.gpus_per_node = int(gpus_per_node)
        self._intra_params = dict(intra_params or {})
        #: the last membership snapshot grouped, and its groups: every
        #: member of one collective plans from the same snapshot tuple
        self._grouped: Tuple[Optional[tuple], Dict] = (None, {})

    def link_params(self, member: Hashable, scope: str) -> Tuple[float, float]:
        node = self._node_of(member)
        if scope == "intra":
            latency, bandwidth = self._intra_params.get(
                node, (self.intra_latency, self.intra_bandwidth)
            )
            return bandwidth, latency
        # the node's single NIC at full bandwidth: its G concurrent
        # inter-node ring streams (and any loader/checkpoint traffic)
        # share it max-min fair on one SharedLink instead of each owning
        # a fixed bandwidth/G slice
        return self.bandwidth, self.latency

    def link_key(self, member: Hashable, scope: str) -> Hashable:
        if scope == "inter":
            # every member of a node rides the node's one NIC link
            return self._node_of(member)
        return member

    @staticmethod
    def _node_of(member: Hashable) -> Hashable:
        try:
            node, _gpu = member
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"hierarchical topology members must be (node, gpu) "
                f"tuples, got {member!r}"
            )
        return node

    def _groups(
        self, ring: Sequence[Hashable]
    ) -> "Dict[Hashable, List[Hashable]]":
        """Members per node, in snapshot order; derived once per snapshot
        tuple (a list may change under us, so it is grouped every time)."""
        snapshot, groups = self._grouped
        if ring is snapshot:
            return groups
        groups = {}
        for member in ring:
            groups.setdefault(self._node_of(member), []).append(member)
        if isinstance(ring, tuple):
            self._grouped = (ring, groups)
        return groups

    def phases(
        self, ring: Sequence[Hashable], member: Hashable, nbytes: float
    ) -> List[RingPhase]:
        groups = self._groups(ring)
        node = self._node_of(member)
        intra = tuple(groups[node])
        position = intra.index(member)
        # the inter-node ring of this member's intra position: one member
        # per node (nodes in snapshot order) that has that position
        inter = tuple(
            group[position]
            for group in groups.values()
            if position < len(group)
        )
        shard = nbytes / max(len(intra), 1)
        plan: List[RingPhase] = []
        if len(intra) > 1:
            plan.append(
                RingPhase(
                    ("rs-intra", node), intra, "reduce_scatter", nbytes, "intra"
                )
            )
        if len(inter) > 1:
            plan.append(
                RingPhase(
                    ("rs-inter", position), inter, "reduce_scatter", shard, "inter"
                )
            )
            plan.append(
                RingPhase(
                    ("ag-inter", position), inter, "all_gather", shard, "inter"
                )
            )
        if len(intra) > 1:
            plan.append(
                RingPhase(
                    ("ag-intra", node), intra, "all_gather", nbytes, "intra"
                )
            )
        return plan
