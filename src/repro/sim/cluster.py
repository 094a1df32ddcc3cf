"""Cluster-owned simulation resources (the multi-tenant substrate).

Historically :func:`repro.sim.distributed.run_elastic` privately constructed
every resource it touched -- the :class:`~repro.sim.kernel.Environment`, the
collective :class:`~repro.sim.topology.Topology` and its links, each node's
storage device / page cache / CPU cores -- so exactly one training job could
ever exist per simulated world.  Production clusters run many concurrent
jobs contending for those same resources.

This module inverts the ownership:

* :class:`Cluster` owns the kernel (one ``Environment``), the
  :class:`ClusterMembership` (join/leave/fail schedule plus network
  :class:`PartitionEvent` windows), the shared interconnect topology (links
  are keyed by the *cluster*, not by a run), and per-node
  :class:`NodeSite` bundles (storage device, page cache, CPU cores);
* jobs (:func:`~repro.sim.distributed.run_elastic`,
  :class:`~repro.sim.scenarios.JobMix`) are *submitted to* a cluster; a
  front door called without one builds a fresh private cluster from its
  resource-shaped arguments first -- byte-identical to the pre-refactor
  behaviour, pinned by the kernel-equivalence tests.

:class:`Cluster` is where every resource-owned knob is declared, defaulted,
documented and validated; the job-owned ones live on
:class:`~repro.sim.distributed.JobSpec`.

Nothing in this module may import :mod:`repro.sim.distributed` or
:mod:`repro.sim.scenarios` (they import us); each job wires its own
:class:`~repro.sim.fabric.RingFabric` over :attr:`Cluster.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..contracts import count, fraction, nonnegative, positive
from ..data.storage import PageCache
from ..errors import ConfigurationError
from .kernel import Environment
from .links import BandwidthPipe
from .resources import Resource
from .topology import TOPOLOGIES, FlatRing, Hierarchical, Topology
from .workloads import HardwareConfig

__all__ = [
    "Cluster",
    "ClusterMembership",
    "MembershipEvent",
    "PartitionEvent",
    "RoundSchedule",
    "read_schedule",
    "NodeSite",
    "EVENT_KINDS",
    "DEFAULT_LINK_LATENCY",
    "DEFAULT_LINK_BANDWIDTH",
]

#: NIC-class link defaults shared by the cluster and the closed-form
#: :class:`~repro.sim.distributed.AllReduceModel` (200 Gb/s interconnect)
DEFAULT_LINK_LATENCY = 0.0015
DEFAULT_LINK_BANDWIDTH = 25e9


# ---------------------------------------------------------------------------
# Membership schedule
# ---------------------------------------------------------------------------

EVENT_KINDS = ("join", "leave", "fail")


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change, anchored in virtual time or at an epoch.

    * ``kind="join"``: the node becomes available and starts participating
      (with a freshly derived shard) at the next epoch boundary;
    * ``kind="leave"``: graceful departure -- the node finishes its current
      epoch and is excluded from the re-shard at the anchor boundary;
    * ``kind="fail"``: abrupt mid-epoch death ``after`` virtual seconds into
      the anchored epoch (or at absolute ``time``): the node's GPU processes
      are interrupted, its loader halted, and its in-flight ring chunks are
      filled in by the failure detector so neighbors stall but never
      deadlock.  Its unconsumed shard remainder is lost for that epoch and
      re-covered by the next boundary's re-shard.
    """

    kind: str
    node: int
    #: anchor at this epoch (applied at its start boundary; fails fire
    #: ``after`` seconds into it)
    epoch: Optional[int] = None
    #: anchor at this absolute virtual time
    time: Optional[float] = None
    #: fail only: virtual seconds into the anchored epoch
    after: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        count("node", self.node, lo=0)
        if (self.epoch is None) == (self.time is None):
            raise ConfigurationError(
                "exactly one of epoch / time must anchor a membership event"
            )
        if self.epoch is not None:
            count("epoch", self.epoch, lo=0)
        if self.time is not None:
            # an anchor that never comes would still arm every round
            nonnegative("time", self.time)
        nonnegative("after", self.after)
        if self.after > 0 and self.kind != "fail":
            raise ConfigurationError(
                "after is only meaningful for fail events (join/leave apply "
                "at epoch boundaries)"
            )
        if self.after > 0 and self.time is not None:
            raise ConfigurationError(
                "after offsets an epoch anchor; with an absolute time "
                "anchor, fold the offset into time itself"
            )


@dataclass(frozen=True)
class PartitionEvent:
    """A transient reachability split that heals.

    For ``duration`` virtual seconds starting at ``time``, the nodes in
    ``nodes`` cannot exchange collective traffic with the rest of the
    cluster (links *within* each side keep working).  Unlike a fail event
    nothing dies: ring deliveries crossing the cut stall until the window
    closes and then resume -- the fabric recovers instead of aborting.
    """

    nodes: Tuple[int, ...]
    time: float
    duration: float

    def __init__(
        self, nodes: Sequence[int], time: float, duration: float
    ) -> None:
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "time", float(time))
        object.__setattr__(self, "duration", float(duration))
        if not self.nodes:
            raise ConfigurationError(
                "a partition must isolate at least one node"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(
                f"partition nodes must be unique, got {list(nodes)!r}"
            )
        if any(node < 0 for node in self.nodes):
            raise ConfigurationError(
                f"partition nodes must be >= 0, got {list(nodes)!r}"
            )
        nonnegative("time", self.time)
        positive("duration", self.duration)  # partitions heal

    @property
    def end(self) -> float:
        return self.time + self.duration

    def splits(self, node_a: int, node_b: int) -> bool:
        """True when this partition puts ``node_a`` and ``node_b`` on
        opposite sides of the cut."""
        return (node_a in self.nodes) != (node_b in self.nodes)


class ClusterMembership:
    """A cluster's initial size plus its schedule of membership events.

    Nodes are integer ids; the initial cluster is ``0..initial_nodes-1`` and
    join events introduce new ids.  The same node id may appear in at most
    one join and at most one leave/fail (a node's lifetime is one interval;
    re-joining hardware is a new node id).

    ``partitions`` holds transient :class:`PartitionEvent` reachability
    splits; :meth:`partition_release` answers the fabric's only question
    about them (when can a cross-cut delivery land?).
    """

    def __init__(
        self,
        initial_nodes: int,
        events: Sequence[MembershipEvent] = (),
        partitions: Sequence[PartitionEvent] = (),
    ) -> None:
        count("initial_nodes", initial_nodes)
        self.initial_nodes = initial_nodes
        self.events: Tuple[MembershipEvent, ...] = tuple(events)
        self.partitions: Tuple[PartitionEvent, ...] = tuple(partitions)
        initial = set(range(initial_nodes))
        joined: Set[int] = set()
        removed: Set[int] = set()
        for event in self.events:
            if event.kind == "join":
                if event.node in initial or event.node in joined:
                    raise ConfigurationError(
                        f"node {event.node} joins twice (or is an initial node)"
                    )
                joined.add(event.node)
            else:
                if event.node not in initial | joined:
                    raise ConfigurationError(
                        f"{event.kind} targets unknown node {event.node}"
                    )
                if event.node in removed:
                    raise ConfigurationError(
                        f"node {event.node} leaves/fails twice"
                    )
                removed.add(event.node)
        known = initial | joined
        for partition in self.partitions:
            unknown = [n for n in partition.nodes if n not in known]
            if unknown:
                raise ConfigurationError(
                    f"partition isolates unknown node(s) {unknown}"
                )

    @property
    def node_ids(self) -> List[int]:
        """Every node id that is ever part of the cluster."""
        ids = set(range(self.initial_nodes))
        ids.update(e.node for e in self.events if e.kind == "join")
        return sorted(ids)

    def partition_release(
        self, now: float, node_a: int, node_b: int
    ) -> float:
        """Earliest virtual time >= ``now`` at which ``node_a`` can deliver
        to ``node_b``: ``now`` itself when no active partition separates
        them, otherwise the end of the last window in the chain of
        (possibly overlapping) partitions that do."""
        if node_a == node_b or not self.partitions:
            return now
        release = now
        changed = True
        # fixpoint over overlapping windows: healing out of one cut may
        # land inside another that also separates the pair
        while changed:
            changed = False
            for partition in self.partitions:
                if (
                    partition.splits(node_a, node_b)
                    and partition.time <= release < partition.end
                ):
                    release = partition.end
                    changed = True
        return release

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterMembership(initial_nodes={self.initial_nodes}, "
            f"events={list(self.events)!r}, "
            f"partitions={list(self.partitions)!r})"
        )


class RoundSchedule(NamedTuple):
    """What a job's round boundary reads from its membership schedule."""

    #: the membership the round runs with
    active: FrozenSet[int]
    #: events still to come, in schedule order
    pending: Tuple[MembershipEvent, ...]
    #: fails that may fire during the round: epoch-anchored at it, or
    #: time-anchored, on a node it runs
    armed: Tuple[MembershipEvent, ...]
    #: first later round index a pending event anchors at (a budget-mode
    #: round must not span past it); None when nothing is pending
    next_anchor: Optional[int]


def read_schedule(
    pending: Sequence[MembershipEvent],
    active: FrozenSet[int],
    round_index: int,
    now: float,
) -> RoundSchedule:
    """The one pass a round boundary makes over the events still to come.

    A join or leave whose anchor is due applies; a fail whose anchor has
    passed (a time that fell between rounds, an epoch already over)
    degrades to removal after every join and leave, so a node never
    outlives its scheduled death.  Every other event stays pending, and
    says where the round must stop: a time anchor at the next round (its
    pass alignment is unknown), a fail at its epoch and the one after
    (the re-shard right after it), a join or leave at its epoch.
    """
    active = set(active)
    doomed: List[int] = []
    still: List[MembershipEvent] = []
    armable: List[MembershipEvent] = []
    next_anchor: Optional[int] = None
    for event in pending:
        if event.kind == "fail":
            if (event.time is not None and event.time <= now) or (
                event.epoch is not None and event.epoch < round_index
            ):
                doomed.append(event.node)
                continue
        elif (event.epoch is not None and event.epoch <= round_index) or (
            event.time is not None and event.time <= now
        ):
            if event.kind == "join":
                active.add(event.node)
            else:
                active.discard(event.node)
            continue
        still.append(event)
        if event.time is not None:
            anchor = round_index + 1
            if event.kind == "fail":
                armable.append(event)
        elif event.kind == "fail":
            anchor = max(event.epoch, round_index + 1)
            if event.epoch == round_index:
                armable.append(event)
        else:
            anchor = event.epoch
        if next_anchor is None or anchor < next_anchor:
            next_anchor = anchor
    active.difference_update(doomed)
    return RoundSchedule(
        frozenset(active),
        tuple(still),
        tuple(event for event in armable if event.node in active),
        next_anchor,
    )


# ---------------------------------------------------------------------------
# Per-node shared resources
# ---------------------------------------------------------------------------


class NodeSite:
    """One node's shareable data-path resources.

    Every job running on the node contends here: the storage device, the
    page cache (one physical DRAM pool; tenants key their entries by a
    per-job namespace so two jobs' sample index 0 never collide), and the
    CPU cores.  GPUs stay per-job -- the scheduler hands each job a
    disjoint GPU allocation, so compute does not contend; the paper's
    contention story is the data path.

    The disk is one FIFO stream on a private
    :class:`~repro.sim.links.SharedLink` (:func:`~repro.sim.links.BandwidthPipe`).
    Every tenant queues on that one stream, so the disk serves reads in
    submission order where a shared NIC divides itself max-min fair among
    tenants -- an open model decision (DESIGN "Multi-tenant scenarios").
    """

    def __init__(
        self,
        env: Environment,
        hardware: HardwareConfig,
        cache_fraction: float,
        record_transfers: bool = False,
    ) -> None:
        self.hardware = hardware
        self.disk = BandwidthPipe(
            env,
            hardware.storage.bandwidth,
            hardware.storage.latency,
            record=record_transfers,
        )
        self.cache = PageCache(hardware.memory_bytes * cache_fraction)
        self.cores = Resource(env, capacity=hardware.cpu_cores)


# ---------------------------------------------------------------------------
# The cluster
# ---------------------------------------------------------------------------


class Cluster:
    """Owns the kernel, the membership, the interconnect and the node sites.

    One cluster hosts any number of jobs.  Link pipes are keyed by the
    cluster's single :class:`~repro.sim.topology.Topology` instance, so two
    jobs' collectives queue on the *same* NIC pipes (and neither job's
    fabric collapses: the topology counts the fabrics riding it); node
    sites are created lazily and persist across jobs (a second job arrives
    at a warm cache).

    Every resource-owned knob is a parameter here, and only here:

    * ``membership`` -- the join/leave/fail schedule and partition windows;
    * ``hardware`` -- every node's config, unless ``node_hardware`` (node
      id -> config, joining nodes included) lists the node: a node with
      fewer cores or slower storage becomes a straggler whose tail latency
      the per-step synchronization imposes on every other rank;
    * ``gpus_per_node`` -- defaults to ``hardware.gpus_per_node``, else 1;
    * ``cache_fraction`` -- sizes every node's page cache (fraction of its
      hardware's memory); a node whose config sets its own
      ``cache_fraction`` overrides it (heterogeneous cache sizes);
    * ``topology`` -- the collective link layout: ``"flat"`` is one
      world-wide NIC ring, ``"hierarchical"`` intra-node NVLink-class
      rings (each node's ``intra_node_bandwidth`` / ``intra_node_latency``)
      plus one inter-node NIC ring;
    * ``link_latency`` / ``link_bandwidth`` -- the NIC-class links' per-hop
      latency and bytes/s, shared by every job's collectives;
    * ``storage_over_nic=True`` routes every cache-miss sample read over
      the owning node's inter-node link as well as its storage pipe, so
      loader traffic and collective traffic contend on the same NIC -- the
      remote-filesystem regime (Config A's Lustre).  Off by default: the
      single-job equivalence pin covers the separate-worlds behaviour.
    """

    def __init__(
        self,
        membership: ClusterMembership,
        hardware: HardwareConfig,
        node_hardware: Optional[Dict[int, HardwareConfig]] = None,
        gpus_per_node: Optional[int] = None,
        cache_fraction: float = 0.8,
        topology: str = "flat",
        link_latency: float = DEFAULT_LINK_LATENCY,
        link_bandwidth: float = DEFAULT_LINK_BANDWIDTH,
        storage_over_nic: bool = False,
    ) -> None:
        if not isinstance(membership, ClusterMembership):
            raise ConfigurationError(
                f"membership must be a ClusterMembership, got {membership!r}"
            )
        if topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"topology must be one of {TOPOLOGIES}, got {topology!r}"
            )
        positive("link_bandwidth", link_bandwidth)
        nonnegative("link_latency", link_latency)
        fraction("cache_fraction", cache_fraction)
        if gpus_per_node is None:
            gpus_per_node = (
                hardware.gpus_per_node
                if hardware.gpus_per_node is not None
                else 1
            )
        count("gpus_per_node", gpus_per_node)
        self.env = Environment()
        self.membership = membership
        self.hardware = hardware
        self._hw_map: Dict[int, HardwareConfig] = dict(node_hardware or {})
        self.gpus_per_node = gpus_per_node
        self.cache_fraction = cache_fraction
        self.topology_name = topology
        self.link_latency = float(link_latency)
        self.link_bandwidth = float(link_bandwidth)
        self.storage_over_nic = bool(storage_over_nic)
        self._topology: Optional[Topology] = None
        self._sites: Dict[int, NodeSite] = {}

    def check_owned(self, **given) -> None:
        """The one rule for a resource-owned knob repeated beside this
        cluster: ``None`` or the cluster's own value is accepted, anything
        else is a conflict -- never a silent overwrite."""
        owned = {
            "membership": self.membership,
            "hardware": self.hardware,
            "node_hardware": self._hw_map,
            "gpus_per_node": self.gpus_per_node,
            "cache_fraction": self.cache_fraction,
            "topology": self.topology_name,
            "link_latency": self.link_latency,
            "link_bandwidth": self.link_bandwidth,
        }
        for knob, value in given.items():
            if value is not None and value != owned[knob]:
                raise ConfigurationError(
                    f"{knob}={value!r} conflicts with the cluster's "
                    f"{owned[knob]!r} ({knob} is cluster-owned; pass it to "
                    f"Cluster(...))"
                )

    # -- hardware ----------------------------------------------------------

    def hw_for(self, node: int) -> HardwareConfig:
        return self._hw_map.get(node, self.hardware)

    def site(self, node: int) -> NodeSite:
        """The node's shared resource bundle (created on first use)."""
        site = self._sites.get(node)
        if site is None:
            hw = self.hw_for(node)
            fraction = (
                hw.cache_fraction
                if hw.cache_fraction is not None
                else self.cache_fraction
            )
            site = NodeSite(self.env, hw, fraction, record_transfers=False)
            self._sites[node] = site
        return site

    # -- interconnect ------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The shared link topology (one instance per cluster; every
        job's fabric routes through it, so concurrent jobs' collectives
        contend)."""
        if self._topology is None:
            if self.topology_name == "hierarchical":
                self._topology = Hierarchical(
                    self.env,
                    latency=self.link_latency,
                    bandwidth=self.link_bandwidth,
                    intra_latency=self.hardware.intra_node_latency,
                    intra_bandwidth=self.hardware.intra_node_bandwidth,
                    gpus_per_node=self.gpus_per_node,
                    intra_params={
                        node: (hw.intra_node_latency, hw.intra_node_bandwidth)
                        for node, hw in self._hw_map.items()
                    },
                )
            else:
                self._topology = FlatRing(
                    self.env, self.link_latency, self.link_bandwidth
                )
        return self._topology

    def storage_nic(self, node: int, cls: str, tenant=None, sink=None):
        """The ``cls``-class stream a node's storage bytes traverse when
        storage is remote (``storage_over_nic``): ``"loader"`` for cache
        misses, ``"checkpoint"`` for snapshot writes and restore reads.
        None when storage traffic stays off-NIC.  One stream per (tenant,
        node, class): tenants' storage traffic contends max-min fair on
        the node's shared NIC link with each other and with collective
        streams, while staying separately attributed."""
        if not self.storage_over_nic:
            return None
        return self.topology.nic_link(node).stream(
            (tenant, node, cls), cls, sink
        )

    def peer_link(self, node: int):
        """The shared NIC link ``node`` streams bulk peer-to-peer traffic
        over -- a restore-from-peer checkpoint stream, for one.  It is the
        same inter-scope link the node's collective streams use, so a peer
        restore genuinely contends with collectives (and with loader
        misses when ``storage_over_nic``)."""
        return self.topology.nic_link(node)

    def peer_stream(self, node: int, tenant=None, sink=None):
        """A checkpoint-class stream on ``node``'s NIC link for bulk
        peer-to-peer state transfer (restore-from-peer)."""
        return self.peer_link(node).stream(
            (tenant, node, "peer"), "checkpoint", sink
        )
