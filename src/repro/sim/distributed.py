"""Distributed (multi-node) training extension (paper §6).

The paper argues MinatoLoader generalizes to distributed data-parallel
training: every node runs its own loader instance over a shard of the
dataset, and the per-node preprocessing/batch-construction benefits carry
over unchanged, with gradient synchronization coupling the nodes per step.

This module simulates that setting: ``nodes`` machines (identical by
default, optionally heterogeneous via ``node_hardware``), each with its own
storage, CPU pool and GPUs, plus per-step gradient synchronization across
the cluster.  Every collective runs on the modelled
:class:`~repro.sim.fabric.RingFabric`: per-link simulated transfers over
2(W-1) ring stages, so a late rank delays its ring *neighbors* first and a
mid-step failure stalls the ring only until the failure detector fires.
The closed forms (:meth:`AllReduceModel.step_cost` /
:meth:`AllReduceModel.hierarchical_step_cost`) are what the ring converges
to on a homogeneous cluster -- the reference the tests hold it to, never
production input: whether a collective may collapse is the fabric's
decision alone, its own walk priced against the deadline the step loop
passes with each overlapped bucket.

The dataset is *sharded* across nodes with
:class:`~repro.data.samplers.ShardedSampler` semantics: each node's loader
samples a disjoint, equal-length slice of every epoch's global shuffle
(wrap-around padded when the dataset does not divide evenly), so the
cluster collectively covers the dataset once per epoch instead of every
node redundantly processing all of it.

Synchronization is layered: a *topology* (:mod:`repro.sim.topology`) owns
the links -- ``topology="flat"`` is one world-wide NIC-class ring,
``"hierarchical"`` puts each node's GPUs on fast intra-node (NVLink-class)
links with one NIC-class inter-node ring -- the *collective layer*
(:mod:`repro.sim.fabric`) executes ring ``reduce_scatter`` / ``all_gather``
primitives over those links, and the *step loop* here splits each step's
gradient into ``buckets`` slices whose collectives launch as soon as their
slice of backward completes (``overlap=True``), so synchronization hides
behind backprop and only the non-overlapped remainder
(``exposed_sync_seconds``) extends the step -- PyTorch DDP's gradient
bucketing over NCCL's hierarchical rings, in model form.

Resource ownership lives one layer below, in :mod:`repro.sim.cluster`: a
:class:`~repro.sim.cluster.Cluster` owns the kernel, the membership, the
link topology and the per-node storage/cache/CPU sites.  A *job*
(:class:`_ElasticJob`, the round executor) is a :class:`JobSpec` submitted
to a cluster -- those two records are the only configuration: every
job-owned knob is a ``JobSpec`` field, every resource-owned one a
``Cluster`` parameter, each declared, defaulted, documented and validated
there and nowhere else.  :func:`run_elastic` is the one keyword door: it
sorts its keywords into the two (building a private cluster when none is
passed -- byte-identical to the pre-refactor single-tenant behaviour,
pinned by the kernel-equivalence tests).  Several
jobs submitted to one shared cluster
(:class:`~repro.sim.scenarios.JobMix`) contend for the same links, caches,
storage pipes and cores.

:func:`run_elastic` runs a :class:`~repro.sim.cluster.ClusterMembership`
schedule of join/leave/fail events with epoch-boundary re-sharding (every
surviving node's sampler is re-derived via ``ShardedSampler.reshard``) and,
for iteration-budgeted workloads, re-splits the remaining cluster-wide step
budget across the surviving membership.  A static cluster is elastic with
an empty event schedule, so the DDP step loop and the fabric wiring exist
exactly once.

Re-sharding is *locality-aware* when ``reshard="locality"``: shards use
:class:`~repro.data.samplers.ShardedSampler`'s contiguous-block layout and a
:class:`~repro.data.samplers.ShardAssignment` keeps each survivor on the new
block that overlaps its old shard most, so the warmup cost of a membership
change (measured per epoch per node via
:meth:`~repro.data.storage.PageCache.snapshot` deltas in
:class:`DistributedResult`) is minimized instead of silently paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import ceil
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..contracts import count, nonnegative, positive
from ..data.samplers import ShardAssignment, ShardedSampler
from ..data.storage import CacheSnapshot
from ..engine.metrics import ExactSum, ExactSums
from ..errors import ConfigurationError
from .checkpoint import CheckpointAccounting, CheckpointPolicy
from .cluster import (
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_LINK_LATENCY,
    Cluster,
    ClusterMembership,
    MembershipEvent,
    PartitionEvent,
    RoundSchedule,
    read_schedule,
)
from .fabric import RingFabric
from .kernel import AllOf, Event, Interrupt
from .loaders import SimContext, run_until
from .runner import make_sim_loader
from .workloads import HardwareConfig, WorkloadSpec

__all__ = [
    "AllReduceModel",
    "CheckpointPolicy",
    "Cluster",
    "ClusterMembership",
    "DistributedResult",
    "JobSpec",
    "MembershipEvent",
    "PartitionEvent",
    "run_elastic",
]

#: ``JobSpec.fabric`` has one legal value: the field survives only because
#: ``perfbench/workloads.py`` passes ``fabric="ring"`` to :func:`run_elastic`
#: and ``perfbench/`` changes in ``benchmark`` PRs alone -- the next one
#: drops that keyword, and the field and this tuple go with it (ROADMAP)
FABRICS = ("ring",)


@dataclass(frozen=True)
class AllReduceModel:
    """Per-step gradient synchronization cost across the whole cluster."""

    #: per-hop latency of one ring stage (network RTT-ish)
    latency: float = DEFAULT_LINK_LATENCY
    #: gradient bytes exchanged per step
    gradient_bytes: float = 400e6
    #: interconnect bandwidth per node (bytes/s)
    bandwidth: float = DEFAULT_LINK_BANDWIDTH  # 200 Gb/s

    def __post_init__(self) -> None:
        nonnegative("latency", self.latency)
        nonnegative("gradient_bytes", self.gradient_bytes)
        positive("bandwidth", self.bandwidth)

    def step_cost(
        self, world_size: int, nbytes: Optional[float] = None
    ) -> float:
        """Closed-form flat ring all-reduce: 2(W-1) stages, each one hop of
        latency plus one chunk (``nbytes / W``, defaulting to the full
        ``gradient_bytes``) over the per-rank link.  This is exactly what
        the modelled :class:`~repro.sim.fabric.RingFabric` converges to on
        a homogeneous cluster where every rank enters the collective
        together."""
        if world_size <= 1:
            return 0.0
        nbytes = self.gradient_bytes if nbytes is None else nbytes
        stages = 2 * (world_size - 1)
        return stages * (self.latency + nbytes / (world_size * self.bandwidth))

    def hierarchical_step_cost(
        self,
        nodes: int,
        gpus_per_node: int,
        intra_latency: float,
        intra_bandwidth: float,
        nbytes: Optional[float] = None,
    ) -> float:
        """Closed-form hierarchical all-reduce over ``nodes`` x ``G`` ranks.

        Intra-node reduce + broadcast are ring passes over the node's ``G``
        GPUs on intra-node links (``2(G-1)`` stages of ``nbytes / G``
        chunks); the inter-node phase is a ring all-reduce of each GPU's
        ``nbytes / G`` shard across nodes through the NIC's per-stream fair
        share (``2(N-1)`` stages moving ``nbytes / N`` per node per
        stage)::

            2(G-1) (l_intra + B / (G bw_intra)) + 2(N-1) (l + B / (N bw))

        Only ``1/G`` of the gradient crosses a NIC and the inter-node
        latency term pays ``2(N-1)`` hops instead of the flat ring's
        ``2(NG-1)``.  The modelled hierarchical fabric converges to this
        exactly on homogeneous clusters (cross-checked in tests).
        """
        if nodes < 1 or gpus_per_node < 1:
            raise ConfigurationError(
                f"nodes and gpus_per_node must be >= 1, got "
                f"{nodes!r} x {gpus_per_node!r}"
            )
        if not intra_bandwidth > 0:
            raise ConfigurationError(
                f"intra_bandwidth must be positive, got {intra_bandwidth!r}"
            )
        if not intra_latency >= 0:
            raise ConfigurationError(
                f"intra_latency must be >= 0, got {intra_latency!r}"
            )
        nbytes = self.gradient_bytes if nbytes is None else nbytes
        intra = 0.0
        if gpus_per_node > 1:
            intra = 2 * (gpus_per_node - 1) * (
                intra_latency + nbytes / (gpus_per_node * intra_bandwidth)
            )
        inter = 0.0
        if nodes > 1:
            inter = 2 * (nodes - 1) * (
                self.latency + nbytes / (nodes * self.bandwidth)
            )
        return intra + inter


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class DistributedResult:
    """Outcome of one multi-node simulated run.

    Every run reports per-epoch fields (``epoch_membership`` /
    ``epoch_shard_sizes`` / ``epoch_coverage`` / ``epoch_shard_overlap`` /
    ``epoch_cache_deltas``); for a static run the membership rows are
    constant, for an elastic run they track the schedule: a node that left
    mid-run appears in the epochs it participated in and its utilization is
    measured over its own active window, not the full run.
    """

    loader: str
    workload: str
    nodes: int
    gpus_per_node: int
    training_time: float
    steps: int
    samples: int
    #: mean train-tag GPU utilization across every GPU in the cluster
    gpu_utilization: float
    #: mean CPU utilization across nodes
    cpu_utilization: float
    #: total seconds ranks spent inside gradient collectives, entry to
    #: completion, waits on late ring neighbors included (that wait is the
    #: coupling the fabric models).  With ``overlap=True`` this counts
    #: every bucket collective's full duration even while it runs under
    #: backprop -- compare ``exposed_sync_seconds`` for the part that
    #: actually extended the step.
    sync_seconds_total: float = 0.0
    #: seconds of synchronization *not* hidden behind backprop (summed over
    #: ranks): in serial mode this equals ``sync_seconds_total``; with
    #: bucketed overlap it is each step's wait after the last compute slice
    #: finished.  Always <= ``sync_seconds_total``.
    exposed_sync_seconds: float = 0.0
    #: total gradient bytes each rank pushed through collectives (summed
    #: over ranks); bucketing re-slices but never changes this
    gradient_bytes_synced: float = 0.0
    #: which link topology the collectives ran over ("flat"/"hierarchical")
    topology: str = "flat"
    #: whether bucket collectives launched during backprop
    overlap: bool = False
    #: gradient bucket count per step
    buckets: int = 1
    #: per-node samples per epoch, measured from each loader's own sampler
    #: (elastic runs: the *final* epoch's shards; see epoch_shard_sizes)
    shard_sizes: List[int] = field(default_factory=list)
    #: per-node mean CPU utilization (exposes stragglers); aligned with
    #: node_ids and measured over each node's own active window
    per_node_cpu_utilization: List[float] = field(default_factory=list)
    #: per-node hardware config names (heterogeneous-cluster runs)
    node_hardware_names: List[str] = field(default_factory=list)
    #: every node id that ever participated (aligned with per-node lists)
    node_ids: List[int] = field(default_factory=list)
    #: seconds each node was part of the cluster (aligned with node_ids)
    per_node_active_seconds: List[float] = field(default_factory=list)
    #: node ids active in each epoch (elastic runs)
    epoch_membership: List[List[int]] = field(default_factory=list)
    #: per-epoch shard sizes, aligned with epoch_membership (elastic runs)
    epoch_shard_sizes: List[List[int]] = field(default_factory=list)
    #: distinct dataset samples consumed in each epoch (elastic runs); a
    #: fully covered epoch equals the dataset size
    epoch_coverage: List[int] = field(default_factory=list)
    #: which re-shard policy assigned rank slots ("stride" or "locality")
    reshard_policy: str = "stride"
    #: per-epoch, per-node fraction of this round's shard already held in
    #: the node's previous-round shard (aligned with epoch_membership;
    #: 0.0 for a node's first round) -- the quantity locality-preserving
    #: re-sharding maximizes
    epoch_shard_overlap: List[List[float]] = field(default_factory=list)
    #: per-epoch, per-node page-cache deltas (aligned with
    #: epoch_membership): hits/misses/evictions plus hit/miss bytes paid in
    #: that round; miss bytes after a membership change are the re-shard's
    #: cache-warmup cost.  On a shared (multi-tenant) cluster these deltas
    #: are cache-wide -- the node's cache serves every tenant; the
    #: ``cache_hit_bytes`` / ``cache_miss_bytes`` fields below are this
    #: job's own traffic, exact in either case.
    epoch_cache_deltas: List[List[CacheSnapshot]] = field(default_factory=list)
    #: per-epoch, per-node *stale* cache bytes measured right after the
    #: round's re-shard (aligned with epoch_membership): bytes cached for
    #: samples the node no longer owns.  A locality re-shard that abandons
    #: part of a survivor's old block shows up here as invalidation
    #: pressure instead of silently inflating hit rates.
    epoch_stale_bytes: List[List[float]] = field(default_factory=list)
    #: page-cache capacity (bytes) per node, aligned with node_ids --
    #: heterogeneous when node_hardware overrides cache_fraction
    per_node_cache_bytes: List[float] = field(default_factory=list)
    #: ring-fabric collectives served by the homogeneous-rank collapsed
    #: fast path (0 when it never engaged -- heterogeneity, churn, or
    #: ``collapse=False``); purely observability, never affects timing
    collapsed_collectives: int = 0
    #: kernel events processed by the run's Environment (the benchmark
    #: suite's denominator; collapse shrinks it, virtual time unchanged).
    #: On a shared cluster this counts the whole cluster's kernel, not one
    #: job's slice.
    sim_events: int = 0
    #: this job's id within a multi-tenant mix ("job0" for solo runs)
    job_id: str = "job0"
    #: bytes this job's loaders served from the page cache / had to fetch
    #: from the storage device (per-tenant exact, even on a shared cache)
    cache_hit_bytes: float = 0.0
    cache_miss_bytes: float = 0.0
    #: seconds this job's cache-miss reads queued behind earlier traffic on
    #: the storage pipe (and the NIC, when the cluster routes storage over
    #: it) before their own transfer started -- storage contention,
    #: measured as each hop completes
    storage_wait_seconds: float = 0.0
    #: seconds this job's collective sends queued on their own streams
    #: before starting (ring fabric), measured as each completes: bucket
    #: overlap, not cross-job contention -- other tenants ride other
    #: streams, so their traffic shows up in ``link_wait_by_class``
    link_wait_seconds: float = 0.0
    #: completion-attributed link wait per traffic class
    #: (``collective`` / ``loader`` / ``checkpoint``): own-stream queueing
    #: plus fair-sharing slowdown versus an idle link, summed over this
    #: job's streams on the shared-link layer.  Empty when the job never
    #: opened a stream of any class.
    link_wait_by_class: Dict[str, float] = field(default_factory=dict)
    #: homogeneous-rank collapse attempts vetoed because loader/checkpoint
    #: cross-class traffic was in flight on a link the collective needed
    #: (observability, like ``collapsed_collectives``)
    collapse_cross_vetoes: int = 0
    #: seconds of ring deliveries stalled by network partition windows
    #: (the fabric stalls-and-heals instead of aborting)
    partition_stall_seconds: float = 0.0
    #: wall seconds ranks spent writing periodic state snapshots through
    #: their nodes' storage pipes (pipe queueing included); 0.0 without a
    #: :class:`~repro.sim.checkpoint.CheckpointPolicy`
    checkpoint_write_seconds: float = 0.0
    #: wall seconds of post-failure recovery: restore transfer (storage
    #: re-read or peer stream) plus lost-step replay
    restore_seconds: float = 0.0
    #: optimizer steps lost to failures -- progress since the last
    #: completed snapshot, re-executed during recovery (not re-counted
    #: in ``steps``)
    lost_steps: int = 0
    #: snapshot bytes written through the storage pipes
    checkpoint_bytes: float = 0.0

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    @property
    def epoch_miss_bytes(self) -> List[float]:
        """Cluster-wide cache-warmup bytes per epoch (summed over nodes)."""
        return [
            float(sum(delta.miss_bytes for delta in round_deltas))
            for round_deltas in self.epoch_cache_deltas
        ]

    @property
    def epoch_stale_bytes_total(self) -> List[float]:
        """Cluster-wide invalidation pressure per epoch (summed over
        nodes): cached bytes for samples the re-shard took away."""
        return [
            float(sum(row)) for row in self.epoch_stale_bytes
        ]

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of synchronization hidden behind backprop
        (0 for serial runs with nonzero sync)."""
        if self.sync_seconds_total <= 0:
            return 0.0
        return 1.0 - self.exposed_sync_seconds / self.sync_seconds_total

    @property
    def epoch_mean_overlap(self) -> List[float]:
        """Mean per-node shard overlap per epoch."""
        return [
            sum(row) / len(row) if row else 0.0
            for row in self.epoch_shard_overlap
        ]

    @property
    def link_contention_seconds(self) -> float:
        """Everything this job spent queueing on shared transport: storage
        pipe waits, collective link waits and partition stalls."""
        return (
            self.storage_wait_seconds
            + self.link_wait_seconds
            + self.partition_stall_seconds
        )

    def summary(self) -> str:
        """One compact line -- the CLI's scenario output format, instead of
        dumping raw per-epoch lists."""
        gib = 1024.0 ** 3
        touched = self.cache_hit_bytes + self.cache_miss_bytes
        line = (
            f"{self.job_id}: {self.loader}/{self.workload} "
            f"[{self.topology}"
            f"{'/overlap' if self.overlap else ''}] "
            f"{self.nodes}x{self.gpus_per_node} ranks | "
            f"{self.steps} steps, {self.samples} samples, "
            f"{self.training_time:.2f}s | "
            f"sync {self.sync_seconds_total:.2f}s "
            f"(exposed {self.exposed_sync_seconds:.2f}s) | "
            f"gpu {self.gpu_utilization:.0%} cpu {self.cpu_utilization:.0%} | "
            f"cache hit {self.cache_hit_bytes / gib:.2f}/"
            f"{touched / gib:.2f} GiB | "
            f"waits: storage {self.storage_wait_seconds:.2f}s "
            f"links {self.link_wait_seconds:.2f}s "
            f"partition {self.partition_stall_seconds:.2f}s"
        )
        if self.link_wait_by_class:
            by_class = self.link_wait_by_class
            line += (
                " | link wait: coll "
                f"{by_class.get('collective', 0.0):.2f}s "
                f"loader {by_class.get('loader', 0.0):.2f}s "
                f"ckpt {by_class.get('checkpoint', 0.0):.2f}s"
            )
        if self.checkpoint_bytes or self.restore_seconds or self.lost_steps:
            line += (
                f" | ckpt: write {self.checkpoint_write_seconds:.2f}s "
                f"restore {self.restore_seconds:.2f}s "
                f"lost {self.lost_steps} steps"
            )
        return line


# ---------------------------------------------------------------------------
# The job record and the keyword front door
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One training job, as submitted to a :class:`~repro.sim.cluster.Cluster`.

    Every *job-owned* knob is a field here, and only here; everything
    resource-shaped (membership, topology, link parameters, per-node
    hardware, caches, the kernel) belongs to the cluster the job runs on.
    """

    job_id: str
    loader: str
    workload_name: str
    #: virtual seconds after t=0 at which the job starts its first round
    arrival: float = 0.0
    #: tie-break weight: at equal virtual timestamps, a higher-priority
    #: job's processes are scheduled first (its link transfers win the
    #: tie); must be >= 0
    priority: int = 0
    #: per-step gradient bytes this job synchronizes (the one
    #: AllReduceModel knob a tenant may set; link params are cluster-owned)
    gradient_bytes: float = AllReduceModel.gradient_bytes
    #: dataset-size override for the synthetic workload (None: default)
    dataset_size: Optional[int] = None
    #: forwarded to the loader model's constructor
    loader_kwargs: Optional[dict] = None
    #: at most one of epochs / total_steps bounds the job (falling back to
    #: the workload's own budget when both are None).  ``epochs`` overrides
    #: an epoch-based workload's ``epochs``; ``total_steps`` fixes a
    #: *cluster-wide* step budget (overriding ``workload.iterations``) that
    #: every boundary re-splits across the current membership, so a
    #: shrunken cluster runs more rounds rather than losing steps
    epochs: Optional[int] = None
    total_steps: Optional[int] = None
    #: every job synchronizes on the modelled ring (see ``FABRICS``)
    fabric: str = "ring"
    #: seconds the ring's failure detector takes to declare a silent rank
    #: dead -- the most a failure can stall its survivors; must be >= 0
    detection_timeout: float = 1.0
    #: ``"stride"``: rank slot = ``sorted(active)`` position, stride-sliced
    #: shards; ``"locality"``: contiguous-block shards with the slot
    #: assignment maximizing each survivor's overlap with its previous
    #: shard, minimizing the re-shard's cache-warmup bytes
    reshard: str = "stride"
    #: ``buckets`` splits every step's gradient into that many slices, each
    #: synchronized by its own collective; with ``overlap=True`` a bucket's
    #: collective launches as soon as its slice of backward completes, so
    #: only the non-overlapped remainder (``exposed_sync_seconds``) extends
    #: the step.  ``overlap=False, buckets=1`` on a flat topology
    #: reproduces the pre-refactor runner exactly (equivalence-pinned)
    overlap: bool = False
    buckets: int = 1
    #: let the ring fabric serve homogeneous all-entered-together
    #: collectives with one representative-rank schedule -- timing-identical
    #: by construction, far fewer kernel events.  Off for rounds with an
    #: armed fail; the fabric's own vetoes are listed in
    #: :mod:`repro.sim.fabric`
    collapse: bool = True
    #: periodic replica snapshots written through the nodes' storage pipes,
    #: restore (from storage or a surviving peer) plus lost-step replay
    #: after every fail event.  ``None``: state recovery stays free and
    #: the run is byte-identical to a checkpoint-less build -- the policy
    #: is strictly pay-as-you-go
    checkpoint: Optional[CheckpointPolicy] = None

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id:
            raise ConfigurationError(
                f"job_id must be a non-empty string, got {self.job_id!r}"
            )
        job = f"job {self.job_id!r}: "
        count(job + "priority", self.priority, lo=0)
        nonnegative(job + "arrival", self.arrival)
        nonnegative(job + "gradient_bytes", self.gradient_bytes)
        nonnegative(job + "detection_timeout", self.detection_timeout)
        count(job + "buckets", self.buckets)
        for name in ("dataset_size", "epochs", "total_steps"):
            if getattr(self, name) is not None:
                count(job + name, getattr(self, name))
        if self.fabric not in FABRICS:
            raise ConfigurationError(
                f"fabric must be one of {FABRICS}, got {self.fabric!r} (the "
                f"analytic mode was removed: AllReduceModel.step_cost is the "
                f"closed form to compare a ring run's sync per step against)"
            )
        if self.total_steps is not None and self.epochs is not None:
            raise ConfigurationError(
                "total_steps fixes a cluster-wide step budget; it cannot be "
                "combined with an epochs override"
            )
        if self.checkpoint is not None and not isinstance(
            self.checkpoint, CheckpointPolicy
        ):
            raise ConfigurationError(
                f"checkpoint must be a CheckpointPolicy, "
                f"got {self.checkpoint!r}"
            )


#: keywords :func:`run_elastic` hands to ``JobSpec(...)``: every field
#: except the identity ones it fills from its positional arguments, the
#: mix-only ``arrival`` / ``priority``, and ``gradient_bytes`` (which
#: arrives inside ``allreduce=``)
_JOB_KNOBS = frozenset(f.name for f in fields(JobSpec)) - {
    "job_id",
    "loader",
    "workload_name",
    "dataset_size",
    "arrival",
    "priority",
    "gradient_bytes",
}
#: keywords it hands to ``Cluster(...)`` (besides ``membership`` /
#: ``hardware``, and the link parameters inside ``allreduce=``)
_CLUSTER_KNOBS = (
    "node_hardware",
    "gpus_per_node",
    "cache_fraction",
    "topology",
)


def run_elastic(
    loader_name: str,
    workload: WorkloadSpec,
    hardware: HardwareConfig,
    membership: Optional[ClusterMembership] = None,
    *,
    allreduce: Optional[AllReduceModel] = None,
    cluster: Optional[Cluster] = None,
    **knobs,
) -> DistributedResult:
    """Simulate elastic data-parallel training over a membership schedule.

    One :class:`JobSpec` run alone on one
    :class:`~repro.sim.cluster.Cluster`.  Each remaining keyword is either
    a ``JobSpec`` field (``reshard``, ``total_steps``, ``overlap``,
    ``buckets``, ``checkpoint``, ...) or a ``Cluster`` parameter
    (``gpus_per_node``, ``node_hardware``, ``cache_fraction``,
    ``topology``) -- documented, defaulted and validated there; anything
    else is a ``TypeError``.  ``allreduce`` carries the cluster's link
    latency/bandwidth plus the job's ``gradient_bytes``.  Without
    ``cluster`` a private one is built from ``membership``, ``hardware``
    and the resource-shaped keywords; with one, the cluster owns them, and
    any repeated beside it must equal the cluster's value.

    A static cluster is ``ClusterMembership(nodes)``: an empty schedule.
    ``total_steps`` is cluster-wide (a per-GPU budget is ``steps_per_gpu *
    nodes * gpus_per_node``); left out on an iteration workload, it is
    ``workload.iterations``, which a static cluster runs as
    ``ceil(iterations / world)`` steps on every GPU.

    Execution is epoch-wise.  At each epoch boundary the pending join/leave
    events are applied, a :class:`~repro.data.samplers.ShardAssignment`
    maps the surviving membership to rank slots, and every member's
    :class:`~repro.data.samplers.ShardedSampler` is re-derived for the new
    membership via ``reshard(world_size, rank)`` -- so each epoch the
    surviving cluster again covers the dataset with disjoint, equal-length
    shards -- and each node's loader is re-created on its new shard with
    :meth:`~repro.sim.loaders.BaseSimLoader.rebind_shard`
    (DistributedSampler re-creation semantics; every clone reads the
    workload's one cost table).  Fail events fire *mid-epoch*: the node's
    GPU processes are interrupted, its loader is halted, and the
    synchronization fabric is told to abort its ranks so the survivors
    stall at most ``detection_timeout``, never forever.

    Every round records, per node, the shard-overlap fraction with the
    node's previous round and the page-cache counter deltas
    (``epoch_shard_overlap`` / ``epoch_cache_deltas`` on the result): the
    miss bytes of the round after a membership change are the re-shard's
    cache-warmup cost, the quantity ``reshard="locality"`` minimizes.
    """
    for name in knobs:
        if name not in _JOB_KNOBS and name not in _CLUSTER_KNOBS:
            raise TypeError(
                f"run_elastic() got an unexpected keyword argument {name!r}"
            )
    resources = {k: knobs.pop(k) for k in _CLUSTER_KNOBS if k in knobs}
    if allreduce is not None:
        resources["link_latency"] = allreduce.latency
        resources["link_bandwidth"] = allreduce.bandwidth
        knobs["gradient_bytes"] = allreduce.gradient_bytes
    if cluster is not None:
        cluster.check_owned(
            membership=membership, hardware=hardware, **resources
        )
    elif membership is None:
        raise ConfigurationError(
            "a job needs a ClusterMembership or an explicit cluster"
        )
    else:
        cluster = Cluster(membership, hardware, **resources)
    spec = JobSpec("job0", loader_name, workload.name, **knobs)
    return _ElasticJob(cluster, spec, workload).execute()


class _RoundState:
    """Mutable per-round scratch of one job (one epoch / budget span).

    A round is the job's current one (``job._round is rnd``) from the
    boundary that begins it until its rank processes have all ended; what
    was started for it -- its fail controllers -- asks that before acting,
    so nothing armed for one round fires into the recovery after it or
    into another round.
    """

    def __init__(
        self, index: int, schedule: RoundSchedule, gpus_per_node: int
    ) -> None:
        self.index = index
        #: the boundary's reading of the membership schedule
        self.schedule = schedule
        self.nodes: List[int] = sorted(schedule.active)
        self.world_nodes = len(self.nodes)
        self.world_ranks = self.world_nodes * gpus_per_node
        self.passes = 1
        self.gpu_steps: List[int] = []
        self.node_budget = 0
        self.samples_budget: Optional[int] = None
        self.bucket_bytes = 0.0
        self.loaders: Dict[int, object] = {}
        self.procs: Dict[int, List] = {}
        self.coverage: Set[int] = set()
        self.steps = 0
        self.shards: Dict[int, frozenset] = {}
        self.stale: List[float] = []
        self.overlap_frac: List[float] = []
        self.cache_before: Dict[int, CacheSnapshot] = {}


class _ElasticJob:
    """One elastic data-parallel training job submitted to a cluster.

    ``__init__`` is where job meets cluster: the cross-checks that need
    both records, then resource wiring.  The round loop is the :meth:`run`
    generator (so a cluster can interleave many jobs in one kernel), with
    per-round planning/spawning/recording as methods; :meth:`execute`
    drives the cluster's kernel for a job running alone (the job process
    adds exactly one initialization event over the pre-refactor inline
    loop, which shifts every event id uniformly and leaves all virtual
    timestamps and orderings unchanged; pinned by the kernel-equivalence
    suite).  ``cache_namespace`` keys this job's page-cache entries apart
    from other tenants' on a shared cluster.
    """

    def __init__(
        self,
        cluster: Cluster,
        spec: JobSpec,
        workload: WorkloadSpec,
        cache_namespace=None,
    ) -> None:
        membership = cluster.membership
        if spec.epochs is not None and workload.iterations is not None:
            raise ConfigurationError(
                "epochs override requires an epoch-based workload; rebuild the "
                "workload with epochs instead of iterations (loader tail "
                "semantics differ between the two budgets)"
            )

        self.cluster = cluster
        self.env = cluster.env
        self.membership = membership
        self.spec = spec
        self.workload = workload
        self.hardware = cluster.hardware
        self.gpus_per_node = cluster.gpus_per_node
        self.topology = cluster.topology_name
        # read every step by the step loop: plain attributes, not spec hops
        self.overlap = spec.overlap
        self.buckets = spec.buckets
        self.job_id = spec.job_id
        self.checkpoint = spec.checkpoint
        self.cache_namespace = cache_namespace
        #: checkpoint bookkeeping; None exactly when no policy is attached
        #: (every hook below is guarded, so the no-checkpoint path issues
        #: zero extra kernel events -- equivalence-pinned)
        self.ckpt: Optional[CheckpointAccounting] = (
            CheckpointAccounting() if spec.checkpoint is not None else None
        )

        self.assignment = ShardAssignment(spec.reshard)
        loader_kwargs = spec.loader_kwargs or {}
        self.seed = loader_kwargs.get("seed", 0)
        self.n_samples = len(workload.dataset)
        self.batch_size = workload.batch_size
        self.epoch_mode = spec.total_steps is None and (
            workload.epochs is not None or spec.epochs is not None
        )
        self.total_epochs = (
            spec.epochs if spec.epochs is not None else workload.epochs
        )
        if self.epoch_mode:
            self.remaining_steps = None
        else:
            self.remaining_steps = (
                spec.total_steps
                if spec.total_steps is not None
                else workload.iterations
            )

        # the job's bytes and detector over the cluster's shared links (so
        # concurrent jobs' collectives contend); partition windows stall
        # cross-cut deliveries until they heal
        self.ring = RingFabric(
            self.env,
            latency=cluster.link_latency,
            bandwidth=cluster.link_bandwidth,
            gradient_bytes=spec.gradient_bytes,
            detection_timeout=spec.detection_timeout,
            topology=cluster.topology,
            partitions=membership if membership.partitions else None,
        )

        # one template loader, cloned per (node, epoch)
        self.template = make_sim_loader(spec.loader, **loader_kwargs)

        #: this job's completion-attributed per-class link wait: the sink
        #: shared by its loader / checkpoint streams; merged with the ring
        #: fabric's collective-class sink in :meth:`result`
        self.link_wait_by_class = ExactSums()

        self.active: FrozenSet[int] = frozenset(range(membership.initial_nodes))
        #: membership events no round boundary has consumed yet, in
        #: schedule order; only a boundary's read_schedule replaces it
        self.pending: Tuple[MembershipEvent, ...] = membership.events
        self.samplers: Dict[int, ShardedSampler] = {}
        self.contexts: Dict[int, SimContext] = {}
        self.activated_at: Dict[int, float] = {}
        self.deactivated_at: Dict[int, float] = {}
        self.counters = {
            "steps": 0,
            "samples": 0,
            "sync": ExactSum(),
            "exposed": ExactSum(),
            "grad_bytes": 0.0,
        }
        self.epoch_membership: List[List[int]] = []
        self.epoch_shard_sizes: List[List[int]] = []
        self.epoch_coverage: List[int] = []
        self.epoch_shard_overlap: List[List[float]] = []
        self.epoch_cache_deltas: List[List[CacheSnapshot]] = []
        self.epoch_stale_bytes: List[List[float]] = []
        #: each node's shard index set from the round before (locality
        #: input and overlap-reporting baseline)
        self.prev_shards: Dict[int, frozenset] = {}

        self.round_index = 0
        #: the current round; None before the first, between rounds (in
        #: recovery too) and after the job ends
        self._round: Optional[_RoundState] = None
        self.started_at = 0.0
        self.finished_at: Optional[float] = None

    # -- driving -----------------------------------------------------------

    def execute(self) -> DistributedResult:
        """Single-tenant path: drive the private cluster's kernel to this
        job's completion and return its result."""
        proc = self.env.process(self.run())
        run_until(self.env, proc, self.live_loaders)
        return self.result()

    def live_loaders(self):
        """``(label, loader)`` for the current round's loaders."""
        loaders = self._round.loaders if self._round is not None else {}
        return [
            (f"{self.job_id}/node{node}", loader)
            for node, loader in loaders.items()
        ]

    def run(self):
        """The job as a kernel process (a generator): round loop with a
        completion barrier per round.  A shared cluster runs many of these
        concurrently in one kernel."""
        if self.spec.arrival > 0:
            yield self.env.timeout(self.spec.arrival)
        self.started_at = self.env.now
        while True:
            if self.epoch_mode and self.round_index >= self.total_epochs:
                break
            if not self.epoch_mode and self.remaining_steps <= 0:
                break
            rnd = self._begin_round()
            yield AllOf(
                self.env, [proc for procs in rnd.procs.values() for proc in procs]
            )
            # the round is over: a fail coming due from here on (during
            # recovery, say) stays pending for the next boundary
            self._round = None
            self._record_round(rnd)
            if self.ckpt is not None and self.ckpt.pending_restore:
                yield from self._recover()
        self.finished_at = self.env.now

    # -- round boundary ----------------------------------------------------

    def _begin_round(self) -> _RoundState:
        """Read the membership schedule, re-shard, plan budgets, spawn
        this round's loaders/processes/fail controllers."""
        boundary_now = self.env.now
        schedule = read_schedule(
            self.pending, self.active, self.round_index, boundary_now
        )
        for node in self.active - schedule.active:
            self.deactivated_at[node] = boundary_now
        self.active = schedule.active
        self.pending = schedule.pending
        if not self.active:
            raise ConfigurationError(
                "membership schedule empties the cluster before the "
                "workload's budget is exhausted"
            )
        rnd = _RoundState(self.round_index, schedule, self.gpus_per_node)
        self._round = rnd

        self._reshard_round(rnd, boundary_now)
        self._plan_budgets(rnd)
        self._spawn_round(rnd)
        return rnd

    def _reshard_round(self, rnd: _RoundState, boundary_now: float) -> None:
        """Epoch-boundary re-sharding: slot assignment, sampler re-derive,
        context creation for first-seen nodes, staleness/overlap probes."""
        # stride: slot = sorted(active) position; locality: the stable
        # assignment keeping each survivor on the new block that overlaps
        # its previous shard most
        slot_map = self.assignment.assign(
            rnd.nodes, self.prev_shards, self.n_samples, seed=self.seed
        )
        for node in rnd.nodes:
            if node in self.samplers:
                self.samplers[node] = self.samplers[node].reshard(
                    rnd.world_nodes, slot_map[node], epoch_offset=rnd.index
                )
            else:
                self.samplers[node] = ShardedSampler(
                    self.n_samples,
                    rank=slot_map[node],
                    world_size=rnd.world_nodes,
                    seed=self.seed,
                    epoch_offset=rnd.index,
                    layout=self.assignment.layout,
                )
                node_hw = self.cluster.hw_for(node)
                self.contexts[node] = SimContext(
                    self.env,
                    self.workload,
                    node_hw,
                    self.gpus_per_node,
                    # storage pipe / page cache / CPU cores come from the
                    # cluster's NodeSite (sized there, per-node
                    # cache_fraction overrides included); GPUs stay
                    # per-job -- tenants get disjoint GPU allocations
                    record_transfers=False,
                    site=self.cluster.site(node),
                    # loader-class stream on the node's shared NIC link
                    # (None when storage stays off-NIC): this job's miss
                    # traffic contends fluidly with collectives and other
                    # tenants, attributed into its per-class wait sink
                    nic=self.cluster.storage_nic(
                        node, "loader", self.job_id, self.link_wait_by_class
                    ),
                    cache_namespace=self.cache_namespace,
                )
                self.activated_at[node] = boundary_now
        rnd.shards = {
            node: self.samplers[node].shard_indices() for node in rnd.nodes
        }
        # invalidation pressure: bytes each survivor still caches for
        # samples its new shard no longer owns (measured at the re-shard,
        # before the round warms anything up; scoped to this job's
        # namespace on shared caches)
        rnd.stale = [
            self.contexts[node].cache.stale_bytes(
                rnd.shards[node], namespace=self.cache_namespace
            )
            for node in rnd.nodes
        ]
        rnd.overlap_frac = [
            (
                len(rnd.shards[node] & self.prev_shards[node])
                / max(len(rnd.shards[node]), 1)
                if node in self.prev_shards
                else 0.0
            )
            for node in rnd.nodes
        ]

    def _plan_budgets(self, rnd: _RoundState) -> None:
        """Per-GPU step budgets for this round (one shard pass in epoch
        mode; budget mode spans passes up to the next membership anchor)."""
        shard_len = len(self.samplers[rnd.nodes[0]])
        gpus_per_node = self.gpus_per_node
        if self.epoch_mode:
            pass_batches = (shard_len + self.batch_size - 1) // self.batch_size
        else:
            pass_batches = shard_len // self.batch_size
        if pass_batches == 0:
            raise ConfigurationError(
                f"shard of {shard_len} samples yields no batch "
                f"(batch_size={self.batch_size}); shrink the cluster or the "
                f"batch"
            )
        rnd.passes = 1  # epoch mode: one shard pass per round
        if self.epoch_mode and not self.template.per_gpu_sharding:
            # exactly one pass over the shard: batches deal round-robin
            # across the node's GPUs (matching the loaders' own dealing),
            # so per-GPU step counts may differ by one -- short ranks leave
            # the sync gracefully when their budget is done
            rnd.gpu_steps = [
                pass_batches // gpus_per_node
                + (1 if g < pass_batches % gpus_per_node else 0)
                for g in range(gpus_per_node)
            ]
            rnd.node_budget = pass_batches
            rnd.samples_budget = shard_len
        elif self.epoch_mode:
            # per-GPU-sharding, full-batch loaders (DALI) need an equal
            # rounded-up budget per GPU stream: every per-GPU shard is
            # fully consumed, at the cost of up to one wrap-around batch
            # of next-shuffle spill per GPU
            per_gpu_steps = (pass_batches + gpus_per_node - 1) // gpus_per_node
            rnd.gpu_steps = [per_gpu_steps] * gpus_per_node
            rnd.node_budget = per_gpu_steps * gpus_per_node
            rnd.samples_budget = None
        else:
            # budget mode: span this round over as many shard passes as the
            # budget allows, up to the next scheduled membership change --
            # a static (or currently-quiet) cluster keeps one pipelined
            # loader instance instead of paying a cold start per pass.
            # Events stay anchored in pass units: a pending anchor breaks
            # the span so its boundary (and, for fails, the re-shard right
            # after) still lands exactly where the schedule says.
            per_pass_per_gpu = (
                pass_batches + gpus_per_node - 1
            ) // gpus_per_node
            next_change = rnd.schedule.next_anchor
            cap_per_gpu = ceil(self.remaining_steps / rnd.world_ranks)
            if next_change is not None:
                per_gpu_steps = min(
                    (next_change - rnd.index) * per_pass_per_gpu, cap_per_gpu
                )
            else:
                per_gpu_steps = cap_per_gpu
            rnd.passes = max(
                1, (per_gpu_steps + per_pass_per_gpu - 1) // per_pass_per_gpu
            )
            rnd.gpu_steps = [per_gpu_steps] * gpus_per_node
            rnd.node_budget = per_gpu_steps * gpus_per_node
            rnd.samples_budget = None

    def _spawn_round(self, rnd: _RoundState) -> None:
        """Fabric round setup, loader rebind, process spawn, fail
        controllers, cache snapshots."""
        round_ranks = [
            (node, gpu)
            for node in rnd.nodes
            for gpu in range(self.gpus_per_node)
        ]
        armed = rnd.schedule.armed
        self.ring.set_ring(round_ranks)
        # the one collapse fact only the job knows: a fail that could fire
        # this round needs per-rank fidelity (the fabric vetoes the rest)
        self.ring.collapse = self.spec.collapse and not armed
        # one collective per gradient bucket: each moves bucket_bytes
        rnd.bucket_bytes = self.spec.gradient_bytes / self.buckets
        for node in rnd.nodes:
            loader = self.template.rebind_shard(
                self.samplers[node],
                rnd.node_budget,
                total_samples_override=rnd.samples_budget,
            )
            loader.start(self.contexts[node])
            rnd.loaders[node] = loader
            rnd.procs[node] = [
                self.env.process(
                    self._gpu_proc(rnd, node, gpu, loader, rnd.gpu_steps[gpu])
                )
                for gpu in range(self.gpus_per_node)
            ]
        for event in armed:
            delay = (
                event.after
                if event.time is None
                else max(0.0, event.time - self.env.now)
            )
            self.env.process(self._fail_controller(rnd, event, delay))
        rnd.cache_before = {
            node: self.contexts[node].cache.snapshot() for node in rnd.nodes
        }

    def _record_round(self, rnd: _RoundState) -> None:
        self.epoch_membership.append(rnd.nodes)
        self.epoch_shard_sizes.append(
            [len(self.samplers[node]) for node in rnd.nodes]
        )
        self.epoch_coverage.append(len(rnd.coverage))
        self.epoch_shard_overlap.append(rnd.overlap_frac)
        self.epoch_stale_bytes.append(rnd.stale)
        self.epoch_cache_deltas.append(
            [
                self.contexts[node].cache.snapshot().delta(
                    rnd.cache_before[node]
                )
                for node in rnd.nodes
            ]
        )
        self.prev_shards.update(rnd.shards)
        if not self.epoch_mode:
            if rnd.steps == 0:
                raise ConfigurationError(
                    "elastic round made no progress; the membership "
                    "schedule starves the iteration budget"
                )
            self.remaining_steps -= rnd.steps
        self.round_index += rnd.passes

    # -- per-rank processes ------------------------------------------------

    def _sync_bucket(
        self, rnd: _RoundState, member, key, deadline: Optional[float] = None
    ) -> Event:
        """Start one bucket's collective as ``member``; returns the event
        of its completion, at which its measured duration, neighbor waits
        included, accrues to the sync counter.  ``deadline`` is when the
        member's next bucket can launch at the earliest (overlap only).  A
        node failure cancels the run (``_kill_node``): it never completes
        and counts nothing."""
        nbytes = rnd.bucket_bytes
        entered = self.env.now
        counters = self.counters

        def synced(_event) -> None:
            counters["sync"].add(self.env.now - entered)
            counters["grad_bytes"] += nbytes

        done = self.ring.start(key, member, nbytes, deadline)
        done.callbacks.append(synced)
        return done

    def _gpu_proc(
        self, rnd: _RoundState, node: int, gpu: int, loader, steps: int
    ):
        ctx = self.contexts[node]
        member = (node, gpu)
        hw = self.cluster.hw_for(node)
        try:
            for step_index in range(steps):
                batch = yield from loader.get_batch(gpu)
                if batch is None:
                    # under-delivery: survivors stop waiting for us
                    self.ring.leave(member)
                    return
                for spec in batch.specs:
                    rnd.coverage.add(spec.index)
                step = self.workload.model.step_time(
                    batch.size, hw.gpu_type, world_size=1
                )
                if self.overlap and rnd.world_ranks > 1:
                    # bucketed backprop: bucket k's gradients are ready
                    # after the (k+1)-th slice of the step's compute
                    # (reverse layer order), and its collective runs
                    # concurrently with the remaining slices, the next
                    # bucket launching one slice later at the earliest
                    launched = []
                    for k in range(self.buckets):
                        yield from ctx.train_step(gpu, step / self.buckets)
                        launched.append(
                            self._sync_bucket(
                                rnd,
                                member,
                                (self.job_id, rnd.index, step_index, k),
                                self.env.now + step / self.buckets,
                            )
                        )
                    self.counters["steps"] += 1
                    self.counters["samples"] += batch.size
                    rnd.steps += 1
                    compute_end = self.env.now
                    yield AllOf(self.env, launched)
                    # only the wait past the end of backprop extends
                    # the step: the exposed (non-overlapped) sync
                    self.counters["exposed"].add(self.env.now - compute_end)
                else:
                    yield from ctx.train_step(gpu, step)
                    self.counters["steps"] += 1
                    self.counters["samples"] += batch.size
                    rnd.steps += 1
                    if rnd.world_ranks > 1:
                        compute_end = self.env.now
                        for k in range(self.buckets):
                            yield self._sync_bucket(
                                rnd,
                                member,
                                (self.job_id, rnd.index, step_index, k),
                            )
                        self.counters["exposed"].add(self.env.now - compute_end)
                if self.checkpoint is not None and gpu == 0:
                    yield from self._maybe_snapshot(rnd, node)
            # ranks with a one-shorter budget must not stall the rest
            self.ring.leave(member)
        except Interrupt:
            return

    # -- checkpoint/restore ------------------------------------------------

    def _maybe_snapshot(self, rnd: _RoundState, node: int):
        """Advance the node's replica-step clock; when the policy's
        interval comes due, write the node's shard of the replica state
        (:meth:`_checkpoint_io`).

        A generator that yields nothing when no write is due, so a policy
        that never fires adds zero kernel events.  The write is run by the
        node's gpu-0 rank synchronously: its stall reaches every other
        rank through the next collective, which is exactly the
        steady-state overhead a frequent interval buys recovery time with.
        An interrupt mid-write (the node's own death) propagates out of
        the transfer, so a torn snapshot never advances the coverage
        clocks.
        """
        ckpt = self.ckpt
        clock = ckpt.node_clock.get(node, 0) + 1
        ckpt.node_clock[node] = clock
        last_step = ckpt.snapshot_step.get(node, 0)
        last_time = ckpt.snapshot_time.get(node, self.started_at)
        if not self.checkpoint.due(clock - last_step, self.env.now - last_time):
            return
        shard = self.checkpoint.state_bytes(
            self.spec.gradient_bytes
        ) / max(rnd.world_nodes, 1)
        entered = self.env.now
        yield from self._checkpoint_io(node, shard)
        ckpt.write_seconds.add(self.env.now - entered)
        ckpt.bytes_written += shard
        ckpt.snapshots += 1
        ckpt.snapshot_step[node] = clock
        ckpt.snapshot_time[node] = self.env.now

    def _checkpoint_io(self, node: int, nbytes: float):
        """The one way checkpoint bytes move between a node and storage,
        a snapshot write and a restore read alike: through the node's own
        storage pipe, then its checkpoint-class NIC stream when the
        cluster routes storage over the NIC -- queueing behind, and
        delaying, the same traffic its loader misses pay."""
        yield self.contexts[node].disk.transfer(nbytes)
        nic = self.cluster.storage_nic(
            node, "checkpoint", self.job_id, self.link_wait_by_class
        )
        if nic is not None:
            yield nic.transfer(nbytes)

    def _recover(self):
        """Post-failure recovery, between rounds: re-materialize the
        replica state, then replay the steps lost since the last completed
        snapshot, before the next round re-shards and spawns.

        ``restore="storage"`` re-reads the snapshot in parallel, each
        survivor pulling its (new) shard through :meth:`_checkpoint_io`
        -- cheap and scalable, but it queues behind whatever the pipes
        already carry.  ``restore="peer"`` streams the *full* state from
        one survivor over its NIC-class topology link -- no storage round
        trip, but a serial transfer on the link collectives use.  Replay
        is compute-bound and runs in lockstep across survivors, so its
        wall cost is lost steps x the per-step compute time, paid once.
        Replayed steps are not re-counted in ``steps``; they surface as
        ``lost_steps`` and recovery wall time.
        """
        ckpt = self.ckpt
        ckpt.pending_restore = False
        survivors = sorted(self.active)
        if not survivors:
            return
        entered = self.env.now
        state = self.checkpoint.state_bytes(self.spec.gradient_bytes)
        if self.checkpoint.restore == "storage":
            shard = state / len(survivors)
            procs = [
                self.env.process(self._checkpoint_io(node, shard))
                for node in survivors
            ]
            yield AllOf(self.env, procs)
        else:
            peer = survivors[0]
            yield self.cluster.peer_stream(
                peer, tenant=self.job_id, sink=self.link_wait_by_class
            ).transfer(state)
        ckpt.bytes_restored += state
        ckpt.restores += 1
        replay = ckpt.pending_replay
        ckpt.pending_replay = 0
        if replay > 0:
            step = self.workload.model.step_time(
                self.batch_size, self.hardware.gpu_type, world_size=1
            )
            yield self.env.timeout(replay * step)
        ckpt.restore_seconds.add(self.env.now - entered)

    def _kill_node(self, rnd: _RoundState, node: int) -> None:
        """Abrupt mid-epoch failure: interrupt, halt, abort."""
        if node not in self.active:
            return
        self.active -= {node}
        self.deactivated_at[node] = self.env.now
        if self.ckpt is not None:
            # the dead node's un-snapshotted progress is gone: the replica
            # rolls back to its last completed snapshot, and the survivors
            # will restore + replay between rounds (see _recover)
            lost = self.ckpt.lost_on(node)
            self.ckpt.lost_steps += lost
            self.ckpt.pending_replay = max(self.ckpt.pending_replay, lost)
            self.ckpt.pending_restore = True
        loader = rnd.loaders.get(node)
        if loader is not None:
            loader.halt()
        for proc in rnd.procs.get(node, []):
            if proc.is_alive:
                proc.interrupt("node-failure")
        # the dead ranks' bucket collectives stop with them (a ghost
        # sender would keep feeding the ring after its node is gone)
        for gpu in range(self.gpus_per_node):
            self.ring.abort((node, gpu))

    def _fail_controller(
        self, rnd: _RoundState, event: MembershipEvent, delay: float
    ):
        """Fire ``event`` ``delay`` seconds into ``rnd`` -- unless the
        round is over by then (the job ended, or its ``after`` outlived
        the epoch).  Either way the event stays pending until the next
        boundary reads it as stale: a removal, or a no-op when it fired."""
        if delay > 0:
            yield self.env.timeout(delay)
        if self._round is rnd:
            self._kill_node(rnd, event.node)

    # -- aggregation -------------------------------------------------------

    def _merged_link_wait(self) -> Dict[str, float]:
        """This job's per-class link wait: the ring fabric's collective
        sink merged with the loader/checkpoint sink the job's own streams
        fill (keys are disjoint by construction; a copy, so the result is
        detached from live accumulators)."""
        return {**self.link_wait_by_class, **self.ring.link_wait_by_class}

    def result(self) -> DistributedResult:
        duration = (
            self.finished_at if self.finished_at is not None else self.env.now
        )
        seen_nodes = sorted(self.contexts)
        windows = {
            node: (
                self.activated_at[node],
                self.deactivated_at.get(node, duration),
            )
            for node in seen_nodes
        }
        per_node_cpu = []
        per_node_gpu: List[float] = []
        for node in seen_nodes:
            start, end = windows[node]
            ctx = self.contexts[node]
            per_node_cpu.append(
                ctx.cpu_recorder.utilization(
                    start, end, capacity=self.cluster.hw_for(node).cpu_cores
                )
            )
            for recorder in ctx.gpu_recorders:
                per_node_gpu.append(recorder.utilization(start, end, tag="train"))
        return DistributedResult(
            loader=self.spec.loader,
            workload=self.workload.name,
            nodes=self.membership.initial_nodes,
            gpus_per_node=self.gpus_per_node,
            training_time=duration - self.started_at,
            steps=self.counters["steps"],
            samples=self.counters["samples"],
            gpu_utilization=(
                sum(per_node_gpu) / len(per_node_gpu) if per_node_gpu else 0.0
            ),
            cpu_utilization=(
                sum(per_node_cpu) / len(per_node_cpu) if per_node_cpu else 0.0
            ),
            sync_seconds_total=float(self.counters["sync"]),
            exposed_sync_seconds=float(self.counters["exposed"]),
            gradient_bytes_synced=self.counters["grad_bytes"],
            topology=self.topology,
            overlap=self.overlap,
            buckets=self.buckets,
            shard_sizes=(
                list(self.epoch_shard_sizes[-1])
                if self.epoch_shard_sizes
                else []
            ),
            per_node_cpu_utilization=per_node_cpu,
            node_hardware_names=[
                self.cluster.hw_for(node).name for node in seen_nodes
            ],
            node_ids=seen_nodes,
            per_node_active_seconds=[
                max(0.0, windows[node][1] - windows[node][0])
                for node in seen_nodes
            ],
            epoch_membership=self.epoch_membership,
            epoch_shard_sizes=self.epoch_shard_sizes,
            epoch_coverage=self.epoch_coverage,
            reshard_policy=self.spec.reshard,
            epoch_shard_overlap=self.epoch_shard_overlap,
            epoch_cache_deltas=self.epoch_cache_deltas,
            epoch_stale_bytes=self.epoch_stale_bytes,
            per_node_cache_bytes=[
                self.contexts[node].cache.capacity_bytes for node in seen_nodes
            ],
            collapsed_collectives=self.ring.collapsed_collectives,
            sim_events=self.env.events_processed,
            job_id=self.job_id,
            cache_hit_bytes=float(
                sum(self.contexts[n].cache_hit_bytes for n in seen_nodes)
            ),
            cache_miss_bytes=float(
                sum(self.contexts[n].cache_miss_bytes for n in seen_nodes)
            ),
            storage_wait_seconds=sum(
                self.contexts[n].storage_wait_seconds for n in seen_nodes
            ),
            link_wait_seconds=self.ring.link_wait_seconds,
            link_wait_by_class=self._merged_link_wait(),
            collapse_cross_vetoes=self.ring.collapse_cross_vetoes,
            partition_stall_seconds=self.ring.partition_stall_seconds,
            checkpoint_write_seconds=(
                float(self.ckpt.write_seconds) if self.ckpt is not None else 0.0
            ),
            restore_seconds=(
                float(self.ckpt.restore_seconds) if self.ckpt is not None else 0.0
            ),
            lost_steps=self.ckpt.lost_steps if self.ckpt is not None else 0,
            checkpoint_bytes=(
                self.ckpt.bytes_written if self.ckpt is not None else 0.0
            ),
        )
