"""Multi-tenant scenario engine: job mixes on one shared cluster.

A production cluster rarely runs one training job at a time.  The paper's
contention story -- loaders, collectives and the page cache fighting over a
node's data path -- compounds when *several* jobs share the machines: two
jobs' collectives wait on the same NIC pipes, their loaders on the same
storage device, their working sets in the same physical page cache.

This module composes the pieces below it into that setting.  A
:class:`~repro.sim.distributed.JobSpec` describes one tenant's training
job (everything job-owned: workload, loader, step budget,
overlap/bucketing, arrival time); a :class:`JobMix` submits a set of them
to one shared
:class:`~repro.sim.cluster.Cluster` and drives the cluster's kernel until
every job finishes, returning a :class:`MixResult` with per-tenant metrics
(makespan, exposed sync, cache hit/miss bytes, link-contention seconds).

A mix of **one** job on a cluster built from the same arguments is
byte-identical to calling :func:`~repro.sim.distributed.run_elastic`
directly -- the single-tenant path is the degenerate mix, pinned by the
kernel-equivalence suite.

:data:`PRESETS` names four ready-made scenarios, runnable from the CLI as
``python -m repro scenarios --preset <name>``:

* ``steady`` -- two jobs sharing the cluster from t=0: pure steady-state
  contention on links, storage and cache;
* ``burst`` -- staggered arrivals: a running job sees tenants burst in and
  its rounds slow down as the links fill;
* ``worker_failure`` -- a node dies mid-round under a two-job mix; both
  jobs' fabrics detect and re-shard independently;
* ``checkpoint_heavy`` -- worker_failure plus checkpoint economics: one
  tenant snapshots aggressively through the shared storage pipes (slowing
  its co-tenant's loader misses) and pays restore + replay when the node
  dies;
* ``network_partition`` -- a transient reachability split stalls every
  cross-cut ring delivery, then heals; the fabric recovers, never aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..contracts import positive
from ..errors import ConfigurationError
from .checkpoint import CheckpointPolicy
from .cluster import (
    Cluster,
    ClusterMembership,
    MembershipEvent,
    PartitionEvent,
)
from .distributed import DistributedResult, JobSpec, _ElasticJob
from .kernel import AllOf
from .loaders import run_until
from .workloads import CONFIG_A, make_workload

__all__ = [
    "JobSpec",
    "JobMix",
    "MixResult",
    "PRESETS",
    "run_preset",
]


class JobMix:
    """A set of concurrent jobs submitted to one shared cluster.

    Construction validates the mix shape (non-empty, unique job ids; each
    spec validated its own fields when it was built);
    :meth:`run` spawns each job as a kernel process (higher priority
    first, so priority decides equal-timestamp ties on the shared links),
    drives the cluster's kernel until all of them finish, and aggregates
    per-tenant metrics.

    With more than one job, each tenant's page-cache entries are keyed by
    its ``job_id`` (two jobs' sample index 0 are different bytes), and no
    tenant's ring fabric collapses: each sees another fabric on the
    cluster's topology, whose future link traffic its quiescence check
    cannot see.  A single-job mix keeps plain keys and collapse
    eligibility, making it byte-identical to
    :func:`~repro.sim.distributed.run_elastic` on the same arguments.
    """

    def __init__(self, jobs: Sequence[JobSpec], cluster: Cluster) -> None:
        if not jobs:
            raise ConfigurationError(
                "job mix is empty; a JobMix needs at least one JobSpec"
            )
        seen: Set[str] = set()
        for spec in jobs:
            if spec.job_id in seen:
                raise ConfigurationError(
                    f"duplicate job id {spec.job_id!r} in mix"
                )
            seen.add(spec.job_id)
        if not isinstance(cluster, Cluster):
            raise ConfigurationError(
                f"a JobMix runs on a Cluster, got {cluster!r}"
            )
        self.jobs: Tuple[JobSpec, ...] = tuple(jobs)
        self.cluster = cluster

    def run(self) -> "MixResult":
        cluster = self.cluster
        shared = len(self.jobs) > 1
        # build in priority order (stable on the original mix order), so a
        # higher-priority job's processes get earlier ids and win
        # same-instant scheduling ties
        order = sorted(
            range(len(self.jobs)), key=lambda i: (-self.jobs[i].priority, i)
        )
        elastic: Dict[str, _ElasticJob] = {}
        procs = []
        for i in order:
            spec = self.jobs[i]
            job = _ElasticJob(
                cluster,
                spec,
                make_workload(
                    spec.workload_name, dataset_size=spec.dataset_size
                ),
                cache_namespace=spec.job_id if shared else None,
            )
            elastic[spec.job_id] = job
            procs.append(cluster.env.process(job.run()))
        # the degenerate mix matches run_elastic's drive loop exactly (an
        # AllOf wrapper would process one extra kernel event)
        done = procs[0] if len(procs) == 1 else AllOf(cluster.env, procs)
        run_until(
            cluster.env,
            done,
            lambda: [pair for job in elastic.values() for pair in job.live_loaders()],
        )
        results = [elastic[spec.job_id].result() for spec in self.jobs]
        return MixResult(
            jobs=results,
            arrivals={spec.job_id: spec.arrival for spec in self.jobs},
            makespan=max(
                spec.arrival + res.training_time
                for spec, res in zip(self.jobs, results)
            ),
            sim_events=cluster.env.events_processed,
        )


@dataclass
class MixResult:
    """Per-tenant and cluster-wide outcome of one mix run."""

    #: one DistributedResult per job, in the mix's submission order; the
    #: per-tenant fields (cache_hit_bytes / cache_miss_bytes /
    #: storage_wait_seconds / link_wait_seconds / partition_stall_seconds)
    #: are exact per job even on shared resources
    jobs: List[DistributedResult] = field(default_factory=list)
    arrivals: Dict[str, float] = field(default_factory=dict)
    #: virtual time at which the last job finished (cluster makespan)
    makespan: float = 0.0
    #: kernel events the whole mix processed (one shared kernel)
    sim_events: int = 0

    def job(self, job_id: str) -> DistributedResult:
        for res in self.jobs:
            if res.job_id == job_id:
                return res
        raise KeyError(job_id)

    @property
    def per_job_makespan(self) -> Dict[str, float]:
        """Each job's completion time measured from t=0 (arrival wait
        included) -- what a tenant experiences end to end."""
        return {
            res.job_id: self.arrivals.get(res.job_id, 0.0) + res.training_time
            for res in self.jobs
        }

    @property
    def link_contention_seconds(self) -> float:
        """Total seconds the mix's jobs spent queueing on shared transport
        (storage pipes, collective links, partition stalls)."""
        return sum(res.link_contention_seconds for res in self.jobs)

    @property
    def link_wait_by_class(self) -> Dict[str, float]:
        """Mix-wide per-traffic-class link wait (seconds lost to queueing
        plus fair-sharing slowdown), summed across tenants; each job's own
        split stays on its :class:`DistributedResult`."""
        total: Dict[str, float] = {}
        for res in self.jobs:
            for cls, secs in res.link_wait_by_class.items():
                total[cls] = total.get(cls, 0.0) + secs
        return total

    @property
    def checkpoint_write_seconds(self) -> float:
        """Total snapshot-write seconds across tenants (per-tenant values
        on each job's result)."""
        return sum(res.checkpoint_write_seconds for res in self.jobs)

    @property
    def restore_seconds(self) -> float:
        """Total post-failure recovery seconds across tenants."""
        return sum(res.restore_seconds for res in self.jobs)

    def summary(self) -> str:
        lines = [res.summary() for res in self.jobs]
        mix_line = (
            f"mix: {len(self.jobs)} job(s), makespan {self.makespan:.2f}s, "
            f"contention {self.link_contention_seconds:.2f}s, "
            f"{self.sim_events} kernel events"
        )
        by_class = self.link_wait_by_class
        if by_class:
            mix_line += " | link wait: " + " ".join(
                f"{cls} {secs:.2f}s" for cls, secs in sorted(by_class.items())
            )
        lines.append(mix_line)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: shared preset geometry: small enough for CI smoke, big enough that two
#: tenants measurably contend (4 nodes x 2 GPUs, tiny synthetic shards)
_NODES = 4
_GPUS = 2
_DATASET = 6 * _NODES


def _steps(scale: float) -> int:
    """Cluster-wide step budget for one preset job."""
    per_gpu = max(2, round(4 * scale))
    return per_gpu * _NODES * _GPUS


def _cluster(membership: Optional[ClusterMembership] = None) -> Cluster:
    return Cluster(
        membership if membership is not None else ClusterMembership(_NODES),
        CONFIG_A,
        gpus_per_node=_GPUS,
        topology="flat",
    )


def _job(job_id: str, loader: str, scale: float, **overrides) -> JobSpec:
    kwargs = dict(
        job_id=job_id,
        loader=loader,
        workload_name="image_segmentation",
        dataset_size=_DATASET,
        total_steps=_steps(scale),
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def preset_steady(scale: float = 1.0) -> JobMix:
    """Two tenants sharing the cluster from t=0: steady-state contention
    on the same NIC pipes, storage devices and page caches.

    Both tenants run the aggressive prefetching loader, so their warmup
    reads burst onto the shared storage pipes at the same instants --
    the contention is visible in makespans, not just counters (a fast
    and a slow loader interleave into each other's idle gaps instead).
    """
    return JobMix(
        [
            _job("tenant-a", "minato", scale),
            _job("tenant-b", "minato", scale),
        ],
        _cluster(),
    )


def preset_burst(scale: float = 1.0) -> JobMix:
    """Staggered arrivals: tenant-a runs alone, then two more burst in.
    tenant-a's later rounds slow down as the shared links fill."""
    return JobMix(
        [
            _job("tenant-a", "minato", scale),
            _job("tenant-b", "pytorch", scale, arrival=2.0),
            _job("tenant-c", "dali", scale, arrival=4.0, priority=1),
        ],
        _cluster(),
    )


def preset_worker_failure(scale: float = 1.0) -> JobMix:
    """A node dies mid-round under a two-job mix: each job's fabric
    detects the dead ranks independently (survivors stall at most the
    detection timeout) and the next boundary re-shards around the hole."""
    membership = ClusterMembership(
        _NODES,
        events=(
            MembershipEvent("fail", node=_NODES - 1, epoch=0, after=1.0),
        ),
    )
    return JobMix(
        [
            _job("tenant-a", "minato", scale),
            _job("tenant-b", "pytorch", scale),
        ],
        _cluster(membership),
    )


def preset_checkpoint_heavy(scale: float = 1.0) -> JobMix:
    """``worker_failure`` with checkpoint economics: tenant-a snapshots
    its replica state every step through the shared per-node storage
    pipes, so tenant-b's loader misses wait behind snapshot bursts --
    checkpoint traffic measurably slows a co-tenant that never asked for
    it.  When the node dies, tenant-a restores from storage and replays;
    tenant-b (no policy) re-shards for free, exactly as before.

    tenant-a carries heavy optimizer state (``state_scale=8``: fp32
    master weights plus two Adam moments over half-precision gradients)
    and the cluster's page cache is deliberately undersized, so
    tenant-b's synchronous loader keeps missing to storage throughout the
    run instead of only during warmup -- the configuration where snapshot
    traffic and a co-tenant's reads genuinely fight over the same pipe.
    """
    membership = ClusterMembership(
        _NODES,
        events=(
            MembershipEvent("fail", node=_NODES - 1, epoch=0, after=1.0),
        ),
    )
    cluster = Cluster(
        membership,
        CONFIG_A,
        gpus_per_node=_GPUS,
        topology="flat",
        cache_fraction=0.002,
    )
    return JobMix(
        [
            _job(
                "tenant-a",
                "minato",
                scale,
                checkpoint=CheckpointPolicy(
                    interval_steps=1, state_scale=8.0
                ),
            ),
            _job("tenant-b", "pytorch", scale),
        ],
        cluster,
    )


def preset_network_partition(scale: float = 1.0) -> JobMix:
    """A transient reachability split cuts half the cluster off for a
    window, then heals.  Ring deliveries crossing the cut stall (reported
    as ``partition_stall_seconds``); nothing aborts, both jobs finish."""
    membership = ClusterMembership(
        _NODES,
        partitions=(
            PartitionEvent(nodes=(0, 1), time=0.5, duration=1.0),
        ),
    )
    return JobMix(
        [
            _job("tenant-a", "minato", scale),
            _job("tenant-b", "pytorch", scale),
        ],
        _cluster(membership),
    )


PRESETS = {
    "steady": preset_steady,
    "burst": preset_burst,
    "worker_failure": preset_worker_failure,
    "checkpoint_heavy": preset_checkpoint_heavy,
    "network_partition": preset_network_partition,
}


def run_preset(name: str, scale: float = 1.0) -> MixResult:
    """Build and run a named preset mix at ``scale``."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {sorted(PRESETS)}"
        )
    positive("scale", scale)
    return PRESETS[name](scale).run()
