"""Checkpoint-interval economics under failure (extension).

The classic tradeoff: frequent snapshots tax every step (synchronous
writes through the node's storage pipe), rare snapshots inflate failure
recovery (more lost steps to replay).  This experiment sweeps the
snapshot interval for one elastic job under a fixed mid-run node
failure and shows the total makespan is *non-monotone* in the interval
-- a middle interval strictly beats both a much smaller and a much
larger one -- then isolates each direction of the tradeoff and the two
restore transports:

* **sweep** -- intervals {1, 4, 16} steps plus no-checkpoint, one
  time-anchored node failure: write seconds fall monotonically with the
  interval while lost (replayed) steps rise, and the middle interval
  wins on makespan;
* **steady state** -- the same job without any failure: checkpointing
  is pure overhead, priced by interval;
* **storage vs peer restore** -- restore-from-storage re-reads the
  snapshot through every survivor's storage pipe in parallel;
  restore-from-peer streams the full state over one survivor's
  NIC-class topology link (verified by the bytes landing on that link);
* **co-tenant** -- the ``checkpoint_heavy`` scenario preset against the
  same mix with checkpointing off: tenant-a's snapshot writes measurably
  slow tenant-b, whose loader misses share the same storage pipes.

The sweep geometry is fixed (32 steps/rank, failure at t=12) -- the
U-shape needs the failure to land a known distance from the snapshot
schedule, so ``scale`` only grows the budget beyond its floor and never
shrinks it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..sim.checkpoint import CheckpointPolicy
from ..sim.cluster import Cluster, ClusterMembership, MembershipEvent
from ..sim.distributed import DistributedResult, run_elastic
from ..sim.scenarios import PRESETS, JobMix
from ..sim.workloads import CONFIG_A, make_workload
from .common import ExperimentReport, experiment, results_table

_NODES = 4
_GPUS = 2
_DATASET = 24
#: fp32 master weights + two Adam moments over half-precision gradients
_STATE_SCALE = 8.0
_FAIL_TIME = 12.0
_INTERVALS = (1, 4, 16)


def _policy(interval: Optional[int]) -> Optional[CheckpointPolicy]:
    """Snapshot every ``interval`` steps; None checkpoints nothing."""
    if interval is None:
        return None
    return CheckpointPolicy(interval_steps=interval, state_scale=_STATE_SCALE)


def _membership(fail: bool = True) -> ClusterMembership:
    """The sweep's nodes; with ``fail``, the last dies at ``_FAIL_TIME``."""
    events = [MembershipEvent("fail", node=_NODES - 1, time=_FAIL_TIME)]
    return ClusterMembership(_NODES, events if fail else [])


def _run_one(
    policy: Optional[CheckpointPolicy],
    steps_per_rank: int,
    fail: bool = True,
    cluster: Optional[Cluster] = None,
) -> DistributedResult:
    workload = make_workload(
        "image_segmentation", seed=0, dataset_size=_DATASET
    )
    return run_elastic(
        "minato",
        workload,
        CONFIG_A,
        _membership(fail) if cluster is None else None,
        gpus_per_node=_GPUS,
        total_steps=steps_per_rank * _NODES * _GPUS,
        checkpoint=policy,
        cluster=cluster,
    )


@experiment(
    "distributed_checkpoint",
    "Extension: checkpoint-interval economics under failure",
)
def run(
    report: ExperimentReport,
    interval: Optional[int] = None,
    restore: Optional[str] = None,
) -> None:
    """Run the experiment; ``interval``/``restore`` (from the CLI's
    ``--checkpoint-interval``/``--restore``) feature one extra arm with
    that exact policy alongside the fixed sweep."""
    featured = (
        None
        if interval is None and restore is None
        else CheckpointPolicy(
            interval_steps=interval if interval is not None else _INTERVALS[1],
            restore=restore if restore is not None else "storage",
            state_scale=_STATE_SCALE,
        )
    )
    steps_per_rank = max(32, round(32 * report.scale))

    # -- interval sweep under the failure schedule -------------------------
    sweep: Dict[Optional[int], DistributedResult] = {
        k: _run_one(_policy(k), steps_per_rank) for k in (None,) + _INTERVALS
    }
    small, mid, large = _INTERVALS
    report.check(
        "write overhead falls monotonically with the interval",
        sweep[small].checkpoint_write_seconds
        > sweep[mid].checkpoint_write_seconds
        > sweep[large].checkpoint_write_seconds
        > 0.0,
        detail=" > ".join(
            f"K={k}: {sweep[k].checkpoint_write_seconds:.2f}s"
            for k in _INTERVALS
        ),
    )
    report.check(
        "lost (replayed) steps rise with the interval",
        sweep[small].lost_steps
        <= sweep[mid].lost_steps
        < sweep[large].lost_steps,
        detail=", ".join(
            f"K={k}: {sweep[k].lost_steps}" for k in _INTERVALS
        ),
    )
    report.check(
        f"tradeoff cuts both ways: K={mid} strictly beats K={small} "
        f"(write-bound) and K={large} (replay-bound) on makespan",
        sweep[mid].training_time < sweep[small].training_time
        and sweep[mid].training_time < sweep[large].training_time,
        detail=", ".join(
            f"K={k}: {sweep[k].training_time:.2f}s" for k in _INTERVALS
        ),
    )
    report.check(
        "checkpointing is never free: every interval pays over the "
        "no-checkpoint run",
        all(
            sweep[k].training_time > sweep[None].training_time
            for k in _INTERVALS
        ),
        detail=f"no checkpoint: {sweep[None].training_time:.2f}s",
    )

    # -- steady state: no failure, checkpointing is pure overhead ----------
    steady = {
        k: _run_one(_policy(k), steps_per_rank, fail=False)
        for k in (None, small, large)
    }
    quiet_none, quiet_small, quiet_large = steady.values()
    report.check(
        "steady state (no failure): overhead is monotone in snapshot "
        "frequency",
        quiet_small.training_time
        > quiet_large.training_time
        > quiet_none.training_time,
        detail=(
            f"K={small}: {quiet_small.training_time:.2f}s, "
            f"K={large}: {quiet_large.training_time:.2f}s, "
            f"none: {quiet_none.training_time:.2f}s"
        ),
    )

    # -- storage vs peer restore ------------------------------------------
    peer_cluster = Cluster(
        _membership(), CONFIG_A, gpus_per_node=_GPUS, topology="flat"
    )
    peer_policy = CheckpointPolicy(
        interval_steps=mid, restore="peer", state_scale=_STATE_SCALE
    )
    peer_link = peer_cluster.peer_link(0)
    link_bytes_before = peer_link.total_bytes
    peer_res = _run_one(peer_policy, steps_per_rank, cluster=peer_cluster)
    streamed = peer_link.total_bytes - link_bytes_before
    state_bytes = peer_policy.state_bytes(400e6)
    report.check(
        "restore-from-peer streams the full state over the survivor's "
        "topology link",
        peer_res.restore_seconds > 0.0 and streamed >= state_bytes,
        detail=(
            f"{streamed / 1e9:.1f} GB on node 0's NIC link "
            f"(state {state_bytes / 1e9:.1f} GB), restore "
            f"{peer_res.restore_seconds:.2f}s"
        ),
    )

    # -- co-tenant: snapshot writes slow a job that never asked for them --
    heavy = PRESETS["checkpoint_heavy"](1.0).run()
    control_mix = PRESETS["checkpoint_heavy"](1.0)
    control = JobMix(
        [replace(spec, checkpoint=None) for spec in control_mix.jobs],
        control_mix.cluster,
    ).run()
    b_with = heavy.job("tenant-b")
    b_without = control.job("tenant-b")
    report.check(
        "tenant-a's snapshot writes measurably slow co-tenant tenant-b "
        "(same pipes, no policy of its own)",
        heavy.per_job_makespan["tenant-b"]
        > control.per_job_makespan["tenant-b"]
        and b_with.storage_wait_seconds > b_without.storage_wait_seconds,
        detail=(
            f"makespan {heavy.per_job_makespan['tenant-b']:.2f}s vs "
            f"{control.per_job_makespan['tenant-b']:.2f}s, storage wait "
            f"{b_with.storage_wait_seconds:.2f}s vs "
            f"{b_without.storage_wait_seconds:.2f}s"
        ),
    )

    columns = {
        "makespan (s)": lambda r: f"{r.training_time:.2f}",
        "write (s)": lambda r: f"{r.checkpoint_write_seconds:.2f}",
        "restore (s)": lambda r: f"{r.restore_seconds:.2f}",
        "lost steps": lambda r: r.lost_steps,
        "ckpt GB": lambda r: f"{r.checkpoint_bytes / 1e9:.1f}",
    }
    report.body = results_table(
        {("none" if k is None else str(k)): r for k, r in sweep.items()},
        columns,
        (
            f"minato/image_segmentation, {_NODES}x{_GPUS} ranks, "
            f"{steps_per_rank} steps/rank, node {_NODES - 1} fails at "
            f"t={_FAIL_TIME:g}s, state = {_STATE_SCALE:g} x gradient:"
        ),
        "interval",
    )
    if featured is not None:
        feat = _run_one(featured, steps_per_rank)
        report.body += (
            f"\n\nfeatured arm (--checkpoint-interval "
            f"{featured.interval_steps} --restore {featured.restore}): "
            f"makespan {feat.training_time:.2f}s, write "
            f"{feat.checkpoint_write_seconds:.2f}s, restore "
            f"{feat.restore_seconds:.2f}s, lost {feat.lost_steps} steps"
        )
        report.data["featured"] = feat

    report.data["sweep"] = sweep
    report.data["steady"] = steady
    report.data["peer"] = peer_res
    report.data["co_tenant"] = {"with": heavy, "without": control}
