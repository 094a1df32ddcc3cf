"""Checkpoint/restore economics for elastic training jobs.

Before this module, a failed node's optimizer/model state vanished for
free: :func:`~repro.sim.distributed.run_elastic` charged the shard
re-cover (cache warmup after the re-shard) but never the recovery of
*training state*.  A :class:`CheckpointPolicy` makes state a first-class
cost on the cluster's modelled hardware:

* **Write path** -- every ``interval_steps`` optimizer steps (or
  ``interval_seconds`` of virtual time), each node writes its shard of
  the replica state (``state_scale`` x the job's gradient bytes, split
  across the round's nodes) through its own
  :class:`~repro.sim.cluster.NodeSite` storage pipe -- and over the NIC
  when the cluster routes storage over it -- so snapshot traffic queues
  behind, and delays, the same loader cache-miss reads and co-tenant
  traffic the pipes already carry.  The write is synchronous: the
  writing rank stalls, and the stall propagates to every other rank
  through the next collective.
* **Restore path** -- on a node failure the job recovers before its next
  round: ``restore="storage"`` has every survivor re-read its (new)
  shard of the snapshot along the write path (storage pipe, then NIC
  when storage is remote), in parallel;
  ``restore="peer"`` has one survivor stream the full state over its
  NIC-class link on the cluster topology (the link its rank-0 collective
  stream uses), so a peer restore contends with collectives instead of
  storage.
* **Lost-step replay** -- the steps the replica took since its last
  completed snapshot are gone with the dead node's state; survivors
  re-execute them (wall cost: lost steps x the per-step compute time,
  paid once -- ranks replay in lockstep) before rejoining the round
  loop.  Replayed steps are *not* double-counted in ``steps``; they
  surface as ``lost_steps`` and as recovery wall time.

The policy is strictly pay-as-you-go: with ``checkpoint=None`` (or a
policy that never comes due on a failure-free run) the job issues zero
extra kernel events, pinned byte-identical -- ``sim_events`` included --
by the kernel-equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..contracts import count, positive
from ..engine.metrics import ExactSum
from ..errors import ConfigurationError

__all__ = ["CheckpointPolicy", "CheckpointAccounting", "RESTORE_MODES"]

#: how a job re-materializes replica state after a node failure
RESTORE_MODES = ("storage", "peer")


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and how a job snapshots and restores its replica state.

    Exactly one of ``interval_steps`` / ``interval_seconds`` selects the
    snapshot cadence; ``state_scale`` derives the snapshot size from the
    job's per-step gradient bytes (model weights plus optimizer moments
    -- Adam keeps two fp32 moments per parameter, hence the default 3x).
    """

    #: snapshot every K optimizer steps (per node; mutually exclusive
    #: with interval_seconds)
    interval_steps: Optional[int] = None
    #: snapshot every T seconds of virtual time (mutually exclusive with
    #: interval_steps)
    interval_seconds: Optional[float] = None
    #: restore-from-storage (survivors re-read the snapshot through
    #: their storage pipes) or restore-from-peer (a survivor streams the
    #: state over its topology link)
    restore: str = "storage"
    #: replica state bytes as a multiple of the job's gradient bytes
    state_scale: float = 3.0

    def __post_init__(self) -> None:
        if (self.interval_steps is None) == (self.interval_seconds is None):
            raise ConfigurationError(
                "a CheckpointPolicy needs exactly one of interval_steps / "
                f"interval_seconds, got {self.interval_steps!r} / "
                f"{self.interval_seconds!r}"
            )
        if self.interval_steps is not None:
            count("interval_steps", self.interval_steps)
        if self.interval_seconds is not None:
            positive("interval_seconds", self.interval_seconds)
        if self.restore not in RESTORE_MODES:
            raise ConfigurationError(
                f"restore must be one of {RESTORE_MODES}, got {self.restore!r}"
            )
        positive("state_scale", self.state_scale)

    def state_bytes(self, gradient_bytes: float) -> float:
        """Full replica state size for a job syncing ``gradient_bytes``
        per step."""
        return self.state_scale * gradient_bytes

    def due(self, steps_since: int, seconds_since: float) -> bool:
        """Is a snapshot due, ``steps_since`` steps / ``seconds_since``
        seconds after the node's last completed one?"""
        if self.interval_steps is not None:
            return steps_since >= self.interval_steps
        return seconds_since >= self.interval_seconds


class CheckpointAccounting:
    """Mutable per-job checkpoint/restore bookkeeping.

    One instance per :class:`~repro.sim.distributed._ElasticJob` with a
    policy; the job's step loop, kill path and recovery phase update it,
    and :class:`~repro.sim.distributed.DistributedResult` reports its
    totals.  Snapshot coverage is tracked per node: a node's clock
    counts its gpu-0 steps (the replica's step index as this node sees
    it), and ``snapshot_step`` / ``snapshot_time`` record how far its
    last *completed* write reached -- a write interrupted by the node's
    own death covers nothing.
    """

    def __init__(self) -> None:
        #: wall seconds ranks spent writing snapshots (pipe queueing
        #: included -- that queueing is the contention being modelled),
        #: an exact sum: same-instant writes may end in either order
        self.write_seconds = ExactSum()
        #: wall seconds of post-failure recovery: restore transfer plus
        #: lost-step replay
        self.restore_seconds = ExactSum()
        #: optimizer steps lost to failures (work since the last
        #: completed snapshot, re-executed during recovery)
        self.lost_steps = 0
        #: snapshot bytes written through the storage pipes
        self.bytes_written = 0.0
        #: state bytes re-read / streamed during restores
        self.bytes_restored = 0.0
        #: completed snapshot writes (per node-write, not per interval)
        self.snapshots = 0
        #: completed post-failure recoveries
        self.restores = 0
        #: per-node gpu-0 step clock
        self.node_clock: Dict[int, int] = {}
        #: per-node clock value covered by the last completed snapshot
        self.snapshot_step: Dict[int, int] = {}
        #: per-node virtual time of the last completed snapshot
        self.snapshot_time: Dict[int, float] = {}
        #: steps awaiting replay in the next recovery phase
        self.pending_replay = 0
        #: a failure happened; the job must restore before its next round
        self.pending_restore = False

    def lost_on(self, node: int) -> int:
        """Steps a failure of ``node`` loses: its clock progress since
        its last completed snapshot."""
        return self.node_clock.get(node, 0) - self.snapshot_step.get(node, 0)
