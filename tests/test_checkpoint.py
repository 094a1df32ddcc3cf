"""Checkpoint/restore economics: policy validation, snapshot write
accounting on the cluster's storage pipes, restore-from-storage vs
restore-from-peer, lost-step replay, and per-tenant accounting in a mix.

The runs here use a deliberately small geometry (2 nodes x 2 GPUs, 8
steps/rank) so each case is a fraction of a second; the full
interval-sweep U-shape lives in ``repro.experiments.checkpoint`` and its
CLI test.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster, ClusterMembership, MembershipEvent
from repro.sim.distributed import run_elastic
from repro.sim.scenarios import PRESETS, JobMix
from repro.sim.workloads import CONFIG_A, make_workload

NODES = 2
GPUS = 2
STEPS_PER_RANK = 8
FAIL_TIME = 2.5


def run_job(policy, fail_time=None, cluster=None, **kwargs):
    workload = make_workload("image_segmentation", seed=0, dataset_size=12)
    events = (
        [MembershipEvent("fail", node=NODES - 1, time=fail_time)]
        if fail_time is not None
        else []
    )
    return run_elastic(
        "minato",
        workload,
        CONFIG_A,
        ClusterMembership(NODES, events) if cluster is None else None,
        gpus_per_node=GPUS,
        fabric="ring",
        total_steps=STEPS_PER_RANK * NODES * GPUS,
        checkpoint=policy,
        cluster=cluster,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------


def test_policy_requires_exactly_one_interval():
    with pytest.raises(ConfigurationError):
        CheckpointPolicy()
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_steps=4, interval_seconds=1.0)


def test_policy_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_steps=0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_seconds=0.0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_steps=4, restore="tape")
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval_steps=4, state_scale=0.0)
    # NaN never comes due, or fails only once the run is under way
    with pytest.raises(ConfigurationError, match="interval_seconds"):
        CheckpointPolicy(interval_seconds=float("nan"))
    with pytest.raises(ConfigurationError, match="state_scale"):
        CheckpointPolicy(interval_steps=4, state_scale=float("nan"))
    # an OverflowError in the exact write-time sum, mid-run
    with pytest.raises(ConfigurationError, match="state_scale"):
        CheckpointPolicy(interval_steps=4, state_scale=float("inf"))


def test_policy_state_bytes_and_due():
    steps = CheckpointPolicy(interval_steps=4)
    assert steps.state_bytes(100.0) == pytest.approx(300.0)  # default x3
    assert not steps.due(3, 1e9)
    assert steps.due(4, 0.0)
    seconds = CheckpointPolicy(interval_seconds=2.0, state_scale=8.0)
    assert seconds.state_bytes(100.0) == pytest.approx(800.0)
    assert not seconds.due(10**6, 1.999)
    assert seconds.due(0, 2.0)


def test_run_elastic_rejects_non_policy_checkpoint():
    with pytest.raises(ConfigurationError):
        run_job(5)  # not a CheckpointPolicy


# ---------------------------------------------------------------------------
# Steady-state snapshot writes
# ---------------------------------------------------------------------------


def test_snapshot_writes_accrue_and_slow_the_run():
    base = run_job(None)
    ckpt = run_job(CheckpointPolicy(interval_steps=1, state_scale=8.0))
    assert base.checkpoint_write_seconds == 0.0
    assert base.checkpoint_bytes == 0.0
    assert base.restore_seconds == 0.0
    assert base.lost_steps == 0
    assert ckpt.checkpoint_write_seconds > 0.0
    assert ckpt.checkpoint_bytes > 0.0
    assert ckpt.restore_seconds == 0.0  # nothing failed
    assert ckpt.lost_steps == 0
    # synchronous writes through the storage pipe are not free
    assert ckpt.training_time > base.training_time
    assert "ckpt:" in ckpt.summary()
    assert "ckpt:" not in base.summary()


def test_longer_interval_writes_fewer_bytes():
    every = run_job(CheckpointPolicy(interval_steps=1, state_scale=8.0))
    sparse = run_job(CheckpointPolicy(interval_steps=4, state_scale=8.0))
    assert 0.0 < sparse.checkpoint_bytes < every.checkpoint_bytes
    assert sparse.checkpoint_write_seconds < every.checkpoint_write_seconds


def test_interval_seconds_policy_writes():
    timed = run_job(CheckpointPolicy(interval_seconds=1.0, state_scale=8.0))
    assert timed.checkpoint_bytes > 0.0
    assert timed.checkpoint_write_seconds > 0.0


def test_storage_over_nic_prices_snapshot_on_the_nic_too():
    policy = CheckpointPolicy(interval_steps=1, state_scale=8.0)
    results = {}
    for over_nic in (False, True):
        cluster = Cluster(
            ClusterMembership(NODES),
            CONFIG_A,
            gpus_per_node=GPUS,
            topology="flat",
            storage_over_nic=over_nic,
        )
        results[over_nic] = run_job(policy, cluster=cluster)
    assert (
        results[True].checkpoint_write_seconds
        > results[False].checkpoint_write_seconds
    )


# ---------------------------------------------------------------------------
# Failure: restore and lost-step replay
# ---------------------------------------------------------------------------


def test_failure_restores_and_replays_lost_steps():
    tight = run_job(
        CheckpointPolicy(interval_steps=1, state_scale=8.0),
        fail_time=FAIL_TIME,
    )
    never = run_job(
        CheckpointPolicy(interval_steps=10**6, state_scale=8.0),
        fail_time=FAIL_TIME,
    )
    # both recover through a restore pass...
    assert tight.restore_seconds > 0.0
    assert never.restore_seconds > 0.0
    # ...but only the never-snapshotted job rolls back completed steps,
    # and its replay makes the restore pass strictly longer
    assert tight.lost_steps == 0
    assert never.lost_steps > 0
    assert never.restore_seconds > tight.restore_seconds
    assert never.checkpoint_write_seconds == 0.0


def test_restore_from_peer_streams_state_over_topology_link():
    link_bytes = {}
    results = {}
    for mode in ("storage", "peer"):
        cluster = Cluster(
            ClusterMembership(
                NODES, [MembershipEvent("fail", node=NODES - 1, time=FAIL_TIME)]
            ),
            CONFIG_A,
            gpus_per_node=GPUS,
            topology="flat",
        )
        link = cluster.peer_link(0)
        policy = CheckpointPolicy(
            interval_steps=2, restore=mode, state_scale=8.0
        )
        results[mode] = run_job(policy, cluster=cluster)
        link_bytes[mode] = link.total_bytes
    state = CheckpointPolicy(interval_steps=2, state_scale=8.0).state_bytes(
        400e6
    )
    # identical runs except the restore transport: the peer restore puts
    # the full replica state on the survivor's NIC-class link on top of
    # the collective traffic both runs share
    assert results["storage"].restore_seconds > 0.0
    assert results["peer"].restore_seconds > 0.0
    assert link_bytes["peer"] >= link_bytes["storage"] + state


# ---------------------------------------------------------------------------
# Per-tenant accounting in a mix
# ---------------------------------------------------------------------------


def test_checkpoint_heavy_preset_accounts_per_tenant():
    mix = PRESETS["checkpoint_heavy"](1.0)
    assert any(spec.checkpoint is not None for spec in mix.jobs)
    result = mix.run()
    tenant_a = result.job("tenant-a")
    tenant_b = result.job("tenant-b")
    assert tenant_a.checkpoint_write_seconds > 0.0
    assert tenant_a.checkpoint_bytes > 0.0
    # tenant-b never asked for snapshots: its own accounting stays zero
    # (the slowdown it suffers shows up as storage wait, not ckpt time)
    assert tenant_b.checkpoint_write_seconds == 0.0
    assert tenant_b.checkpoint_bytes == 0.0
    assert result.checkpoint_write_seconds == pytest.approx(
        tenant_a.checkpoint_write_seconds + tenant_b.checkpoint_write_seconds
    )
    assert result.restore_seconds == pytest.approx(
        tenant_a.restore_seconds + tenant_b.restore_seconds
    )


def test_checkpoint_heavy_slows_co_tenant():
    heavy = PRESETS["checkpoint_heavy"](1.0)
    control_specs = [replace(spec, checkpoint=None) for spec in heavy.jobs]
    with_ckpt = heavy.run()
    without = JobMix(control_specs, PRESETS["checkpoint_heavy"](1.0).cluster).run()
    assert (
        with_ckpt.per_job_makespan["tenant-b"]
        > without.per_job_makespan["tenant-b"]
    )
    assert (
        with_ckpt.job("tenant-b").storage_wait_seconds
        > without.job("tenant-b").storage_wait_seconds
    )
