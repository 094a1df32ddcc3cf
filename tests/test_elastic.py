"""Elastic cluster membership: re-sharding, fault injection, reporting.

Fault-injection regressions run under ``tests/helpers.run_with_watchdog``
with a generous wall-clock timeout, so a synchronization deadlock (a dead
rank never releasing the barrier / ring) fails the test instead of hanging
the suite.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import EVENT_KINDS, Cluster, read_schedule
from repro.sim.distributed import (
    ClusterMembership,
    MembershipEvent,
    run_elastic,
)
from repro.sim.scenarios import JobMix, JobSpec
from repro.sim.workloads import CONFIG_A, make_workload
from tests.helpers import (
    assert_every_door_rejects,
    legacy_boundary,
    run_with_watchdog,
)

DEADLOCK_TIMEOUT = 60.0  # wall seconds; generous, the runs take ~1 s


def epoch_workload(n_samples=96, epochs=2):
    base = make_workload("speech_3s", dataset_size=n_samples)
    return replace(base, iterations=None, epochs=epochs)


def run_guarded(*args, **kwargs):
    """Run run_elastic under the watchdog; fail instead of hang."""
    return run_with_watchdog(lambda: run_elastic(*args, **kwargs), DEADLOCK_TIMEOUT)


# ---------------------------------------------------------------------------
# Membership schedule validation
# ---------------------------------------------------------------------------


def test_membership_event_validation():
    with pytest.raises(ConfigurationError):
        MembershipEvent("reboot", 0, epoch=1)
    with pytest.raises(ConfigurationError):
        MembershipEvent("leave", 0)  # no anchor
    with pytest.raises(ConfigurationError):
        MembershipEvent("leave", 0, epoch=1, time=2.0)  # both anchors
    with pytest.raises(ConfigurationError):
        MembershipEvent("leave", 0, epoch=1, after=0.5)  # after is fail-only
    with pytest.raises(ConfigurationError):
        # after offsets an epoch anchor only; an absolute time anchor must
        # fold the offset in (it would otherwise be silently ignored)
        MembershipEvent("fail", 0, time=1.0, after=0.5)
    # a NaN anchor would kill the node the moment its round starts
    with pytest.raises(ConfigurationError, match="time"):
        MembershipEvent("fail", 1, time=float("nan"))
    with pytest.raises(ConfigurationError, match="after"):
        MembershipEvent("fail", 1, epoch=0, after=float("nan"))
    # a fail that never fires still arms every round: no collapse, and
    # every round ends after one shard pass
    with pytest.raises(ConfigurationError, match="time"):
        MembershipEvent("fail", 1, time=float("inf"))
    with pytest.raises(ConfigurationError, match="after"):
        MembershipEvent("fail", 1, epoch=0, after=float("inf"))
    MembershipEvent("fail", 0, epoch=1, after=0.5)  # fine


def test_cluster_membership_validation():
    with pytest.raises(ConfigurationError):
        ClusterMembership(0)
    with pytest.raises(ConfigurationError):  # joining an initial node
        ClusterMembership(2, [MembershipEvent("join", 1, epoch=1)])
    with pytest.raises(ConfigurationError):  # leaving an unknown node
        ClusterMembership(2, [MembershipEvent("leave", 7, epoch=1)])
    with pytest.raises(ConfigurationError):  # leaving twice
        ClusterMembership(
            2,
            [
                MembershipEvent("leave", 1, epoch=1),
                MembershipEvent("fail", 1, epoch=2),
            ],
        )
    membership = ClusterMembership(2, [MembershipEvent("join", 5, epoch=1)])
    assert membership.node_ids == [0, 1, 5]


def test_run_elastic_rejects_emptied_cluster():
    membership = ClusterMembership(
        2,
        [
            MembershipEvent("leave", 0, epoch=1),
            MembershipEvent("leave", 1, epoch=1),
        ],
    )
    with pytest.raises(ConfigurationError):
        run_guarded("minato", epoch_workload(), CONFIG_A, membership)


def test_run_elastic_rejects_epochs_override_on_iteration_workload():
    """The budget rules, at every front door (the doors' speech workload
    is iteration-budgeted)."""
    for knobs, message in (
        (dict(epochs=2), "epochs"),
        (dict(epochs=2, total_steps=8), "cannot be combined with an epochs"),
        (dict(total_steps=0), "total_steps must be >= 1"),
    ):
        assert_every_door_rejects(message, **knobs)


# ---------------------------------------------------------------------------
# Graceful churn: boundary re-sharding
# ---------------------------------------------------------------------------


def test_leave_at_boundary_keeps_full_coverage_every_epoch():
    """Acceptance scenario: a 4-node cluster losing one node at epoch 1
    still covers every sample each epoch."""
    membership = ClusterMembership(4, [MembershipEvent("leave", 3, epoch=1)])
    result = run_guarded(
        "minato", epoch_workload(n_samples=120, epochs=3), CONFIG_A, membership
    )
    assert result.epoch_membership == [[0, 1, 2, 3], [0, 1, 2], [0, 1, 2]]
    assert result.epoch_coverage == [120, 120, 120]
    assert result.epoch_shard_sizes == [[30] * 4, [40] * 3, [40] * 3]


def test_join_gets_a_shard_at_the_next_boundary():
    membership = ClusterMembership(2, [MembershipEvent("join", 2, epoch=1)])
    result = run_guarded(
        "minato", epoch_workload(n_samples=96, epochs=2), CONFIG_A, membership
    )
    assert result.epoch_membership == [[0, 1], [0, 1, 2]]
    assert result.epoch_shard_sizes == [[48, 48], [32, 32, 32]]
    assert result.epoch_coverage == [96, 96]
    # the joiner's active window starts at the boundary, not at t=0
    joiner = result.node_ids.index(2)
    assert result.per_node_active_seconds[joiner] < result.training_time


@pytest.mark.parametrize("loader", ["pytorch", "pecan", "dali"])
def test_every_loader_model_covers_each_epoch_under_churn(loader):
    """Regression (dali): a loader that shards per GPU with full batches
    only must get an equal rounded-up per-GPU budget, or the tail of some
    GPU's stream is never consumed and the epoch silently under-covers."""
    membership = ClusterMembership(3, [MembershipEvent("leave", 2, epoch=1)])
    result = run_guarded(
        loader,
        epoch_workload(n_samples=144, epochs=2),
        CONFIG_A,
        membership,
        gpus_per_node=2,
        fabric="ring",
    )
    assert result.epoch_coverage == [144, 144]
    assert result.epoch_membership == [[0, 1, 2], [0, 1]]


def test_iteration_budget_resplits_across_survivors():
    """Iteration-budgeted workloads fix cluster-wide steps: shrinking the
    cluster re-splits the remaining budget instead of losing it."""
    wl = make_workload("speech_3s", dataset_size=96).scaled(0.02)  # 20 steps
    membership = ClusterMembership(2, [MembershipEvent("leave", 1, epoch=1)])
    result = run_guarded(
        "minato", wl, CONFIG_A, membership, gpus_per_node=2, fabric="ring"
    )
    world = 2 * 2
    assert wl.iterations <= result.steps < wl.iterations + world
    assert len(result.epoch_membership[0]) == 2
    assert len(result.epoch_membership[-1]) == 1


# ---------------------------------------------------------------------------
# Fault injection: mid-epoch failures must degrade, never deadlock
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fabric", ["ring"])  # leaves with JobSpec.fabric
@pytest.mark.parametrize("loader", ["minato", "pytorch"])
def test_mid_epoch_failure_never_deadlocks(fabric, loader):
    """A node dying mid-epoch leaves its ring chunks unsent; the survivors
    must complete the epoch via the failure detector instead of waiting
    forever."""
    membership = ClusterMembership(
        3, [MembershipEvent("fail", 2, epoch=0, after=0.5)]
    )
    result = run_guarded(
        "minato" if loader == "minato" else loader,
        epoch_workload(n_samples=120, epochs=2),
        CONFIG_A,
        membership,
        gpus_per_node=2,
        fabric=fabric,
    )
    assert result.epoch_membership == [[0, 1, 2], [0, 1]]
    # the dead node's window ends mid-run
    dead = result.node_ids.index(2)
    assert result.per_node_active_seconds[dead] < result.training_time


@pytest.mark.parametrize("after", [0.6, 2.5])
def test_failure_while_ranks_wait_at_the_barrier_never_deadlocks(after):
    """A straggler survivor enters every collective seconds late, so the
    fast dead node's ranks are killed mid-collective, their chunks sent and
    the straggler's still awaited: the abort must fill in for the dead
    ranks in the collectives they already joined (and only those), or the
    straggler's late entries wait on a ring nobody else will ever turn."""
    from repro.experiments.distributed import straggler_config

    workload = epoch_workload(n_samples=144, epochs=2)
    membership = ClusterMembership(
        3, [MembershipEvent("fail", 2, epoch=0, after=after)]
    )
    result = run_guarded(
        "minato",
        workload,
        CONFIG_A,
        membership,
        gpus_per_node=2,
        node_hardware={1: straggler_config(CONFIG_A)},
    )
    assert result.epoch_membership == [[0, 1, 2], [0, 1]]
    assert result.epoch_coverage[1] == 144


def test_stale_epoch_anchored_failure_still_removes_the_node():
    """Regression: a fail whose `after` outlives its anchored epoch must
    degrade to removal at the next boundary, not silently never fire."""
    membership = ClusterMembership(
        3, [MembershipEvent("fail", 2, epoch=0, after=1e6)]
    )
    result = run_guarded(
        "minato", epoch_workload(n_samples=120, epochs=3), CONFIG_A, membership
    )
    assert result.epoch_membership == [[0, 1, 2], [0, 1], [0, 1]]
    assert result.epoch_coverage == [120, 120, 120]


def test_epoch_rounds_do_not_overshoot_into_the_next_shuffle():
    """Regression: when a shard's batch count does not divide by the GPU
    count, the round must still consume exactly one shard pass (short ranks
    leave the sync early) instead of padding with next-shuffle batches."""
    # shard 48/2 nodes = 24 -> 1 batch of 24 per node across 2 GPUs
    workload = epoch_workload(n_samples=48, epochs=2)
    result = run_guarded(
        "minato", workload, CONFIG_A, ClusterMembership(2), gpus_per_node=2
    )
    # one pass per node per epoch: 1 batch x 2 nodes x 2 epochs
    assert result.steps == 4
    assert result.samples == 2 * 48  # exactly the dataset, twice
    assert result.epoch_coverage == [48, 48]


def test_failed_shard_is_fully_recovered_next_epoch():
    """The failing epoch loses (only) part of the dead node's shard; the
    next boundary's re-shard re-covers the entire dataset."""
    n = 120
    membership = ClusterMembership(
        4, [MembershipEvent("fail", 3, epoch=1, after=0.5)]
    )
    result = run_guarded(
        "minato",
        epoch_workload(n_samples=n, epochs=3),
        CONFIG_A,
        membership,
        fabric="ring",
    )
    assert result.epoch_coverage[0] == n
    assert result.epoch_coverage[1] < n  # the lost shard remainder
    assert result.epoch_coverage[2] == n  # re-covered after re-sharding
    assert result.epoch_membership[2] == [0, 1, 2]


def test_time_anchored_failure_applies():
    """A fail anchored in absolute virtual time (not at an epoch) fires
    mid-run and the cluster keeps going."""
    membership = ClusterMembership(3, [MembershipEvent("fail", 2, time=1.0)])
    result = run_guarded(
        "minato", epoch_workload(n_samples=120, epochs=2), CONFIG_A, membership
    )
    assert [len(m) for m in result.epoch_membership][-1] == 2
    assert result.epoch_coverage[-1] == 120


def test_elastic_static_matches_membership_free_reporting():
    """No events: every epoch reports the same full membership and the
    per-node windows span the whole run."""
    result = run_guarded(
        "minato", epoch_workload(n_samples=96, epochs=2), CONFIG_A,
        ClusterMembership(3),
    )
    assert result.epoch_membership == [[0, 1, 2], [0, 1, 2]]
    assert result.node_ids == [0, 1, 2]
    assert result.per_node_active_seconds == [result.training_time] * 3
    assert result.shard_sizes == [32, 32, 32]


def test_a_fail_due_after_its_job_ended_leaves_the_job_alone():
    """Regression: the last round's fail controller outlived the job, so
    on a shared cluster a fail coming due after a tenant finished still
    killed that tenant's node -- its active window ran past its training
    time, and it lost steps it had already finished."""
    cluster = Cluster(
        ClusterMembership(2, [MembershipEvent("fail", 1, time=3.0)]),
        CONFIG_A,
        gpus_per_node=2,
    )

    def spec(job_id, total_steps, **knobs):
        return JobSpec(
            job_id=job_id,
            loader="minato",
            workload_name="image_segmentation",
            dataset_size=24,
            total_steps=total_steps,
            **knobs,
        )

    mix = JobMix(
        [
            spec("short", 8, checkpoint=CheckpointPolicy(interval_steps=100)),
            spec("long", 64),
        ],
        cluster,
    ).run()
    short, long_ = mix.job("short"), mix.job("long")
    assert short.training_time < 3.0 < long_.training_time
    assert short.per_node_active_seconds == [short.training_time] * 2
    assert short.lost_steps == 0
    assert long_.epoch_membership[-1] == [0]  # the tenant still running died


def test_a_fail_due_during_recovery_waits_for_the_next_boundary():
    """Regression: the last round stayed current through recovery, so a
    fail coming due there killed a node mid-restore and was charged as a
    second failure (a second restore after a round with no failure, and
    lost steps).  Recovery runs with the round closed: the fail stays
    pending, and the next boundary applies it as a removal."""

    def run(*fail_times):
        return run_elastic(
            "minato",
            make_workload("image_segmentation", dataset_size=36),
            CONFIG_A,
            ClusterMembership(
                3,
                events=[
                    MembershipEvent("fail", node, time=at)
                    for node, at in enumerate(fail_times, start=1)
                ],
            ),
            gpus_per_node=2,
            total_steps=120,
            checkpoint=CheckpointPolicy(interval_steps=4, state_scale=400),
        )

    one, two = run(1.0), run(1.0, 4.0)
    assert (two.restore_seconds, two.lost_steps) == (
        one.restore_seconds, one.lost_steps,
    )
    # node 1 dies at t = 1; the recovery after that round outlasts t = 4
    assert one.per_node_active_seconds[1] == 1.0
    assert one.epoch_membership == [[0, 1, 2], [0, 2]]
    assert two.epoch_membership == [[0, 1, 2], [0]]
    # node 2 leaves at the boundary after recovery, not at its fail time
    assert two.per_node_active_seconds[2] > 4.0


# ---------------------------------------------------------------------------
# The round boundary: one pass over the schedule, held to the four it was
# ---------------------------------------------------------------------------


@st.composite
def memberships(draw):
    """Valid schedules with coarse anchors, so that events tie with
    boundaries, with each other and with round ends."""
    initial = draw(st.integers(1, 4))
    removable = list(range(initial))
    joiners = 0
    events = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(EVENT_KINDS))
        if kind == "join":
            node = initial + joiners
            joiners += 1
            removable.append(node)
        elif removable:
            node = draw(st.sampled_from(removable))
            removable.remove(node)
        else:
            continue
        if draw(st.booleans()):
            after = 0.0
            if kind == "fail":
                after = draw(st.sampled_from([0.0, 0.5, 2.0]))
            epoch = draw(st.integers(0, 4))
            events.append(MembershipEvent(kind, node, epoch=epoch, after=after))
        else:
            time = draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))
            events.append(MembershipEvent(kind, node, time=time))
    return ClusterMembership(initial, events)


@settings(max_examples=300, deadline=None)
@given(membership=memberships(), data=st.data())
def test_one_schedule_pass_reads_what_four_passes_read(membership, data):
    """A round boundary reads the pending events once (``read_schedule``)
    where it used to enumerate the whole schedule four times
    (``tests/helpers.legacy_boundary``).  Over a run of boundaries -- each
    round spanning some passes and seconds, with some of its armed fails
    firing -- both must agree on the membership, the removals, what stays
    pending, what is armed and where a budget round must stop.  A fired
    fail stays pending in the one-pass job until the next boundary reads
    it as stale, which must be a no-op."""
    events = membership.events
    consumed = set()
    active = list(range(membership.initial_nodes))
    pending, live = events, frozenset(active)
    index, now = 0, 0.0
    for _ in range(5):
        old = legacy_boundary(events, consumed, active, index, now)
        new = read_schedule(pending, live, index, now)
        assert new.active == set(old.active)
        # the job stamps a node's departure from the set difference; a
        # node that joins and leaves at one boundary is never stamped
        assert live - new.active == set(old.removed) & live
        assert list(new.pending) == [
            event for i, event in enumerate(events) if i not in old.consumed
        ]
        assert list(new.armed) == old.armed
        assert new.next_anchor == old.next_change
        consumed, active = old.consumed, old.active
        pending, live = new.pending, new.active
        next_index = index + data.draw(st.integers(1, 2))
        next_now = now + data.draw(st.sampled_from([0.0, 0.5, 1.5, 3.0]))
        for event in old.armed:
            fires_at = now + event.after if event.time is None else event.time
            if fires_at <= next_now and data.draw(st.booleans()):
                # the controller: the old job consumed the event's index
                consumed.add(events.index(event))
                if event.node in active:
                    active.remove(event.node)
                live -= {event.node}
        index, now = next_index, next_now
