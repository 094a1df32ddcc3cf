"""Shard-aware cache-warmup accounting and the folded round executor.

The invariants this file pins:

* under static membership, a node's page cache only ever warms: its
  epoch-2 hit rate is at least its epoch-1 hit rate;
* a ``locality`` re-shard keeps survivors on overlapping shard blocks --
  per-node overlap at least the ``stride`` baseline when shards shrink
  (join), strictly less post-reshard cache-warmup (miss bytes) on a
  cache-sized workload when the cluster shrinks (leave);
* a static cluster runs on ``run_elastic``'s round executor (an empty
  schedule): counters, sync totals and training time match the pre-fold
  static runner's recorded outputs on a fixed seed.
"""

from dataclasses import replace

import pytest

from repro.sim.distributed import (
    AllReduceModel,
    ClusterMembership,
    MembershipEvent,
    run_elastic,
)
from repro.sim.workloads import CONFIG_A, make_workload
from tests.helpers import assert_every_door_rejects


def epoch_workload(n_samples=96, epochs=2):
    base = make_workload("speech_3s", dataset_size=n_samples)
    return replace(base, iterations=None, epochs=epochs)


def cache_sized_fraction(workload, post_leave_nodes):
    """Page cache ~1.5x one post-reshard shard: big enough to hold a
    node's own shard, far too small for the dataset."""
    n = len(workload.dataset)
    dataset_bytes = sum(workload.dataset.spec(i).raw_nbytes for i in range(n))
    return 1.5 * (dataset_bytes / post_leave_nodes) / CONFIG_A.memory_bytes


def test_an_unknown_reshard_policy_is_refused_at_every_door():
    """The two policies are the only ones: anything else is refused before
    a job runs."""
    assert_every_door_rejects("policy must be one of", reshard="zigzag")


# ---------------------------------------------------------------------------
# Warmup monotonicity under static membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reshard", ["stride", "locality"])
def test_static_membership_hit_rate_never_degrades(reshard):
    result = run_elastic(
        "minato",
        epoch_workload(n_samples=96, epochs=2),
        CONFIG_A,
        ClusterMembership(2),
        reshard=reshard,
    )
    assert len(result.epoch_cache_deltas) == 2
    for node_index in range(2):
        first = result.epoch_cache_deltas[0][node_index]
        second = result.epoch_cache_deltas[1][node_index]
        assert first.misses > 0  # epoch 1 is the warmup
        assert second.hit_rate >= first.hit_rate


def test_block_layout_static_epochs_are_fully_warm():
    """The locality layout's point: with a fixed per-node index set, every
    epoch after the first is all hits (no re-warm under static
    membership), and the shard overlap between epochs is total."""
    result = run_elastic(
        "minato",
        epoch_workload(n_samples=96, epochs=3),
        CONFIG_A,
        ClusterMembership(2),
        reshard="locality",
    )
    for round_index in (1, 2):
        assert result.epoch_shard_overlap[round_index] == [1.0, 1.0]
        for delta in result.epoch_cache_deltas[round_index]:
            assert delta.miss_bytes == 0
            assert delta.hit_rate == 1.0


# ---------------------------------------------------------------------------
# Locality vs stride across membership changes
# ---------------------------------------------------------------------------


def _reshard_pair(workload, membership, **kwargs):
    return {
        policy: run_elastic(
            "minato",
            workload,
            CONFIG_A,
            membership,
            reshard=policy,
            **kwargs,
        )
        for policy in ("stride", "locality")
    }


def test_join_locality_overlap_dominates_stride_per_node():
    """When shards shrink (a join), every survivor's new block nests in
    its old one: per-node overlap 1.0, >= whatever stride's fresh random
    shards happen to share."""
    workload = epoch_workload(n_samples=96, epochs=2)
    membership = ClusterMembership(2, [MembershipEvent("join", 2, epoch=1)])
    runs = _reshard_pair(workload, membership)
    post = 1
    stride_row = runs["stride"].epoch_shard_overlap[post]
    locality_row = runs["locality"].epoch_shard_overlap[post]
    # survivors 0 and 1 come first (rows align with sorted membership)
    assert locality_row[:2] == [1.0, 1.0]
    assert all(loc >= st for loc, st in zip(locality_row, stride_row))
    # the joiner has no history under either policy
    assert locality_row[2] == stride_row[2] == 0.0


def test_leave_locality_pays_less_warmup_than_stride():
    """Acceptance scenario: on a cache-sized workload, the epoch after a
    leave re-shard costs locality strictly fewer miss bytes (and higher
    mean overlap) than stride."""
    workload = epoch_workload(n_samples=120, epochs=2)
    membership = ClusterMembership(4, [MembershipEvent("leave", 3, epoch=1)])
    runs = _reshard_pair(
        workload,
        membership,
        cache_fraction=cache_sized_fraction(workload, post_leave_nodes=3),
    )
    post = 1
    stride_run, locality_run = runs["stride"], runs["locality"]
    assert (
        locality_run.epoch_mean_overlap[post]
        > stride_run.epoch_mean_overlap[post]
    )
    assert (
        locality_run.epoch_miss_bytes[post] < stride_run.epoch_miss_bytes[post]
    )
    # both still cover the dataset every epoch
    assert locality_run.epoch_coverage == [120, 120]
    assert stride_run.epoch_coverage == [120, 120]


def test_reshard_metrics_align_with_membership():
    membership = ClusterMembership(3, [MembershipEvent("leave", 2, epoch=1)])
    result = run_elastic(
        "minato",
        epoch_workload(n_samples=96, epochs=2),
        CONFIG_A,
        membership,
        reshard="locality",
    )
    assert result.reshard_policy == "locality"
    for row_overlap, row_cache, members in zip(
        result.epoch_shard_overlap,
        result.epoch_cache_deltas,
        result.epoch_membership,
    ):
        assert len(row_overlap) == len(row_cache) == len(members)
    # round 0 is everyone's first round: no previous shard to overlap
    assert result.epoch_shard_overlap[0] == [0.0] * 3


# ---------------------------------------------------------------------------
# a static cluster == run_elastic with an empty schedule
# ---------------------------------------------------------------------------


def test_static_run_elastic_matches_pre_fold_runner_on_fixed_seed():
    """Equivalence pin: a static run_elastic reproduces the counters and
    training time the pre-fold static runner produced on this exact
    configuration (recorded before the fold), and its sync total sits on
    the closed form's floor (steps x step_cost) plus the few percent of
    neighbor wait the ring measures."""
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5,
    )
    assert result.steps == 20
    assert result.samples == 480
    floor = 20 * AllReduceModel().step_cost(4)
    assert floor <= result.sync_seconds_total <= 1.05 * floor
    # recorded pre-fold training_time: 9.936 s
    assert result.training_time == pytest.approx(9.936, rel=0.02)
    assert result.shard_sizes == [60, 60]
    assert result.node_ids == [0, 1]
    assert result.per_node_active_seconds == [result.training_time] * 2


def test_static_run_elastic_runs_one_spanned_round():
    """The budget executor must not slice a static run into per-pass
    rounds (each would pay a loader cold start the pre-fold runner never
    paid): with no membership events the whole budget is one round."""
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5,
    )
    assert len(result.epoch_membership) == 1
    assert result.epoch_membership[0] == [0, 1]


def test_static_run_elastic_equivalence_holds_for_pytorch_loader():
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    result = run_elastic(
        "pytorch", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5,
    )
    assert result.steps == 20
    assert result.samples == 480
    # recorded pre-fold training_time: 155.32 s
    assert result.training_time == pytest.approx(155.32, rel=0.02)
