"""Unit tests for the substrate-neutral policy layer (repro.policy)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import WorkerScheduler
from repro.policy import (
    FAST_KEY,
    SLOW_KEY,
    BatchConstructionPolicy,
    LoaderStats,
    ReorderBuffer,
    RoutingPolicy,
    ScalingPolicy,
    SizeRouter,
    deal_batch_plan,
    deal_quota,
    first_tick,
    index_stream,
)
from repro.policy.routing import CONTINUE, FINISH_FAST, FINISH_SLOW, HANDOFF

from .helpers import StubDataset


# ---------------------------------------------------------------------------
# RoutingPolicy: cooperative (transform-boundary) accounting
# ---------------------------------------------------------------------------


def test_cooperative_timeout_exactly_at_threshold_stays_fast():
    """The boundary is inclusive: elapsed == budget keeps fast status."""
    decision = RoutingPolicy().plan([0.05], budget=0.05)
    assert decision.status == FINISH_FAST
    assert not decision.flagged_slow
    assert decision.handoff_index is None


def test_cooperative_midway_overshoot_hands_off_at_next_boundary():
    decision = RoutingPolicy().plan([0.04, 0.04, 0.04], budget=0.05)
    assert decision.status == HANDOFF
    assert decision.flagged_slow
    # stage 1 completes (cooperative mode cannot preempt it), handoff at 2
    assert decision.handoff_index == 2
    assert decision.inline_chunks == (0.04, 0.04)
    assert decision.background_seconds == pytest.approx(0.04)


def test_cooperative_final_stage_overshoot_is_slow_complete():
    decision = RoutingPolicy().plan([0.04, 0.04], budget=0.05)
    assert decision.status == FINISH_SLOW
    assert decision.flagged_slow
    assert decision.handoff_index is None
    assert decision.inline_chunks == (0.04, 0.04)


def test_cooperative_infinite_budget_never_flags():
    decision = RoutingPolicy().plan([10.0, 10.0], budget=math.inf)
    assert decision.status == FINISH_FAST


def test_cooperative_empty_profile_is_fast():
    decision = RoutingPolicy().plan([], budget=0.0)
    assert decision.status == FINISH_FAST
    assert decision.inline_chunks == ()


def test_after_stage_verdict_table():
    after = RoutingPolicy.after_stage
    assert after(0.01, 0, 3, 0.05) == CONTINUE
    assert after(0.05, 0, 3, 0.05) == CONTINUE  # boundary inclusive
    assert after(0.06, 0, 3, 0.05) == HANDOFF
    assert after(0.05, 2, 3, 0.05) == FINISH_FAST
    assert after(0.06, 2, 3, 0.05) == FINISH_SLOW


# ---------------------------------------------------------------------------
# RoutingPolicy: preemptive (mid-transform) accounting
# ---------------------------------------------------------------------------


def test_preemptive_grace_finishes_inflight_transform_inline():
    policy = RoutingPolicy(preemptive=True, grace_abs=0.1, grace_rel=0.2)
    decision = policy.plan([0.04, 0.04, 0.04], budget=0.05)
    # overshoot 0.03 within the 0.1 s grace: stage 1 finishes inline but the
    # sample is flagged and the remaining stage runs in the background
    assert decision.status == HANDOFF
    assert decision.flagged_slow
    assert decision.handoff_index == 2
    assert decision.inline_chunks == (0.04, 0.04)


def test_preemptive_grace_on_final_stage_is_slow_complete():
    policy = RoutingPolicy(preemptive=True, grace_abs=0.1, grace_rel=0.2)
    decision = policy.plan([0.04, 0.04], budget=0.05)
    assert decision.status == FINISH_SLOW
    assert decision.handoff_index is None
    assert decision.inline_chunks == (0.04, 0.04)


def test_preemptive_fire_discards_partial_work():
    policy = RoutingPolicy(preemptive=True)  # zero grace
    decision = policy.plan([0.04, 0.04], budget=0.05)
    # the timeout fires 0.01 s into stage 1: that slack is charged inline,
    # the partial work is discarded, and stage 1 re-executes in full in the
    # background
    assert decision.status == HANDOFF
    assert decision.handoff_index == 1
    assert decision.inline_chunks == (0.04, pytest.approx(0.01))
    assert decision.background_seconds == pytest.approx(0.04)


def test_preemptive_fire_with_no_slack_charges_nothing_extra():
    policy = RoutingPolicy(preemptive=True)
    decision = policy.plan([0.08], budget=0.0)
    assert decision.status == HANDOFF
    assert decision.handoff_index == 0
    assert decision.inline_chunks == ()
    assert decision.background_seconds == pytest.approx(0.08)


def test_preemptive_timeout_exactly_at_stage_boundary_stays_fast():
    policy = RoutingPolicy(preemptive=True)
    decision = policy.plan([0.05], budget=0.05)
    assert decision.status == FINISH_FAST


def test_negative_grace_rejected():
    with pytest.raises(ValueError):
        RoutingPolicy(preemptive=True, grace_abs=-1.0)


def test_modes_agree_on_which_samples_get_flagged():
    """Cooperative and preemptive accounting flag the same samples: a sample
    is slow iff its cumulative cost ever exceeds the budget, i.e. iff its
    total cost does."""
    import numpy as np

    rng = np.random.default_rng(7)
    cooperative = RoutingPolicy()
    preemptive = RoutingPolicy(preemptive=True, grace_abs=0.1, grace_rel=0.2)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        profile = list(rng.uniform(0.0, 0.2, size=n))
        budget = float(rng.uniform(0.01, 0.5))
        a = cooperative.plan(profile, budget)
        b = preemptive.plan(profile, budget)
        assert a.flagged_slow == b.flagged_slow == (sum(profile) > budget)


#: stage costs as the walk admits them (real, >= 0), zeros drawn often
_COSTS = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.sampled_from([0.1, 0.2, 0.3]))


@settings(max_examples=300, deadline=None)
@given(
    profile=st.lists(_COSTS, max_size=7),
    data=st.data(),
    preemptive=st.booleans(),
    grace_abs=st.sampled_from([0.0, 0.01, 0.5]),
    grace_rel=st.sampled_from([0.0, 0.2]),
)
def test_plan_is_the_stage_loop(profile, data, preemptive, grace_abs, grace_rel):
    """A profile within budget is routed ``FINISH_FAST`` without the stage
    loop; every plan is the loop's own, field for field and bit for bit.
    Budgets are drawn at the edges: the total, each prefix sum (as the loop
    adds it up, left to right), zero and infinity."""
    prefixes = list(itertools.accumulate(profile))
    budget = data.draw(
        st.one_of(
            st.sampled_from([0.0, math.inf, *prefixes]),
            st.floats(0.0, 80.0),
        )
    )
    policy = RoutingPolicy(preemptive=preemptive, grace_abs=grace_abs, grace_rel=grace_rel)
    loop = policy._plan_preemptive if preemptive else policy._plan_cooperative
    planned = policy.plan(profile, budget)
    unshortened = loop(profile, budget, float(sum(profile)))
    assert planned == unshortened
    assert repr(planned) == repr(unshortened)


# ---------------------------------------------------------------------------
# BatchConstructionPolicy (Algorithm 1 construction loop)
# ---------------------------------------------------------------------------


def make_queues(fast, slow):
    fast, slow = list(fast), list(slow)
    return (lambda: fast.pop(0) if fast else None), (
        lambda: slow.pop(0) if slow else None
    )


def test_construction_prefers_fast_over_slow():
    policy = BatchConstructionPolicy()
    try_fast, try_slow = make_queues(["f1", "f2"], ["s1"])
    assert policy.next_ready(try_fast, try_slow) == "f1"
    assert policy.next_ready(try_fast, try_slow) == "f2"
    assert policy.next_ready(try_fast, try_slow) == "s1"


def test_construction_drains_slow_when_fast_empty():
    policy = BatchConstructionPolicy()
    try_fast, try_slow = make_queues([], ["s1", "s2"])
    assert policy.next_ready(try_fast, try_slow) == "s1"


def test_construction_returns_none_when_both_queues_empty():
    policy = BatchConstructionPolicy()
    try_fast, try_slow = make_queues([], [])
    assert policy.next_ready(try_fast, try_slow) is None


def test_priority_keys_order_fast_before_slow():
    assert BatchConstructionPolicy.priority_key(False) == FAST_KEY
    assert BatchConstructionPolicy.priority_key(True) == SLOW_KEY
    assert FAST_KEY < SLOW_KEY


def test_route_ready_splits_by_flag():
    policy = BatchConstructionPolicy()
    fast_sink, slow_sink = [], []
    policy.route_ready(0, "a", False, fast_sink.append, slow_sink.append)
    policy.route_ready(1, "b", True, fast_sink.append, slow_sink.append)
    assert fast_sink == ["a"] and slow_sink == ["b"]


def test_route_ready_strict_order_buffers():
    policy = BatchConstructionPolicy(strict_order=True)
    fast_sink, slow_sink = [], []
    assert policy.route_ready(0, "a", True, fast_sink.append, slow_sink.append) is None
    assert fast_sink == [] and slow_sink == []
    assert policy.next_ready(lambda: None, lambda: None) == "a"


def test_reorder_buffer_blocks_on_sequence_gaps():
    buffer = ReorderBuffer()
    buffer.put(2, "c")
    buffer.put(1, "b")
    assert buffer.try_next() is None  # seq 0 still in flight
    buffer.put(0, "a")
    assert [buffer.try_next() for _ in range(3)] == ["a", "b", "c"]
    assert buffer.try_next() is None
    assert buffer.next_sequence == 3


# ---------------------------------------------------------------------------
# Stream dealing / feeding
# ---------------------------------------------------------------------------


def test_deal_batch_plan_conserves_and_chunks():
    plan = deal_batch_plan(22, batch_size=4, num_gpus=3)
    assert sum(sum(sizes) for sizes in plan) == 22
    flat = [size for sizes in plan for size in sizes]
    assert flat.count(4) == 5 and flat.count(2) == 1
    # round-robin dealing keeps batch counts near-equal
    counts = [len(sizes) for sizes in plan]
    assert max(counts) - min(counts) <= 1


def test_deal_quota_matches_plan_row_sums():
    assert deal_quota(22, 4, 3) == [sum(s) for s in deal_batch_plan(22, 4, 3)]
    assert sum(deal_quota(101, 7, 4)) == 101


def test_index_stream_bounded_and_globally_sequenced():
    from repro.data.samplers import RandomSampler

    sampler = RandomSampler(5, seed=1)
    items = list(index_stream(sampler, epochs=2))
    assert len(items) == 10
    assert [seq for _e, seq, _i in items] == list(range(10))
    assert [e for e, _s, _i in items] == [0] * 5 + [1] * 5
    assert [i for _e, _s, i in items[:5]] == sampler.epoch(0)


def test_index_stream_infinite_cycles_epochs():
    from repro.data.samplers import RandomSampler

    sampler = RandomSampler(3, seed=1)
    stream = index_stream(sampler)
    items = [next(stream) for _ in range(7)]
    assert [e for e, _s, _i in items] == [0, 0, 0, 1, 1, 1, 2]


# ---------------------------------------------------------------------------
# ScalingPolicy (Formulas 1-2 control loop)
# ---------------------------------------------------------------------------


def make_scaling(**kwargs):
    return ScalingPolicy(
        scheduler=WorkerScheduler(
            alpha=2.0, beta=2.0, cpu_threshold=0.7, delta_clip=2, max_workers=64
        ),
        **kwargs,
    )


def test_scaling_first_observation_anchors_interval():
    policy = make_scaling()
    assert policy.observe(now=0.0, busy_seconds=0.0, queue_fill=0.0, workers=4) is None
    action = policy.observe(now=1.0, busy_seconds=4.0, queue_fill=0.0, workers=4)
    assert action is not None


def test_scaling_grows_on_empty_queues_and_busy_cpu():
    policy = make_scaling()
    policy.reset(0.0)
    # 4 workers fully busy for 1 s, batch queues empty -> add workers
    action = policy.observe(now=1.0, busy_seconds=4.0, queue_fill=0.0, workers=4)
    assert action.total_workers == 6  # delta clipped at +2
    assert action.loading_target == 6 and action.background_target is None
    assert policy.history[-1].clipped_delta == 2


def test_scaling_shrinks_on_full_queues_and_idle_cpu():
    policy = make_scaling()
    policy.reset(0.0)
    action = policy.observe(now=1.0, busy_seconds=0.0, queue_fill=1.0, workers=8)
    assert action.total_workers == 7  # delta = -1.4 -> -1
    assert policy.history[-1].clipped_delta == -1


def test_scaling_zero_interval_returns_none():
    policy = make_scaling()
    policy.reset(5.0)
    assert policy.observe(now=5.0, busy_seconds=1.0, queue_fill=0.0, workers=4) is None


def test_scaling_split_tracks_background_share():
    policy = make_scaling(split_background=True, min_background=2)
    policy.reset(0.0)
    action = policy.observe(
        now=1.0,
        busy_seconds=10.0,
        queue_fill=0.0,
        workers=10,
        background_busy_seconds=5.0,
    )
    # half the CPU work came from the background path -> half the new pool
    assert action.background_target == round(action.total_workers * 0.5)
    assert action.loading_target + action.background_target == action.total_workers


def test_scaling_split_draining_gives_background_everything():
    policy = make_scaling(split_background=True)
    policy.reset(0.0)
    action = policy.observe(
        now=1.0,
        busy_seconds=10.0,
        queue_fill=0.0,
        workers=10,
        background_busy_seconds=1.0,
        draining=True,
    )
    assert action.background_target == action.total_workers
    assert action.loading_target == 0


def test_scaling_split_never_starves_loading_path():
    """Regression: with the pool scaled to <= min_background workers, the
    min_background floor used to swallow the whole budget and leave a
    *negative* loading target (total=1 -> background=2 -> loading=-1)."""
    policy = make_scaling(split_background=True, min_background=2)
    policy.reset(0.0)
    # 1 idle worker, full queues -> Formula 1 keeps the pool at min_workers=1
    action = policy.observe(
        now=1.0,
        busy_seconds=0.0,
        queue_fill=1.0,
        workers=1,
        background_busy_seconds=0.0,
    )
    assert action.total_workers == 1
    # ... nor may the background path lose its last worker (a blocked
    # hand-off would wait forever): at total == 1 both floors hold and the
    # pools sum to total + 1, the only place they do
    assert (action.loading_target, action.background_target) == (1, 1)


def test_scaling_split_loading_target_positive_across_pool_sizes():
    """Whenever loading work remains, loading *and* background keep >= 1
    worker at every reachable pool size and background share."""
    for workers in (1, 2, 3, 5, 10):
        for background_busy in (0.0, 0.5, 1.0):
            policy = make_scaling(split_background=True, min_background=2)
            policy.reset(0.0)
            busy = float(workers)
            action = policy.observe(
                now=1.0,
                busy_seconds=busy,
                queue_fill=0.5,
                workers=workers,
                background_busy_seconds=busy * background_busy,
            )
            assert action.loading_target >= 1, (workers, background_busy)
            assert action.background_target >= 1, (workers, background_busy)
            assert (
                action.loading_target + action.background_target
                == max(2, action.total_workers)
            )


# ---------------------------------------------------------------------------
# LoaderStats / SizeRouter / substrates
# ---------------------------------------------------------------------------


def test_stats_core_add_and_snapshot():
    stats = LoaderStats()
    stats.add(samples_fast=2, busy_seconds=0.5)
    stats.add(samples_timed_out=1, samples_preprocessed=3)
    assert stats.samples_fast == 2
    assert stats.busy_seconds == pytest.approx(0.5)
    assert stats.slow_fraction == pytest.approx(1 / 3)


def test_stats_core_rejects_unknown_counter():
    stats = LoaderStats()
    with pytest.raises(ValueError, match="bogus"):
        stats.add(samples_fast=1, bogus=1)
    assert stats.samples_fast == 0  # rejected before any counter moved


def test_size_router_threshold_from_dataset():
    ds = StubDataset([0.01] * 8)  # raw_nbytes 1024 each
    router = SizeRouter.from_dataset(ds)
    assert router.threshold_bytes == 1024.0
    assert not router.is_slow(1024)  # boundary is exclusive
    assert router.is_slow(1025)


def test_size_router_plan_defers_everything_or_nothing():
    """Predicted slow: handed off at transform 0 with nothing run inline.
    Predicted fast: the whole profile inline, never flagged, whatever it
    costs (the misprediction Fig. 3a shows)."""
    router = SizeRouter(1024)
    profile = [0.5, 2.0, 0.25]
    slow = router.plan(profile, 1025)
    assert (slow.status, slow.handoff_index, slow.inline_chunks) == (HANDOFF, 0, ())
    assert slow.flagged_slow and slow.background_seconds == 2.75
    fast = router.plan(profile, 1024)
    assert (fast.status, fast.handoff_index) == (FINISH_FAST, None)
    assert fast.inline_chunks == (0.5, 2.0, 0.25) and not fast.flagged_slow
    assert fast.total_seconds == 2.75 and fast.background_seconds == 0.0


# ---------------------------------------------------------------------------
# first_tick: the grid a sleeping poller walks
# ---------------------------------------------------------------------------


def test_first_tick_walks_the_grid_by_repeated_addition():
    """The tick is the value the poll loop's own ``t = t + interval`` reaches,
    bit for bit -- which ``last_poll + k * interval`` is not."""
    last_poll, interval = 0.0137, 0.01
    grid = [last_poll]
    for _ in range(400):
        grid.append(grid[-1] + interval)
    multiplied = [last_poll + k * interval for k in range(401)]
    assert grid != multiplied  # why the rule is spelled the way it is
    for k in (1, 2, 57, 400):
        between = (grid[k - 1] + grid[k]) / 2
        assert first_tick(last_poll, interval, between) == (grid[k], grid[k - 1])
        # a look exactly on a tick is answered with that tick
        assert first_tick(last_poll, interval, grid[k]) == (grid[k], grid[k - 1])


def test_first_tick_is_never_the_empty_poll_itself():
    """The stage has polled at ``last_poll``; a change in that same instant
    is seen one interval later."""
    assert first_tick(2.5, 0.25, 2.5) == (2.75, 2.5)
    assert first_tick(2.5, 0.25, 0.0) == (2.75, 2.5)


@pytest.mark.parametrize("interval", [0.0, -0.01, float("nan")])
def test_first_tick_rejects_an_interval_that_never_advances(interval):
    with pytest.raises(ValueError, match="poll interval must be positive"):
        first_tick(0.0, interval, 1.0)
