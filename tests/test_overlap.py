"""Bucketed compute/communication overlap in the distributed step loop.

Covers the PR's step-loop layer and its satellites:

* equivalence pin: ``topology="flat", overlap=False, buckets=1`` (the
  defaults) reproduce the pre-refactor runner's counters, sync totals and
  training time on both fabrics;
* conservation sweep (hypothesis): bucketing re-slices the gradient but
  never changes the bytes synced, and the exposed (non-overlapped) sync
  never exceeds the total, for every bucket count x topology x mode;
* fault injection: a mid-bucket node failure never deadlocks the
  hierarchical fabric (watchdog-guarded, the test_elastic pattern);
* entry-point validation of gpus_per_node / buckets / topology;
* per-node cache-size heterogeneity and post-reshard stale-byte
  (invalidation pressure) accounting.
"""

import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.sim.distributed import (  # noqa: E402
    AllReduceModel,
    _ElasticJob,
    ClusterMembership,
    MembershipEvent,
    run_elastic,
)
from repro.sim.runner import run_simulation  # noqa: E402
from repro.sim.workloads import CONFIG_A, make_workload  # noqa: E402
from tests.helpers import assert_every_door_rejects, run_with_watchdog  # noqa: E402

DEADLOCK_TIMEOUT = 60.0


def tiny_speech(scale=0.02, dataset_size=120):
    return make_workload("speech_3s", dataset_size=dataset_size).scaled(scale)


def epoch_workload(n_samples=96, epochs=2):
    base = make_workload("speech_3s", dataset_size=n_samples)
    return replace(base, iterations=None, epochs=epochs)


def run_guarded(runner, *args, **kwargs):
    """Run under the watchdog; fail instead of hang (deadlock guard)."""
    return run_with_watchdog(lambda: runner(*args, **kwargs), DEADLOCK_TIMEOUT)


# ---------------------------------------------------------------------------
# Equivalence pins: defaults reproduce the pre-refactor runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fabric,pinned_time,pinned_sync",
    [
        # recorded from the pre-refactor runner on this exact config; sync
        # re-recorded (was 0.698) when the simulated MinatoLoader lost
        # its feeder: every rank's workers 2..N start loading at t = 0, not
        # one poll tick later, and the ring's sync counter includes waits on
        # neighbours, which shift with it; training_time did not move
        ("ring", 9.936, 0.691),
    ],
)
def test_flat_serial_defaults_match_pre_refactor_runner(
    fabric, pinned_time, pinned_sync
):
    wl = tiny_speech()
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5, fabric=fabric,
    )
    assert (result.topology, result.overlap, result.buckets) == (
        "flat", False, 1,
    )
    assert result.steps == 20
    assert result.samples == 480
    assert result.training_time == pytest.approx(pinned_time, rel=0.005)
    assert result.sync_seconds_total == pytest.approx(pinned_sync, rel=0.005)
    # serial: every second of sync is exposed
    assert result.exposed_sync_seconds == pytest.approx(
        result.sync_seconds_total
    )


def test_explicit_flat_serial_arguments_equal_the_defaults():
    wl = tiny_speech()
    default = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5, fabric="ring",
    )
    explicit = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5, fabric="ring", topology="flat", overlap=False,
        buckets=1,
    )
    assert explicit.training_time == default.training_time
    assert explicit.sync_seconds_total == default.sync_seconds_total
    assert explicit.steps == default.steps


# ---------------------------------------------------------------------------
# Overlap semantics
# ---------------------------------------------------------------------------


def overlap_run(topology="flat", overlap=False, buckets=1, fabric="ring"):
    return run_elastic(
        "minato",
        tiny_speech(),
        CONFIG_A,
        ClusterMembership(2),
        gpus_per_node=2,
        total_steps=4 * 4,
        fabric=fabric,
        topology=topology,
        overlap=overlap,
        buckets=buckets,
    )


def test_overlap_reduces_exposed_sync():
    serial = overlap_run()
    overlapped = overlap_run(overlap=True, buckets=4)
    assert overlapped.exposed_sync_seconds < serial.exposed_sync_seconds
    assert overlapped.overlap_efficiency > 0.0
    assert serial.overlap_efficiency == 0.0


def test_hierarchical_overlap_composes_with_topology():
    """The acceptance pair: hierarchical+overlap strictly below flat+serial
    on exposed sync for a >= 2-GPU-per-node cluster."""
    baseline = overlap_run()
    best = overlap_run(topology="hierarchical", overlap=True, buckets=4)
    assert best.exposed_sync_seconds < baseline.exposed_sync_seconds


def test_sync_totals_are_the_exact_sums_of_what_a_probe_records(monkeypatch):
    """Every collective's duration, and every step's wait past the end of
    backprop, recorded as it happens: the job's totals are their
    correctly rounded sums (``math.fsum``), which no order of same-instant
    completions can move -- not a float sum in completion order."""
    durations, exposed = [], {}
    sync_bucket = _ElasticJob._sync_bucket

    def probed(job, rnd, member, key, deadline=None):
        entered = job.env.now
        done = sync_bucket(job, rnd, member, key, deadline)
        step, bucket = (member, key[:-1]), key[-1]

        def record(_event):
            durations.append(job.env.now - entered)
            # the step's backprop ends as its last bucket launches, and
            # its wait ends as its last collective completes
            end, launched = exposed.get(step, (job.env.now, entered))
            exposed[step] = (
                max(end, job.env.now),
                entered if bucket == job.buckets - 1 else launched,
            )

        done.callbacks.append(record)
        return done

    monkeypatch.setattr(_ElasticJob, "_sync_bucket", probed)
    result = run_elastic(
        "minato", tiny_speech(), CONFIG_A, ClusterMembership(4),
        gpus_per_node=4, total_steps=16 * 8, fabric="ring",
        topology="hierarchical", overlap=True, buckets=4,
    )
    assert len(durations) == result.steps * 4
    assert result.sync_seconds_total == math.fsum(durations)
    assert result.exposed_sync_seconds == math.fsum(
        end - launched for end, launched in exposed.values()
    )


def test_single_rank_world_has_no_sync_to_overlap():
    result = run_elastic(
        "minato", tiny_speech(), CONFIG_A, ClusterMembership(1),
        gpus_per_node=1, total_steps=4, fabric="ring", overlap=True,
        buckets=4,
    )
    assert result.sync_seconds_total == 0.0
    assert result.exposed_sync_seconds == 0.0
    assert result.gradient_bytes_synced == 0.0


@settings(max_examples=8, deadline=None)
@given(
    buckets=st.integers(min_value=1, max_value=6),
    topology=st.sampled_from(["flat", "hierarchical"]),
    overlap=st.booleans(),
)
def test_bucketing_conserves_gradient_bytes_and_bounds_exposed(
    buckets, topology, overlap
):
    """Property sweep: for every K x topology x mode, (a) total gradient
    bytes equal the unbucketed case, (b) exposed <= total sync."""
    result = overlap_run(topology=topology, overlap=overlap, buckets=buckets)
    reference = AllReduceModel().gradient_bytes * result.steps
    assert result.gradient_bytes_synced == pytest.approx(reference)
    assert (
        result.exposed_sync_seconds
        <= result.sync_seconds_total + 1e-9 * max(result.sync_seconds_total, 1)
    )


# ---------------------------------------------------------------------------
# Fault injection: mid-bucket failure on the hierarchical fabric
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overlap", [False, True])
def test_mid_bucket_failure_never_deadlocks_hierarchical_fabric(overlap):
    """Kill a node part-way into an epoch while its ranks are mid-bucket:
    the surviving sub-rings re-form within the detection window, the epoch
    completes, and the next re-shard re-covers the lost shard."""
    wl = epoch_workload(n_samples=96, epochs=3)
    membership = ClusterMembership(
        3, [MembershipEvent("fail", 2, epoch=1, after=0.4)]
    )
    result = run_guarded(
        run_elastic,
        "minato",
        wl,
        CONFIG_A,
        membership,
        gpus_per_node=2,
        fabric="ring",
        topology="hierarchical",
        overlap=overlap,
        buckets=3,
        detection_timeout=0.5,
    )
    n_samples = len(wl.dataset)
    assert result.epoch_coverage[1] < n_samples  # the lost shard remainder
    assert result.epoch_coverage[2] == n_samples  # re-covered after re-shard
    assert result.exposed_sync_seconds <= result.sync_seconds_total + 1e-9
    assert [len(m) for m in result.epoch_membership] == [3, 3, 2]


# ---------------------------------------------------------------------------
# Entry-point validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_buckets", [0, -2])
def test_runners_reject_non_positive_buckets(bad_buckets):
    assert_every_door_rejects("buckets", buckets=bad_buckets)


@pytest.mark.parametrize("bad_gpus", [0, -1])
def test_runners_reject_non_positive_gpus_per_node(bad_gpus):
    assert_every_door_rejects("gpus_per_node", gpus_per_node=bad_gpus)


def test_runners_reject_unknown_topology():
    assert_every_door_rejects("topology", topology="torus")


def test_hardware_default_gpus_per_node_is_honored():
    """HardwareConfig.gpus_per_node supplies the default; an explicit
    argument still wins."""
    wl = tiny_speech()
    hw = replace(CONFIG_A, gpus_per_node=2)
    from_hw = run_elastic(
        "minato", wl, hw, ClusterMembership(2), total_steps=4 * 3
    )
    assert from_hw.gpus_per_node == 2
    assert from_hw.world_size == 4
    explicit = run_elastic(
        "minato", wl, hw, ClusterMembership(2), gpus_per_node=1,
        total_steps=2 * 3,
    )
    assert explicit.gpus_per_node == 1


# ---------------------------------------------------------------------------
# Satellite: per-node cache-size heterogeneity
# ---------------------------------------------------------------------------


def test_per_node_cache_fraction_override():
    """One node with a starved cache keeps missing in the second epoch of
    a block-layout run while the well-provisioned node is fully warm."""
    wl = epoch_workload(n_samples=64, epochs=2)
    starved = CONFIG_A.with_cache_fraction(0.0)
    result = run_elastic(
        "minato",
        wl,
        CONFIG_A,
        ClusterMembership(2),
        reshard="locality",  # fixed per-rank blocks: epoch 2 can be warm
        node_hardware={1: starved},
    )
    assert result.per_node_cache_bytes[0] > 0
    assert result.per_node_cache_bytes[1] == 0.0
    warm_epoch = result.epoch_cache_deltas[1]
    assert warm_epoch[0].miss_bytes == 0  # node 0: fully cached shard
    assert warm_epoch[1].miss_bytes > 0  # node 1: no cache to warm


def test_run_simulation_honors_hardware_cache_fraction():
    wl = tiny_speech(dataset_size=16)  # 20 iterations revisit 16 samples
    cached = run_simulation("minato", wl, CONFIG_A, 1)
    starved = run_simulation(
        "minato", wl, CONFIG_A.with_cache_fraction(0.0), 1
    )
    assert cached.cache_hit_rate > 0.0
    assert starved.cache_hit_rate == 0.0


def test_with_cache_fraction_validates():
    for bad in (-0.1, float("nan"), 1.5):
        with pytest.raises(ConfigurationError, match="cache_fraction"):
            CONFIG_A.with_cache_fraction(bad)


@pytest.mark.parametrize(
    "link",
    [
        {"intra_node_bandwidth": float("nan")},
        {"intra_node_bandwidth": float("inf")},
        {"intra_node_bandwidth": 0.0},
        {"intra_node_latency": float("nan")},
        {"intra_node_latency": float("inf")},
        {"intra_node_latency": -1e-6},
    ],
)
def test_hardware_config_refuses_a_degenerate_intra_node_link(link):
    """Refused where it is written, not mid-run by the link it builds."""
    with pytest.raises(ConfigurationError, match="intra_node"):
        replace(CONFIG_A, **link)


@pytest.mark.parametrize(
    "machine",
    [
        {"cpu_cores": 0},  # a bare ValueError from the cores, at run start
        {"max_gpus": 0},
        {"memory_bytes": float("nan")},  # ran, with a cache that never evicts
        {"memory_bytes": float("inf")},
        {"memory_bytes": -1.0},
    ],
)
def test_hardware_config_refuses_degenerate_machine_values(machine):
    with pytest.raises(ConfigurationError, match=next(iter(machine))):
        replace(CONFIG_A, **machine)


# ---------------------------------------------------------------------------
# Satellite: invalidation pressure (stale bytes after a re-shard)
# ---------------------------------------------------------------------------


def stale_run(reshard):
    wl = epoch_workload(n_samples=96, epochs=3)
    membership = ClusterMembership(3, [MembershipEvent("leave", 2, epoch=1)])
    return run_elastic(
        "minato",
        wl,
        CONFIG_A,
        membership,
        reshard=reshard,
    )


def test_stale_bytes_reported_per_epoch_per_node():
    result = stale_run("stride")
    assert len(result.epoch_stale_bytes) == len(result.epoch_membership)
    for row, members in zip(
        result.epoch_stale_bytes, result.epoch_membership
    ):
        assert len(row) == len(members)
    # round 0: every cache starts empty, nothing can be stale
    assert result.epoch_stale_bytes[0] == [0.0] * 3
    # post-reshard: survivors still cache samples they no longer own
    assert result.epoch_stale_bytes_total[1] > 0


def test_locality_reshard_leaves_less_stale_cache_than_stride():
    """The quantity locality-preserving re-sharding also improves: what a
    survivor keeps of its old shard is exactly what does not go stale."""
    stride = stale_run("stride")
    locality = stale_run("locality")
    post = 1  # the round right after the membership change
    assert (
        locality.epoch_stale_bytes_total[post]
        < stride.epoch_stale_bytes_total[post]
    )
