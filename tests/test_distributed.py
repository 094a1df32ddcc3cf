"""Tests for the multi-node distributed-training extension (paper §6)."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.sim.distributed import AllReduceModel, ClusterMembership, run_elastic
from repro.sim.runner import run_simulation
from repro.sim.workloads import CONFIG_A, make_workload
from tests.helpers import assert_every_door_rejects


def tiny_speech(scale=0.02):
    return make_workload("speech_3s", dataset_size=120).scaled(scale)


# ---------------------------------------------------------------------------
# AllReduceModel
# ---------------------------------------------------------------------------


def test_allreduce_free_for_single_gpu():
    assert AllReduceModel().step_cost(1) == 0.0


def test_allreduce_grows_with_world_size():
    model = AllReduceModel()
    costs = [model.step_cost(w) for w in (2, 4, 8, 16)]
    assert costs == sorted(costs)
    assert costs[0] > 0


def test_allreduce_bandwidth_term_bounded():
    """The ring term approaches 2x gradient_bytes/bandwidth asymptotically."""
    model = AllReduceModel(latency=0.0, gradient_bytes=1e9, bandwidth=1e10)
    assert model.step_cost(1000) < 2.0 * 1e9 / 1e10 + 1e-9


def test_every_door_validates_fabric():
    assert_every_door_rejects("fabric must be one of", fabric="torus")
    # the removed run mode says where its closed form went
    assert_every_door_rejects(
        "analytic mode was removed.*AllReduceModel.step_cost",
        fabric="analytic",
    )


@pytest.mark.parametrize("bad", [-1.0, "x", None, float("nan")])
def test_detection_timeout_is_validated_with_the_job(bad):
    """A job-owned knob is rejected when the ``JobSpec`` is built, naming
    the job -- not later, as the fabric's three-knob message (or a bare
    ``TypeError``) once the job meets its cluster."""
    assert_every_door_rejects(
        "job 'job0': detection_timeout must be a real number >= 0",
        detection_timeout=bad,
    )


def ring_sync_per_step(**kwargs):
    ring = run_elastic(
        "minato", tiny_speech(), CONFIG_A, ClusterMembership(2),
        gpus_per_node=2, total_steps=4 * 5, **kwargs,
    )
    assert ring.steps == 4 * 5
    return ring.sync_seconds_total / ring.steps


def test_ring_fabric_matches_analytic_on_homogeneous_cluster():
    """Cross-check: the modelled per-link ring's measured per-step sync and
    the closed form agree on a uniform static cluster (the only regime the
    closed form covers); the few percent above it are waits on neighbors
    whose batch landed later."""
    closed_form = AllReduceModel().step_cost(4)
    assert closed_form <= ring_sync_per_step() <= 1.05 * closed_form


def test_hierarchical_ring_fabric_matches_hierarchical_analytic():
    """The runner-level edition of the topology cross-check: with
    ``topology="hierarchical"`` the modelled fabric's per-step sync sits on
    the hierarchical closed form plus the same ~1.5 ms of neighbor wait
    the flat ring shows (a larger share of a smaller cost)."""
    model = AllReduceModel()
    closed_form = model.hierarchical_step_cost(
        2, 2, CONFIG_A.intra_node_latency, CONFIG_A.intra_node_bandwidth
    )
    measured = ring_sync_per_step(allreduce=model, topology="hierarchical")
    assert closed_form <= measured <= 1.1 * closed_form
    # both topologies run the same closed-form family: hierarchical < flat
    assert measured < model.step_cost(4)


def test_ring_fabric_exposes_straggler_neighbor_delay():
    """Under a hardware straggler the measured per-step sync wait on the
    ring fabric far exceeds the closed form, which is constant by
    construction -- the property a closed form cannot express."""
    from repro.experiments.distributed import straggler_config

    measured = ring_sync_per_step(
        node_hardware={0: CONFIG_A, 1: straggler_config(CONFIG_A)}
    )
    assert measured > 1.5 * AllReduceModel().step_cost(4)


# ---------------------------------------------------------------------------
# Static clusters: run_elastic with an empty schedule
# ---------------------------------------------------------------------------


def test_distributed_validates_nodes():
    with pytest.raises(ConfigurationError):
        run_elastic("minato", tiny_speech(), CONFIG_A, ClusterMembership(0))


def test_single_node_matches_local_simulation_shape():
    wl = tiny_speech()
    local = run_simulation("minato", wl, CONFIG_A, 2)
    dist = run_elastic(
        "minato",
        wl,
        CONFIG_A,
        ClusterMembership(1),
        gpus_per_node=2,
        total_steps=wl.batches_per_gpu(2) * 2,
    )
    # same workload through the same loader model: times should be close
    # (the distributed runner adds only the 2-GPU sync barrier)
    assert dist.training_time == pytest.approx(local.training_time, rel=0.3)
    assert dist.samples == local.samples


def test_distributed_step_and_sample_accounting():
    wl = tiny_speech()
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5,
    )
    assert result.world_size == 4
    assert result.steps == 4 * 5
    assert result.samples == 4 * 5 * wl.batch_size


def test_distributed_sync_cost_accumulates():
    """Link cost lands in ``sync_seconds_total`` on top of the neighbor
    waits the ring counts even over free links: the closed form is the
    floor of what a run with priced links reports, and more than free
    links ever accumulate."""
    wl = tiny_speech()
    # one byte: a zero-byte transfer skips the link, latency included
    free = AllReduceModel(latency=0.0, gradient_bytes=1.0)
    priced = AllReduceModel(latency=0.1, gradient_bytes=1.0)
    cheap, expensive = (
        run_elastic(
            "minato", wl, CONFIG_A, ClusterMembership(2), total_steps=2 * 5,
            allreduce=model,
        )
        for model in (free, priced)
    )
    floor = expensive.steps * priced.step_cost(expensive.world_size)
    assert 0.0 < cheap.sync_seconds_total < floor
    assert floor <= expensive.sync_seconds_total
    assert expensive.training_time > cheap.training_time


def test_distributed_minato_beats_pytorch_across_nodes():
    wl = tiny_speech(scale=0.03)
    for nodes in (1, 2):
        torch_result = run_elastic(
            "pytorch", wl, CONFIG_A, ClusterMembership(nodes),
            total_steps=nodes * 6,
        )
        minato_result = run_elastic(
            "minato", wl, CONFIG_A, ClusterMembership(nodes),
            total_steps=nodes * 6,
        )
        assert minato_result.training_time < torch_result.training_time


def test_distributed_straggler_node_couples_the_cluster():
    """One degraded node (fewer cores, slower storage) slows every rank:
    the per-step barrier imposes the straggler's tail latency cluster-wide."""
    from repro.experiments.distributed import straggler_config

    wl = tiny_speech()
    uniform = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2,
        total_steps=4 * 5,
    )
    straggler = run_elastic(
        "minato",
        wl,
        CONFIG_A,
        ClusterMembership(2),
        gpus_per_node=2,
        total_steps=4 * 5,
        node_hardware={0: CONFIG_A, 1: straggler_config(CONFIG_A)},
    )
    assert straggler.training_time > uniform.training_time
    assert straggler.node_hardware_names == ["config_a", "config_a_straggler"]
    assert len(straggler.per_node_cpu_utilization) == 2
    # both runs complete the same synchronized step budget
    assert straggler.steps == uniform.steps == 20


def test_distributed_barrier_synchronizes_steps():
    """With a barrier, no GPU can run far ahead: both nodes end together."""
    wl = tiny_speech()
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=1,
        total_steps=2 * 8,
    )
    assert result.steps == 16


# ---------------------------------------------------------------------------
# SimResult CSV export
# ---------------------------------------------------------------------------


def test_sim_result_to_csv(tmp_path):
    wl = tiny_speech()
    result = run_simulation("minato", wl, CONFIG_A, 1)
    paths = result.to_csv(str(tmp_path))
    assert len(paths) == 4
    for path in paths:
        assert os.path.exists(path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header.startswith("t_seconds,")
