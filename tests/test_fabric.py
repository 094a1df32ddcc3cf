"""Tests for the modelled ring all-reduce fabric (repro.sim.fabric).

The contract: on a homogeneous cluster where every rank enters the
collective together, the modelled fabric converges to the analytic closed
form (``AllReduceModel.step_cost``); under a straggler it strictly exceeds
it and the excess lands on the straggler's ring *neighbors* -- the property
a per-step constant cannot express; and an aborted (failed) member stalls
the ring only until the failure detector fires, never forever.
"""

import pytest

from repro.errors import ConfigurationError
from repro.sim.distributed import AllReduceModel
from repro.sim.fabric import RingFabric
from repro.sim.kernel import AllOf, Environment, Interrupt


def run_collective(model, world, delays=None, detection_timeout=1.0, kill=None):
    """Drive one all-reduce; returns (per-member sync seconds, end time).

    ``delays`` staggers entry per member (a compute straggler); ``kill``
    interrupts that member and aborts it mid-collective at its entry time.
    """
    env = Environment()
    fabric = RingFabric(
        env,
        latency=model.latency,
        bandwidth=model.bandwidth,
        gradient_bytes=model.gradient_bytes,
        detection_timeout=detection_timeout,
    )
    members = list(range(world))
    fabric.set_ring(members)
    delays = delays or {}
    sync = {}
    procs = {}

    def participant(member):
        delay = delays.get(member, 0.0)
        if delay > 0:
            yield env.timeout(delay)
        entered = env.now
        try:
            yield from fabric.allreduce("step", member)
        except Interrupt:
            return
        sync[member] = env.now - entered

    for member in members:
        procs[member] = env.process(participant(member))

    if kill is not None:
        member, at = kill

        def killer():
            yield env.timeout(at)
            if procs[member].is_alive:
                procs[member].interrupt("fail")
            fabric.abort(member)

        env.process(killer())

    env.run(until=AllOf(env, list(procs.values())))
    return sync, env.now, fabric


@pytest.mark.parametrize("world", [2, 3, 4, 8])
def test_homogeneous_collective_matches_analytic_within_tolerance(world):
    """Acceptance: modelled fabric within 5% of the closed form on a
    homogeneous static cluster (it is in fact exact)."""
    model = AllReduceModel()
    sync, end, _ = run_collective(model, world)
    analytic = model.step_cost(world)
    assert end == pytest.approx(analytic, rel=0.05)
    for member_sync in sync.values():
        assert member_sync == pytest.approx(analytic, rel=0.05)


def test_single_member_collective_is_free():
    model = AllReduceModel()
    sync, end, _ = run_collective(model, 1)
    assert end == 0.0
    assert sync == {0: 0.0}


def test_straggler_delays_its_neighbors_not_itself():
    """A rank entering late pays ~the analytic cost itself, while the ranks
    waiting on its chunks absorb the lateness -- neighbor coupling the
    closed form averages away.  The collective strictly exceeds analytic."""
    model = AllReduceModel()
    world, delta = 4, 1.0
    sync, end, _ = run_collective(model, world, delays={1: delta})
    analytic = model.step_cost(world)
    assert end > analytic + delta * 0.9  # strictly exceeds the closed form
    # the straggler itself barely waits: everyone else's chunks are ready
    assert sync[1] == pytest.approx(analytic, rel=0.5)
    # its ring successor absorbs (nearly) the whole delay
    assert sync[2] >= delta * 0.9
    assert sync[2] > sync[1] * 5


def test_sub_stage_straggler_propagates_partially():
    """A delay smaller than one full collective still shows up: total time
    grows by ~the delay instead of being amortized to nothing."""
    model = AllReduceModel()
    analytic = model.step_cost(4)
    delta = analytic / 3
    _sync, end, _ = run_collective(model, 4, delays={3: delta})
    assert analytic < end <= analytic + delta + 1e-9


def test_aborted_member_stalls_the_ring_only_until_detection():
    """Kill one member mid-collective: survivors complete within the
    detection window instead of deadlocking (regression: a dead rank's
    undelivered chunks must be filled in)."""
    model = AllReduceModel(latency=0.001, gradient_bytes=80e6)
    detection = 0.5
    analytic = model.step_cost(4)
    kill_at = analytic / 4  # mid-collective
    sync, end, fabric = run_collective(
        model, 4, detection_timeout=detection, kill=(1, kill_at)
    )
    assert set(sync) == {0, 2, 3}  # survivors all completed
    assert end <= kill_at + detection + 2 * analytic + 1e-9
    assert fabric.dead == {1: pytest.approx(kill_at)}
    assert fabric.in_flight == 0  # collective state cleaned up


def test_collectives_created_after_abort_exclude_the_dead_member():
    model = AllReduceModel()
    env = Environment()
    fabric = RingFabric(
        env,
        latency=model.latency,
        bandwidth=model.bandwidth,
        gradient_bytes=model.gradient_bytes,
    )
    fabric.set_ring([0, 1, 2])
    fabric.abort(1)
    assert fabric.ring == [0, 2]
    ends = {}

    def participant(member):
        yield from fabric.allreduce("next-step", member)
        ends[member] = env.now

    procs = [env.process(participant(m)) for m in (0, 2)]
    env.run(until=AllOf(env, procs))
    # a 2-member ring with no detection stalls: exactly the analytic cost
    assert env.now == pytest.approx(model.step_cost(2))


def test_fabric_validates_parameters():
    env = Environment()
    with pytest.raises(ConfigurationError):
        RingFabric(env, latency=0.001, bandwidth=0.0, gradient_bytes=1.0)
    with pytest.raises(ConfigurationError):
        RingFabric(
            env,
            latency=-1.0,
            bandwidth=1.0,
            gradient_bytes=1.0,
        )


def test_allreduce_closed_form_is_the_true_ring_cost():
    """step_cost == 2(W-1) x (latency + chunk/bandwidth): the latency term
    counts every ring stage and the bandwidth term approaches
    2 x gradient_bytes/bandwidth asymptotically."""
    model = AllReduceModel(latency=0.002, gradient_bytes=1e9, bandwidth=1e10)
    world = 5
    expected = 2 * (world - 1) * (0.002 + 1e9 / (world * 1e10))
    assert model.step_cost(world) == pytest.approx(expected)
    assert model.step_cost(1) == 0.0
