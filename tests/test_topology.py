"""Topology layer + hierarchical collectives (repro.sim.topology/fabric).

The refactored stack: a Topology owns the links and plans ring phases
(reduce-scatter / all-gather passes), the fabric executes them.  The
contract mirrors the flat ring's, one level up: on a homogeneous cluster
where every rank enters together the modelled hierarchical fabric
converges to ``AllReduceModel.hierarchical_step_cost`` (it is in fact
exact); a straggler couples through its rings' neighbors;
and an aborted member stalls each sub-ring only until the failure detector
fires, never forever.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.distributed import AllReduceModel
from repro.sim.fabric import RingFabric
from repro.sim.kernel import AllOf, Environment, Interrupt
from repro.sim.links import project
from repro.sim.topology import FlatRing, Hierarchical

INTRA_LATENCY = 3e-6
INTRA_BANDWIDTH = 300e9


def hier_fabric(model, env, nodes_gpus, detection_timeout=1.0, **topo_kwargs):
    gpus = topo_kwargs.pop("gpus_per_node", nodes_gpus[1])
    topo = Hierarchical(
        env,
        latency=model.latency,
        bandwidth=model.bandwidth,
        intra_latency=INTRA_LATENCY,
        intra_bandwidth=INTRA_BANDWIDTH,
        gpus_per_node=gpus,
        **topo_kwargs,
    )
    return RingFabric(
        env,
        latency=model.latency,
        bandwidth=model.bandwidth,
        gradient_bytes=model.gradient_bytes,
        detection_timeout=detection_timeout,
        topology=topo,
    )


def run_hier_collective(
    model, nodes, gpus, delays=None, detection_timeout=1.0, kill=None
):
    """Drive one hierarchical all-reduce; mirrors test_fabric's helper."""
    env = Environment()
    fabric = hier_fabric(model, env, (nodes, gpus), detection_timeout)
    members = [(n, g) for n in range(nodes) for g in range(gpus)]
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


# ---------------------------------------------------------------------------
# Homogeneous clusters: modelled fabric == hierarchical closed form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes,gpus", [(2, 2), (2, 4), (4, 2), (3, 3)])
def test_hierarchical_collective_matches_closed_form(nodes, gpus):
    """Acceptance: the modelled hierarchical fabric is within 5% of
    ``hierarchical_step_cost`` on a homogeneous cluster (it is exact)."""
    model = AllReduceModel()
    sync, end, fabric = run_hier_collective(model, nodes, gpus)
    analytic = model.hierarchical_step_cost(
        nodes, gpus, INTRA_LATENCY, INTRA_BANDWIDTH
    )
    assert end == pytest.approx(analytic, rel=0.05)
    for member_sync in sync.values():
        assert member_sync == pytest.approx(analytic, rel=0.05)
    assert fabric.in_flight == 0


def test_hierarchical_single_gpu_per_node_degenerates_to_flat_ring():
    """G=1: no intra phases; the inter ring over N nodes is exactly the
    flat closed form over N ranks."""
    model = AllReduceModel()
    _sync, end, _ = run_hier_collective(model, 4, 1)
    assert end == pytest.approx(model.step_cost(4))


def test_hierarchical_single_node_is_intra_only():
    """N=1: pure intra-node ring all-reduce on NVLink-class links."""
    model = AllReduceModel()
    _sync, end, _ = run_hier_collective(model, 1, 4)
    expected = 2 * 3 * (
        INTRA_LATENCY + model.gradient_bytes / (4 * INTRA_BANDWIDTH)
    )
    assert end == pytest.approx(expected)


def test_hierarchical_beats_flat_on_multi_gpu_nodes():
    """The point of the topology: NVLink absorbs (G-1)/G of the traffic
    and only 2(N-1) latency hops cross the NIC instead of 2(NG-1)."""
    model = AllReduceModel()
    hier = model.hierarchical_step_cost(2, 4, INTRA_LATENCY, INTRA_BANDWIDTH)
    flat = model.step_cost(8)
    assert hier < flat
    _sync, end, _ = run_hier_collective(model, 2, 4)
    assert end == pytest.approx(hier, rel=0.05)
    assert end < flat


def priced(schedule):
    """Seconds a collapse schedule takes from idle links, each stage priced
    by the link layer's closed form as ``RingFabric._collapse_decider``
    walks it (a stage's send never queues behind its own stream: the
    previous stage drained no later than it finished)."""
    now = 0.0
    for stages, _scope, chunk, bandwidth, latency, streams, _fanout in schedule:
        for _ in range(stages):
            _drain, now, _excess = project(
                now, chunk, bandwidth, latency, streams
            )
    return now


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(1, 6),
    gpus=st.integers(1, 6),
    latency=st.floats(0.0, 1e-2),
    bandwidth=st.floats(1e6, 1e12),
    intra_latency=st.floats(0.0, 1e-3),
    intra_bandwidth=st.floats(1e6, 1e13),
    nbytes=st.floats(1.0, 1e10),
)
def test_collapse_schedules_price_to_the_closed_forms(
    nodes, gpus, latency, bandwidth, intra_latency, intra_bandwidth, nbytes
):
    """``collapse_schedule`` priced by ``links.project`` *is* the closed
    form: ``step_cost`` on a flat ring, ``hierarchical_step_cost`` on a
    two-level one -- the identity that lets the duplicate closed forms in
    ``AllReduceModel`` be folded into it without guessing."""
    model = AllReduceModel(latency=latency, bandwidth=bandwidth)
    env = Environment()
    members = [(n, g) for n in range(nodes) for g in range(gpus)]
    flat = FlatRing(env, latency, bandwidth)
    assert priced(flat.collapse_schedule(members, nbytes)) == pytest.approx(
        model.step_cost(len(members), nbytes), rel=1e-12
    )
    hier = Hierarchical(
        env, latency, bandwidth, intra_latency, intra_bandwidth, gpus
    )
    assert priced(hier.collapse_schedule(members, nbytes)) == pytest.approx(
        model.hierarchical_step_cost(
            nodes, gpus, intra_latency, intra_bandwidth, nbytes
        ),
        rel=1e-12,
    )


SLOW_NVLINK = {1: (1e-5, 1e9)}  # node 1's own (latency, bandwidth)


@pytest.mark.parametrize(
    "members,intra_params,nbytes,collapsible",
    [
        ([(n, g) for n in range(3) for g in range(2)], None, 1e6, True),
        # ragged groups: node 2's rank has no intra pass, and the inter
        # ring at intra position 1 spans fewer nodes
        ([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)], None, 1e6, False),
        # a per-node intra link class that some pass rides
        ([(n, g) for n in range(2) for g in range(2)], SLOW_NVLINK, 1e6, False),
        # ... and one that none does: with one GPU per node no rank has an
        # intra pass, so the override is never read and the snapshot is
        # homogeneous (the hand-written schedule declined it)
        ([(0, 0), (1, 0), (2, 0)], SLOW_NVLINK, 1e6, True),
        # nothing to move: the link layer skips 0-byte transfers
        ([(n, g) for n in range(3) for g in range(2)], None, 0.0, False),
    ],
    ids=["homogeneous", "ragged", "intra-override", "unused-override", "zero-bytes"],
)
def test_collapse_is_read_off_the_ring_plan(
    members, intra_params, nbytes, collapsible
):
    """One derivation from ``phases``: a snapshot collapses exactly when
    every member's passes have the same shape, and then the schedule *is*
    one member's plan, with the streams sharing its link counted."""
    gpus = max(g for _n, g in members) + 1
    model = AllReduceModel()

    def drive(collapse):
        env = Environment()
        topo = Hierarchical(
            env, model.latency, model.bandwidth, INTRA_LATENCY,
            INTRA_BANDWIDTH, gpus, intra_params=intra_params,
        )
        fabric = RingFabric(
            env, model.latency, model.bandwidth, nbytes,
            topology=topo, collapse=collapse,
        )
        fabric.set_ring(members)
        procs = [env.process(fabric.allreduce("k", m)) for m in members]
        env.run(until=AllOf(env, procs))
        return topo, fabric, env

    topo, fast, fast_env = drive(collapse=True)
    _topo, per_rank, per_rank_env = drive(collapse=False)
    schedule = topo.collapse_schedule(members, nbytes)
    assert (schedule is not None) == collapsible
    assert fast.collapsed_collectives == int(collapsible)
    assert fast_env.now == per_rank_env.now
    assert fast.link_wait_by_class == per_rank.link_wait_by_class
    if collapsible:
        assert fast_env.events_processed < per_rank_env.events_processed
        first = members[0]
        assert [(stages, scope, chunk) for stages, scope, chunk, *_ in schedule] == [
            (len(p.ring) - 1, p.scope, p.nbytes / len(p.ring))
            for p in topo.phases(members, first, nbytes)
        ]
        # G ranks of a node share its one NIC; every other link is private
        assert [streams for *_, streams, _fanout in schedule] == [
            gpus if scope == "inter" else 1 for _s, scope, *_ in schedule
        ]


# ---------------------------------------------------------------------------
# Bucket-sized collectives
# ---------------------------------------------------------------------------


def test_allreduce_nbytes_override_scales_the_chunks():
    """A bucket's collective moves its slice, not the full gradient."""
    model = AllReduceModel()
    world = 4
    env = Environment()
    fabric = RingFabric(
        env,
        latency=model.latency,
        bandwidth=model.bandwidth,
        gradient_bytes=model.gradient_bytes,
    )
    fabric.set_ring(list(range(world)))

    def participant(member):
        yield from fabric.allreduce("bucket", member, nbytes=model.gradient_bytes / 4)

    procs = [env.process(participant(m)) for m in range(world)]
    env.run(until=AllOf(env, procs))
    assert env.now == pytest.approx(
        model.step_cost(world, nbytes=model.gradient_bytes / 4)
    )
    assert env.now < model.step_cost(world)


# ---------------------------------------------------------------------------
# Straggler / failure semantics per sub-ring
# ---------------------------------------------------------------------------


def test_hierarchical_straggler_delays_its_intra_ring_first():
    """A late GPU stalls its own node's intra ring (and through it the
    whole collective); the total strictly exceeds the closed form."""
    model = AllReduceModel()
    delta = 1.0
    sync, end, _ = run_hier_collective(model, 2, 2, delays={(0, 1): delta})
    analytic = model.hierarchical_step_cost(
        2, 2, INTRA_LATENCY, INTRA_BANDWIDTH
    )
    assert end > analytic + delta * 0.9
    # the straggler itself barely waits; its intra neighbor absorbs it
    assert sync[(0, 1)] == pytest.approx(analytic, rel=0.5)
    assert sync[(0, 0)] >= delta * 0.9


def test_hierarchical_abort_mid_collective_never_deadlocks():
    """Kill one GPU mid-collective: every surviving rank of every sub-ring
    completes within the detection window instead of deadlocking."""
    model = AllReduceModel(latency=0.001, gradient_bytes=80e6)
    detection = 0.5
    analytic = model.hierarchical_step_cost(
        2, 2, INTRA_LATENCY, INTRA_BANDWIDTH
    )
    kill_at = analytic / 4
    sync, end, fabric = run_hier_collective(
        model, 2, 2, detection_timeout=detection, kill=((0, 1), kill_at)
    )
    assert set(sync) == {(0, 0), (1, 0), (1, 1)}
    assert end <= kill_at + detection + 2 * analytic + 1e-9
    assert (0, 1) in fabric.dead
    assert fabric.in_flight == 0


def test_hierarchical_collectives_after_abort_exclude_the_dead_member():
    model = AllReduceModel()
    env = Environment()
    fabric = hier_fabric(model, env, (2, 2))
    members = [(n, g) for n in range(2) for g in range(2)]
    fabric.set_ring(members)
    fabric.abort((1, 1))
    assert (1, 1) not in fabric.ring

    def participant(member):
        yield from fabric.allreduce("next", member)

    survivors = [(0, 0), (0, 1), (1, 0)]
    procs = [env.process(participant(m)) for m in survivors]
    env.run(until=AllOf(env, procs))
    assert fabric.in_flight == 0
    # node 1 is down to one GPU: its intra phases are free, node 0 still
    # pays a 2-GPU intra ring, and the inter ring spans both nodes
    assert env.now > 0


# ---------------------------------------------------------------------------
# Link ownership and parameters
# ---------------------------------------------------------------------------


def test_topology_owns_distinct_link_classes():
    env = Environment()
    topo = Hierarchical(
        env,
        latency=0.0015,
        bandwidth=25e9,
        intra_latency=INTRA_LATENCY,
        intra_bandwidth=INTRA_BANDWIDTH,
        gpus_per_node=2,
    )
    intra = topo.link((0, 0), "intra")
    inter = topo.link((0, 0), "inter")
    assert intra is not inter
    assert intra is topo.link((0, 0), "intra")  # cached per (scope, member)
    assert intra.bandwidth == INTRA_BANDWIDTH
    # the NIC link carries its full bandwidth: fair sharing among the
    # node's G concurrent inter-ring streams happens per-flow at run time
    # (SharedLink max-min), not by pre-dividing the link's capacity
    assert inter.bandwidth == 25e9
    assert inter.latency == 0.0015
    # both members of the node resolve to the same physical NIC link
    assert inter is topo.link((0, 1), "inter")


def test_hierarchical_per_node_intra_overrides():
    env = Environment()
    topo = Hierarchical(
        env,
        latency=0.0015,
        bandwidth=25e9,
        intra_latency=INTRA_LATENCY,
        intra_bandwidth=INTRA_BANDWIDTH,
        gpus_per_node=2,
        intra_params={1: (1e-5, 50e9)},
    )
    assert topo.link((0, 0), "intra").bandwidth == INTRA_BANDWIDTH
    assert topo.link((1, 0), "intra").bandwidth == 50e9
    assert topo.link((1, 0), "intra").latency == 1e-5


def test_flat_topology_matches_legacy_link_parameters():
    env = Environment()
    topo = FlatRing(env, latency=0.002, bandwidth=10e9)
    link = topo.link(3)
    assert link.bandwidth == 10e9
    assert link.latency == 0.002


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_topology_validates_parameters():
    env = Environment()
    with pytest.raises(ConfigurationError):
        FlatRing(env, latency=0.001, bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        FlatRing(env, latency=-1.0, bandwidth=1.0)
    for knobs in ({"latency": float("nan")}, {"bandwidth": float("nan")}):
        with pytest.raises(ConfigurationError):
            FlatRing(env, **{"latency": 0.001, "bandwidth": 1.0, **knobs})
    with pytest.raises(ConfigurationError):
        Hierarchical(
            env,
            latency=0.001,
            bandwidth=1.0,
            intra_latency=float("nan"),
            intra_bandwidth=1.0,
            gpus_per_node=2,
        )
    with pytest.raises(ConfigurationError):
        Hierarchical(
            env,
            latency=0.001,
            bandwidth=1.0,
            intra_latency=0.0,
            intra_bandwidth=0.0,
            gpus_per_node=2,
        )
    with pytest.raises(ConfigurationError):
        Hierarchical(
            env,
            latency=0.001,
            bandwidth=1.0,
            intra_latency=0.0,
            intra_bandwidth=1.0,
            gpus_per_node=0,
        )


def test_hierarchical_requires_node_gpu_members():
    model = AllReduceModel()
    env = Environment()
    fabric = hier_fabric(model, env, (2, 2))
    fabric.set_ring([0, 1, 2])  # plain ints: no (node, gpu) structure

    def participant(member):
        yield from fabric.allreduce("step", member)

    env.process(participant(0))
    with pytest.raises(ConfigurationError):
        env.run()


def test_hierarchical_step_cost_validates_arguments():
    model = AllReduceModel()
    with pytest.raises(ConfigurationError):
        model.hierarchical_step_cost(0, 2, 1e-6, 1e9)
    with pytest.raises(ConfigurationError):
        model.hierarchical_step_cost(2, 0, 1e-6, 1e9)
    with pytest.raises(ConfigurationError):
        model.hierarchical_step_cost(2, 2, 1e-6, 0.0)
    with pytest.raises(ConfigurationError):
        model.hierarchical_step_cost(2, 2, -1e-6, 1e9)
    with pytest.raises(ConfigurationError):
        model.hierarchical_step_cost(2, 2, float("nan"), 1e9)


def test_hierarchical_step_cost_closed_form():
    """2(G-1)(l_i + B/(G bw_i)) + 2(N-1)(l + B/(N bw)), term by term."""
    model = AllReduceModel(latency=0.002, gradient_bytes=1e9, bandwidth=1e10)
    expected = (
        2 * 1 * (1e-5 + 1e9 / (2 * 1e11))
        + 2 * 2 * (0.002 + 1e9 / (3 * 1e10))
    )
    assert model.hierarchical_step_cost(3, 2, 1e-5, 1e11) == pytest.approx(
        expected
    )
    # degenerate single-rank world: free
    assert model.hierarchical_step_cost(1, 1, 1e-5, 1e11) == 0.0
