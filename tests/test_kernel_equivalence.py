"""Kernel equivalence: the homogeneous-rank collapse must be *invisible*
in simulation results, and the event queue must agree with its
specification at every transition.

Every cell of the topology x overlap x churn sweep runs the same scenario
under both configurations -- per-rank fabric, collapse enabled -- and
requires bit-identical :class:`DistributedResult` fields (only the
observability counters ``collapsed_collectives`` / ``sim_events`` may
differ).  The collapse is not an approximation: it prices each stage with
the link layer's own closed form, so even float timing must agree
exactly.  The per-rank reference run of every cell executes on
:class:`tests.helpers.CheckedEnvironment`, which referees each delivery
and each lazy skip against a plain ``(time, priority, eid)`` heap.

The deactivation tests pin the other half of the contract: the fast path
must *refuse* to engage when its preconditions fail (heterogeneous
intra-node hardware, a failure armed mid-round) and fall back to the
per-rank fabric, again without changing results.
"""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.bench import OBSERVABILITY_FIELDS
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
from repro.sim.distributed import (
    AllReduceModel,
    ClusterMembership,
    MembershipEvent,
    run_elastic,
)
from repro.sim.fabric import RingFabric
from repro.sim.links import Stream
from repro.sim.scenarios import JobMix, JobSpec
from repro.sim.workloads import CONFIG_A, make_workload

from .helpers import CheckedEnvironment, on_checked_kernel

NODES = 4
GPUS = 2
STEPS_PER_GPU = 4

CHURN = {
    "static": (),
    "churn": (
        MembershipEvent("leave", node=0, epoch=1),
        MembershipEvent("join", node=NODES, epoch=2),
    ),
    "fail": (MembershipEvent("fail", node=1, epoch=1, after=0.1),),
}


def run(
    topology,
    overlap,
    events=(),
    collapse=True,
    node_hardware=None,
    cache_fraction=1.0,
    checkpoint=None,
):
    workload = make_workload(
        "image_segmentation", seed=0, dataset_size=6 * NODES
    )
    return run_elastic(
        "minato",
        workload,
        CONFIG_A,
        ClusterMembership(NODES, list(events)),
        node_hardware=node_hardware,
        gpus_per_node=GPUS,
        cache_fraction=cache_fraction,
        topology=topology,
        fabric="ring",
        overlap=overlap,
        buckets=2 if overlap else 1,
        total_steps=STEPS_PER_GPU * NODES * GPUS,
        collapse=collapse,
        checkpoint=checkpoint,
    )


def comparable(result):
    """All result fields except the optimization-observability counters
    (``collapse_cross_vetoes`` counts collapse *attempts* vetoed by
    foreign link traffic, and the per-rank run never attempts)."""
    fields = dict(vars(result))
    for name in OBSERVABILITY_FIELDS:
        fields.pop(name)
    return fields


@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
@pytest.mark.parametrize("topology", ["flat", "hierarchical"])
def test_kernel_configurations_agree(topology, overlap, churn, monkeypatch):
    events = CHURN[churn]
    per_rank = on_checked_kernel(
        monkeypatch, run, topology, overlap, events, collapse=False
    )
    collapsed = run(topology, overlap, events)
    assert comparable(collapsed) == comparable(per_rank), (
        f"{topology}/{'overlap' if overlap else 'serial'}/{churn}: "
        f"the collapse diverged from the per-rank fabric"
    )


@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("overlap", [False, True], ids=["serial", "overlap"])
@pytest.mark.parametrize("topology", ["flat", "hierarchical"])
def test_single_job_mix_matches_run_elastic(topology, overlap, churn):
    """A one-job JobMix on an explicitly built Cluster is the degenerate
    multi-tenant case and must be byte-identical to calling run_elastic
    directly: the cluster-owned-resources refactor may not perturb the
    single-tenant path by even one float."""
    events = CHURN[churn]
    direct = run(topology, overlap, events)
    cluster = Cluster(
        ClusterMembership(NODES, list(events)),
        CONFIG_A,
        gpus_per_node=GPUS,
        cache_fraction=1.0,
        topology=topology,
    )
    spec = JobSpec(
        job_id="job0",
        loader="minato",
        workload_name="image_segmentation",
        dataset_size=6 * NODES,
        total_steps=STEPS_PER_GPU * NODES * GPUS,
        fabric="ring",
        overlap=overlap,
        buckets=2 if overlap else 1,
    )
    mix = JobMix([spec], cluster).run()
    assert len(mix.jobs) == 1
    assert comparable(mix.jobs[0]) == comparable(direct), (
        f"{topology}/{'overlap' if overlap else 'serial'}/{churn}: "
        f"single-job mix diverged from run_elastic"
    )
    assert mix.makespan == direct.training_time


@pytest.mark.parametrize("kernel", ["indexed", "checked"])
@pytest.mark.parametrize("churn", ["static", "churn"])
def test_dormant_checkpoint_policy_adds_zero_kernel_events(
    churn, kernel, monkeypatch
):
    """``checkpoint=None`` and a never-firing policy must be
    indistinguishable to the kernel: identical results INCLUDING
    ``sim_events`` -- the pay-as-you-go guarantee that the checkpoint
    subsystem costs nothing (not one event) until a snapshot or restore
    actually happens.  (Fail cells are excluded by design: a node death
    triggers a restore pass, which is the subsystem *working*.)"""
    events = CHURN[churn]
    if kernel == "checked":
        monkeypatch.setattr("repro.sim.cluster.Environment", CheckedEnvironment)
    plain = run("flat", False, events)
    dormant = run(
        "flat",
        False,
        events,
        checkpoint=CheckpointPolicy(interval_steps=10**9),
    )
    assert vars(dormant) == vars(plain), (
        f"{churn}/{kernel}: a dormant checkpoint policy perturbed the run"
    )
    assert plain.checkpoint_write_seconds == 0.0
    assert plain.restore_seconds == 0.0
    assert plain.lost_steps == 0
    assert plain.checkpoint_bytes == 0.0


@pytest.mark.parametrize("churn", sorted(CHURN))
def test_kernel_configurations_agree_with_active_checkpoint(churn, monkeypatch):
    """Snapshot writes and failure restores ride the same pipes as every
    other transfer, so an *active* checkpoint run must also be
    bit-identical across kernel configurations."""
    policy = CheckpointPolicy(interval_steps=2, state_scale=8.0)
    events = CHURN[churn]
    per_rank = on_checked_kernel(
        monkeypatch, run, "flat", False, events,
        collapse=False, checkpoint=policy,
    )
    assert per_rank.checkpoint_write_seconds > 0.0
    collapsed = run("flat", False, events, checkpoint=policy)
    assert comparable(collapsed) == comparable(per_rank), (
        f"{churn}: the collapse diverged from the per-rank fabric with "
        f"checkpointing active"
    )


def run_contended(collapse=True, checkpoint=None):
    """A cross-class contention cell: hierarchical overlap with remote
    storage, so loader misses (and checkpoint writes, when a policy is
    armed) share each node's NIC link with the bucket collectives."""
    workload = make_workload(
        "image_segmentation", seed=0, dataset_size=6 * NODES
    )
    cluster = Cluster(
        ClusterMembership(NODES, []),
        CONFIG_A,
        gpus_per_node=GPUS,
        cache_fraction=0.6,
        topology="hierarchical",
        storage_over_nic=True,
    )
    return run_elastic(
        "minato",
        workload,
        CONFIG_A,
        fabric="ring",
        topology="hierarchical",
        overlap=True,
        buckets=2,
        total_steps=STEPS_PER_GPU * NODES * GPUS,
        collapse=collapse,
        cluster=cluster,
        checkpoint=checkpoint,
    )


def test_kernel_configurations_agree_under_cross_class_contention(monkeypatch):
    """The shared-link flow engine under genuine cross-class traffic --
    loader misses and checkpoint writes contending with collectives on
    every node's NIC -- must still be bit-identical across kernel
    configurations, including the per-class wait attribution."""
    policy = CheckpointPolicy(interval_steps=2, state_scale=8.0)
    per_rank = on_checked_kernel(
        monkeypatch, run_contended, collapse=False, checkpoint=policy
    )
    # all three traffic classes flowed on the shared links, and the
    # collectives measurably paid for the company
    assert set(per_rank.link_wait_by_class) == {
        "collective", "loader", "checkpoint",
    }
    assert per_rank.link_wait_by_class["collective"] > 0.0
    collapsed = run_contended(checkpoint=policy)
    assert comparable(collapsed) == comparable(per_rank), (
        "the collapse diverged from the per-rank fabric under cross-class "
        "NIC contention"
    )


def run_two_tenants():
    """Two tenants on one cluster with everything on the NIC and a node
    dying mid-run: collapse is off (shared cluster), every ring stage runs
    per rank, and collective, loader, checkpoint and restore bytes of both
    jobs re-project each other's transfers on the shared links."""
    cluster = Cluster(
        ClusterMembership(
            NODES, [MembershipEvent("fail", node=1, time=2.0)]
        ),
        CONFIG_A,
        gpus_per_node=GPUS,
        cache_fraction=0.6,
        topology="hierarchical",
        storage_over_nic=True,
    )
    specs = [
        JobSpec(
            job_id=job_id,
            loader="minato",
            workload_name="image_segmentation",
            dataset_size=6 * NODES,
            total_steps=STEPS_PER_GPU * NODES * GPUS,
            fabric="ring",
            overlap=True,
            buckets=2,
            checkpoint=CheckpointPolicy(interval_steps=2, state_scale=8.0),
        )
        for job_id in ("tenant-a", "tenant-b")
    ]
    return JobMix(specs, cluster).run()


def test_two_tenant_contended_mix_passes_the_kernel_referee(monkeypatch):
    refereed = on_checked_kernel(monkeypatch, run_two_tenants)
    assert all(job.lost_steps > 0 for job in refereed.jobs)
    assert all(
        set(job.link_wait_by_class) == {"collective", "loader", "checkpoint"}
        for job in refereed.jobs
    )
    plain = run_two_tenants()
    assert [vars(job) for job in refereed.jobs] == [
        vars(job) for job in plain.jobs
    ]
    assert refereed.sim_events == plain.sim_events


def test_collapse_vetoed_while_foreign_traffic_in_flight():
    """While loader-class bytes are still draining on a link the
    quiescent-collapse probe must refuse (counted in
    ``collapse_cross_vetoes``), and the collective must still complete
    exactly as the per-rank path would under the same contention."""
    from repro.sim.kernel import AllOf, Environment

    def drive(collapse):
        env = Environment()
        model = AllReduceModel()
        fabric = RingFabric(
            env,
            latency=model.latency,
            bandwidth=model.bandwidth,
            gradient_bytes=model.gradient_bytes,
            collapse=collapse,
        )
        members = list(range(4))
        fabric.set_ring(members)
        # a fat loader-class flow still draining on member 0's link when
        # every rank enters the collective together
        loader = fabric.topology.link(0).stream(
            ("tenant", 0, "loader"), "loader"
        )
        loader.transfer(model.gradient_bytes * 8)

        def participant(member):
            yield from fabric.allreduce("step", member)

        procs = [env.process(participant(m)) for m in members]
        env.run(until=AllOf(env, procs))
        return env.now, fabric

    contended_end, fast = drive(collapse=True)
    exact_end, exact = drive(collapse=False)
    assert fast.collapse_cross_vetoes > 0
    assert fast.collapsed_collectives == 0
    assert contended_end == exact_end
    assert fast.link_wait_by_class == exact.link_wait_by_class
    # the shared flow genuinely slowed member 0's ring stream down
    assert fast.link_wait_by_class["collective"] > 0.0


@st.composite
def churn_schedules(draw):
    """Random-but-valid membership schedules: optional leave, join, and
    fail events on distinct nodes at drawn anchors."""
    events = []
    if draw(st.booleans()):
        events.append(
            MembershipEvent("leave", node=1, epoch=draw(st.integers(1, 2)))
        )
    if draw(st.booleans()):
        events.append(
            MembershipEvent("join", node=NODES, epoch=draw(st.integers(1, 2)))
        )
    if draw(st.booleans()):
        events.append(
            MembershipEvent(
                "fail",
                node=2,
                epoch=draw(st.integers(0, 2)),
                after=draw(st.sampled_from([0.0, 0.2, 0.5])),
            )
        )
    return tuple(events)


@settings(max_examples=10, deadline=None)
@given(
    topology=st.sampled_from(["flat", "hierarchical"]),
    overlap=st.booleans(),
    events=churn_schedules(),
    cache_fraction=st.sampled_from([0.8, 1.0]),
)
def test_equivalence_over_random_churn_schedules(
    topology, overlap, events, cache_fraction
):
    """Hypothesis sweep: whatever the membership schedule throws at the
    run, the collapsed results match the per-rank fabric's."""
    per_rank = run(
        topology, overlap, events,
        collapse=False, cache_fraction=cache_fraction,
    )
    fast = run(topology, overlap, events, cache_fraction=cache_fraction)
    assert comparable(fast) == comparable(per_rank)


@pytest.mark.parametrize("topology", ["flat", "hierarchical"])
def test_collapse_engages_on_homogeneous_static_runs(topology):
    result = run(topology, overlap=False)
    assert result.collapsed_collectives > 0


def test_collapse_deactivates_under_heterogeneity():
    """Mixed intra-node hardware breaks the closed form's homogeneity
    precondition: the hierarchical schedule must refuse to collapse."""
    slow = dataclasses.replace(
        CONFIG_A, name="config_a_slow_nvlink", intra_node_bandwidth=150e9
    )
    per_rank = run(
        "hierarchical", False, collapse=False, node_hardware={0: slow}
    )
    fast = run("hierarchical", False, node_hardware={0: slow})
    assert fast.collapsed_collectives == 0
    assert comparable(fast) == comparable(per_rank)


@pytest.mark.parametrize("topology", ["flat", "hierarchical"])
def test_zero_byte_collectives_cost_the_same_collapsed_or_not(topology):
    """The link layer skips a 0-byte transfer, latency included, so a
    zero-byte all-reduce is free per rank; the collapse must decline it
    rather than walk ``2(W-1)`` latency-only stages (it used to: sync
    2.51 s collapsed against 1.31 s per rank on the flat cell)."""
    workload = make_workload("speech_3s", dataset_size=96)

    def go(collapse):
        return run_elastic(
            "minato",
            workload,
            CONFIG_A,
            ClusterMembership(2),
            gpus_per_node=2,
            total_steps=4 * 5,
            allreduce=AllReduceModel(latency=0.05, gradient_bytes=0.0),
            cache_fraction=1.0,
            topology=topology,
            collapse=collapse,
        )

    fast, per_rank = go(True), go(False)
    assert fast.collapsed_collectives == 0
    assert comparable(fast) == comparable(per_rank)


def test_collapse_deactivates_when_failure_armed(monkeypatch):
    """A fail event scheduled inside a round disables the fast path for
    that whole round (a representative-rank walk cannot model a rank dying
    mid-collective); rounds after the failure may legitimately collapse
    again.  Spy on the decider to prove no collective that started while
    the doomed rank was armed ever collapsed."""
    from repro.sim import fabric as fabric_mod

    entries = []
    original = fabric_mod.RingFabric._collapse_decider

    def spy(self, entry):
        entries.append(entry)
        return original(self, entry)

    monkeypatch.setattr(fabric_mod.RingFabric, "_collapse_decider", spy)
    fail_after = 0.3
    events = (MembershipEvent("fail", node=1, epoch=0, after=fail_after),)
    per_rank = run("flat", False, events, collapse=False)
    fast = run("flat", False, events)
    assert comparable(fast) == comparable(per_rank)
    # the armed round never even registers a collapse attempt: the runner
    # clears ring.collapse before its first step, so any recorded entry
    # must postdate the death
    assert entries, "collapse never re-engaged after the failure round"
    assert all(entry.t0 > fail_after for entry in entries)
    assert fast.collapsed_collectives == sum(e.collapsed for e in entries)


def test_collapse_counter_reported():
    """The observability counters surface in the result and differ between
    the configurations exactly as designed."""
    fast = run("flat", False)
    per_rank = run("flat", False, collapse=False)
    assert per_rank.collapsed_collectives == 0
    assert fast.sim_events < per_rank.sim_events


# ---------------------------------------------------------------------------
# the overlap deadline: a walk the next bucket would overlap runs per rank
# ---------------------------------------------------------------------------


def latency_for(walk, buckets):
    """The link latency at which one bucket's collapsed walk over the
    NODES x GPUS flat ring lasts ``walk`` seconds: 2(W-1) stages of
    latency plus one ``bytes / W`` chunk at the default bandwidth."""
    model, world = AllReduceModel(), NODES * GPUS
    chunk = model.gradient_bytes / buckets / (world * model.bandwidth)
    return walk / (2 * (world - 1)) - chunk


def run_overlap(step, buckets, latency, collapse):
    """A static flat overlap run whose compute step is ``step`` seconds, so
    each backprop slice -- the gap before the next bucket launches -- is
    ``step / buckets``."""
    workload = make_workload("image_segmentation", seed=0, dataset_size=6 * NODES)
    model = dataclasses.replace(
        workload.model, step_seconds={"a100": step, "v100": step}
    )
    return run_elastic(
        "minato",
        dataclasses.replace(workload, model=model),
        CONFIG_A,
        ClusterMembership(NODES),
        gpus_per_node=GPUS,
        cache_fraction=1.0,
        topology="flat",
        overlap=True,
        buckets=buckets,
        total_steps=STEPS_PER_GPU * NODES * GPUS,
        allreduce=AllReduceModel(latency=latency),
        collapse=collapse,
    )


def test_a_walk_outlasting_its_backprop_slice_falls_back_to_per_rank(
    monkeypatch,
):
    """Every bucket's walk outlasts the slice before the next bucket
    launches: deciders start with every rank entered and fall back, and
    the run equals the per-rank one.  The same buckets with a walk a
    quarter of the slice collapse."""
    entries = []
    original = RingFabric._collapse_decider

    def spy(self, entry):
        entries.append(entry)
        return original(self, entry)

    monkeypatch.setattr(RingFabric, "_collapse_decider", spy)
    step, buckets = 0.35, 2
    latency = latency_for(4 * step / buckets, buckets)
    fast = run_overlap(step, buckets, latency, True)
    per_rank = run_overlap(step, buckets, latency, False)
    assert comparable(fast) == comparable(per_rank)
    assert fast.collapsed_collectives == 0
    full = [e for e in entries if len(e.runs) == len(e.ring)]
    assert full and not any(e.collapsed for e in full)
    latency = latency_for(step / buckets / 4, buckets)
    assert run_overlap(step, buckets, latency, True).collapsed_collectives > 0


@settings(max_examples=84, deadline=None)
@given(
    step=st.sampled_from([0.2, 0.35, 0.6]),
    buckets=st.integers(1, 4),
    # one bucket's walk over one backprop slice, around 1
    ratio=st.sampled_from([0.25, 0.9, 0.999, 1.0, 1.001, 1.1, 4.0]),
)
def test_overlap_deadline_sweep_matches_the_per_rank_fabric(
    step, buckets, ratio
):
    """Step time, bucket count and latency drawn so that one bucket's walk
    is just shorter than, as long as or just longer than a backprop slice:
    collapse on equals collapse off."""
    latency = latency_for(ratio * step / buckets, buckets)
    fast = run_overlap(step, buckets, latency, True)
    assert comparable(fast) == comparable(
        run_overlap(step, buckets, latency, False)
    )


# ---------------------------------------------------------------------------
# the walk checks quiescence at entry only
# ---------------------------------------------------------------------------


@contextmanager
def intrusions():
    """Count loader and checkpoint transfers that were on a link, latency
    tail included, at some instant of a collapsed walk over it."""
    walks, transfers, count = [], [], [0]
    plain_decider, plain_transfer = RingFabric._collapse_decider, Stream.transfer

    def decider(self, entry):
        yield from plain_decider(self, entry)
        if entry.collapsed:
            walks.append((self.topology, entry.t0, self.env.now))

    def transfer(self, nbytes):
        done = plain_transfer(self, nbytes)
        if self.cls != "collective" and nbytes:
            transfers.append((self.link, done))
        return done

    with mock.patch.object(
        RingFabric, "_collapse_decider", decider
    ), mock.patch.object(Stream, "transfer", transfer):
        yield count
    count[0] = sum(
        1
        for link, done in transfers
        for topology, t0, end in walks
        if done.submitted <= end
        and t0 <= done.finish
        and link in topology._links.values()
    )


def run_remote_storage(
    topology, overlap, cache_fraction, workload, checkpoint, nodes, gpus,
    latency, collapse,
):
    """One job with storage over the NIC: its loader misses (and
    checkpoint writes, with a policy) share every node's NIC with its
    collectives."""
    cluster = Cluster(
        ClusterMembership(nodes),
        CONFIG_A,
        gpus_per_node=gpus,
        cache_fraction=cache_fraction,
        topology=topology,
        link_latency=latency,
        storage_over_nic=True,
    )
    per_node = 12 if workload == "image_segmentation" else 48
    return run_elastic(
        "minato",
        make_workload(workload, dataset_size=per_node * nodes),
        CONFIG_A,
        cluster=cluster,
        overlap=overlap,
        buckets=2 if overlap else 1,
        total_steps=4 * nodes * gpus,
        collapse=collapse,
        checkpoint=(
            CheckpointPolicy(interval_steps=2, state_scale=8.0)
            if checkpoint
            else None
        ),
    )


@settings(max_examples=80, deadline=None)
@given(
    topology=st.sampled_from(["flat", "hierarchical"]),
    overlap=st.booleans(),
    cache_fraction=st.sampled_from([0.3, 0.6, 0.9]),
    workload=st.sampled_from(["image_segmentation", "speech_3s"]),
    checkpoint=st.booleans(),
    nodes=st.integers(2, 3),
    gpus=st.integers(1, 2),
    latency=st.sampled_from([1e-4, 1.5e-3, 5e-3, 1e-2]),
)
def test_a_walk_its_own_job_leaves_alone_matches_the_per_rank_fabric(
    topology, overlap, cache_fraction, workload, checkpoint, nodes, gpus,
    latency,
):
    """The walk checks its links' quiescence at entry only.  A single job
    whose loader misses and checkpoint writes cross the NIC: whenever none
    of them was on a link during a walk over it, collapse on equals
    collapse off.  Draws where one was are discarded, since one that
    drains while a stage on its link drains is not modelled; the test
    below keeps the smallest draws where one was, and agrees."""
    args = (
        topology, overlap, cache_fraction, workload, checkpoint, nodes,
        gpus, latency,
    )
    with intrusions() as intruded:
        fast = run_remote_storage(*args, collapse=True)
    assume(not intruded[0])
    assert comparable(fast) == comparable(
        run_remote_storage(*args, collapse=False)
    )


@pytest.mark.parametrize(
    "latency", [5e-3, 1e-2], ids=["miss-in-its-tail-at-entry", "miss-mid-walk"]
)
def test_a_loader_miss_on_a_walking_link_is_modelled(latency):
    """The smallest cases the property above discards: 2 nodes x 1 GPU,
    flat, two overlapped buckets, speech workload at 90 % cache.  At 5 ms
    links a miss read submitted before the walk is still in its latency
    tail at entry; at 10 ms one is submitted mid-walk and drains in 11 us
    while every ring stage on its link is in its own 10 ms tail.  A
    drained transfer holds no share, so neither meets a draining stage,
    and the walk, which checks its links at entry only, stays exact."""
    args = ("flat", True, 0.9, "speech_3s", False, 2, 1, latency)
    with intrusions() as intruded:
        fast = run_remote_storage(*args, collapse=True)
    assert intruded[0] == 1
    assert comparable(fast) == comparable(
        run_remote_storage(*args, collapse=False)
    )
