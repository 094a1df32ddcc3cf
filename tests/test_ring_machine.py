"""Ring collectives as state machines, held to the generators they replaced.

``RingFabric`` advances every member of a ring pass from link-completion
callbacks (``RingCollective``): no process per rank, per bucket, per
fill-in or per stalled delivery.  ``tests/helpers.GeneratorRingFabric``
keeps the per-rank generator ring pass it replaced, and is the
specification here:

* the **refinement property** -- on random flat and hierarchical rings with
  ragged entry, zero-byte collectives, aborts mid-stage, graceful leaves and
  partition windows, both fabrics finish every member at the same instant,
  wait and stall the same seconds, and leave every link with the same
  bytes, transfers and per-class bytes and waits;
* the **failure paths of a process-free launch** -- a member started with
  :meth:`RingFabric.start` and aborted when its node dies sends nothing
  after the kill while its in-flight bytes still land, the survivors finish
  one detection window later with nothing left in flight, and a member that
  leaves keeps feeding the collectives it already started;
* the **step loop** launches its buckets without a process and leaves no
  collective behind after a node failure.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import fabric as fabric_module
from repro.sim.cluster import (
    Cluster,
    ClusterMembership,
    MembershipEvent,
    PartitionEvent,
)
from repro.sim.distributed import AllReduceModel, JobSpec
from repro.sim.fabric import RingFabric
from repro.sim.kernel import Environment, Interrupt, Process
from repro.sim.scenarios import JobMix
from repro.sim.topology import FlatRing, Hierarchical
from repro.sim.workloads import CONFIG_A

from .helpers import GeneratorRingFabric

LATENCY, BANDWIDTH = 1e-4, 25e9

# ---------------------------------------------------------------------------
# the refinement property
# ---------------------------------------------------------------------------


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(1, 4))
    gpus = draw(st.integers(1, 3))
    members = [(n, g) for n in range(nodes) for g in range(gpus)]
    collectives = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e6, 3.3e6, 8e7]),  # nbytes
                st.sampled_from([0.0, 0.0, 1e-3, 0.0137]),  # base entry
            ),
            min_size=1, max_size=3,
        )
    )
    # ragged entry: most members enter on the base instant, some late
    jitter = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.0, 2.1e-4, 7.3e-3]),
            min_size=len(members) * len(collectives),
            max_size=len(members) * len(collectives),
        )
    )
    removals = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["abort", "leave"]),
                st.sampled_from(members),
                st.floats(0.0, 0.03, allow_nan=False),
            ),
            max_size=2, unique_by=lambda r: r[1],
        )
    )
    windows = draw(
        st.lists(
            st.tuples(
                st.integers(0, nodes - 1),
                st.floats(0.0, 0.02, allow_nan=False),
                st.floats(1e-4, 0.02, allow_nan=False),
            ),
            max_size=2,
        )
    )
    return {
        "topology": draw(st.sampled_from(["flat", "hierarchical"])),
        "nodes": nodes,
        "gpus": gpus,
        "collectives": collectives,
        "jitter": jitter,
        "removals": removals,
        "windows": windows,
        "detection": draw(st.sampled_from([0.0, 0.004, 0.05])),
    }


def observe(fabric_cls, scenario):
    """Run ``scenario`` on ``fabric_cls``: every (member, collective) enters
    in its own process (a member may have several collectives in flight, as
    overlapped buckets do); an abort interrupts the member's processes that
    have not entered yet and leaves the entered ones to the fabric's
    ``abort``, a leave only removes it."""
    env = Environment()
    nodes, gpus = scenario["nodes"], scenario["gpus"]
    if scenario["topology"] == "flat":
        topology = FlatRing(env, LATENCY, BANDWIDTH)
    else:
        topology = Hierarchical(env, LATENCY, BANDWIDTH, 1e-5, 1.5e11, gpus)
    partitions = None
    if scenario["windows"]:
        partitions = ClusterMembership(
            nodes,
            partitions=[
                PartitionEvent(nodes=(node,), time=at, duration=length)
                for node, at, length in scenario["windows"]
            ],
        )
    fabric = fabric_cls(
        env, LATENCY, BANDWIDTH, gradient_bytes=1e6,
        detection_timeout=scenario["detection"], topology=topology,
        partitions=partitions,
    )
    members = [(n, g) for n in range(nodes) for g in range(gpus)]
    fabric.set_ring(members)
    completions = {}
    #: member -> its processes that have not entered their collective yet
    sleeping = {member: set() for member in members}
    jitter = iter(scenario["jitter"])

    def one(member, index, nbytes, entry):
        try:
            if entry:
                yield env.timeout(entry)
            sleeping[member].discard(env.active_process)
            yield from fabric.allreduce(index, member, nbytes)
        except Interrupt:
            return
        completions[member, index] = env.now

    for index, (nbytes, base) in enumerate(scenario["collectives"]):
        for member in members:
            entry = base + next(jitter)
            sleeping[member].add(env.process(one(member, index, nbytes, entry)))

    def remove(kind, member, at):
        yield env.timeout(at)
        if kind == "abort":
            # the dead node's processes never enter; what they entered,
            # the fabric's abort stops
            for proc in sleeping[member]:
                proc.interrupt("fail")
            fabric.abort(member)
        else:
            fabric.leave(member)

    for kind, member, at in scenario["removals"]:
        env.process(remove(kind, member, at))
    env.run()
    links = {
        key: (
            link.total_bytes, link.transfer_count,
            dict(link.bytes_by_class), dict(link.wait_by_class),
        )
        for key, link in topology._links.items()
    }
    return {
        "completions": completions,
        "link_wait_seconds": fabric.link_wait_seconds,
        "partition_stall_seconds": fabric.partition_stall_seconds,
        "link_wait_by_class": dict(fabric.link_wait_by_class),
        "links": links,
        "in_flight": fabric.in_flight,
        "events": env.events_processed,
    }


def refines(scenario):
    """Assert agreement; returns both runs' kernel event counts."""
    machine = observe(RingFabric, scenario)
    spec = observe(GeneratorRingFabric, scenario)
    for name in spec:
        if name != "events":
            assert machine[name] == spec[name], name
    return machine["events"], spec["events"]


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_the_state_machine_refines_the_generator_ring(scenario):
    refines(scenario)


def seeded_scenario(trial: int) -> dict:
    rng = random.Random(trial)
    nodes, gpus = rng.randint(2, 4), rng.randint(1, 3)
    members = [(n, g) for n in range(nodes) for g in range(gpus)]
    collectives = [
        (rng.choice([0.0, 1e6, 8e7]), rng.choice([0.0, 1e-3, 0.0137]))
        for _ in range(rng.randint(1, 3))
    ]
    return {
        "topology": rng.choice(["flat", "hierarchical"]),
        "nodes": nodes,
        "gpus": gpus,
        "collectives": collectives,
        "jitter": [
            rng.choice([0.0, 0.0, rng.uniform(0.0, 0.01)])
            for _ in range(len(members) * len(collectives))
        ],
        "removals": [
            (rng.choice(["abort", "leave"]), member, rng.uniform(0.0, 0.03))
            for member in rng.sample(members, rng.randint(0, 2))
        ],
        "windows": [
            (rng.randrange(nodes), rng.uniform(0.0, 0.02), rng.uniform(1e-4, 0.02))
            for _ in range(rng.randint(0, 2))
        ],
        "detection": rng.choice([0.0, 0.004, 0.05]),
    }


def test_the_state_machine_refines_the_generator_ring_on_seeded_scenarios():
    """The property's deterministic twin, on continuous offsets -- for far
    fewer kernel events overall (a one-member ring pays one completion
    event the generator did not, every real ring saves per stage)."""
    machine, spec = map(sum, zip(*(refines(seeded_scenario(t)) for t in range(150))))
    assert machine < 0.8 * spec


# ---------------------------------------------------------------------------
# failure paths of a process-free launch
# ---------------------------------------------------------------------------


def launched(world=4, buckets=2, nbytes=8e7, detection=0.5):
    """``world`` members each start ``buckets`` collectives at t = 0 with
    :meth:`RingFabric.start`, as the step loop's overlapped buckets do."""
    env = Environment()
    fabric = RingFabric(
        env, latency=1e-3, bandwidth=1e10, gradient_bytes=nbytes,
        detection_timeout=detection,
    )
    fabric.set_ring(range(world))
    done = {
        (member, k): fabric.start(("step", k), member)
        for k in range(buckets)
        for member in range(world)
    }
    finished = {}
    for (member, k), event in done.items():
        event.callbacks.append(
            lambda _e, member=member, k=k: finished.__setitem__((member, k), env.now)
        )
    return env, fabric, finished


def test_a_failed_member_sends_nothing_after_the_kill_but_its_bytes_land():
    env, fabric, finished = launched()
    clean = AllReduceModel(latency=1e-3, bandwidth=1e10, gradient_bytes=8e7)
    kill_at = clean.step_cost(4) / 3
    env.run(until=kill_at)
    link = fabric.link(1)
    stream = link.streams()[0]
    assert stream._chain, "the killed member has a send in flight"
    sent = (link.total_bytes, link.transfer_count)
    fabric.abort(1)
    env.run()
    # nothing submitted after the kill, and what was in flight drained
    assert (link.total_bytes, link.transfer_count) == sent
    assert not stream._chain
    # the dead member never completes; the survivors all do
    assert {member for member, _k in finished} == {0, 2, 3}
    # survivors stall for the detection window past the kill
    assert max(finished.values()) >= kill_at + fabric.detection_timeout
    assert fabric.in_flight == 0
    assert not fabric._collectives and fabric._pending is None


def test_a_failure_leaves_nothing_pending_across_buckets_and_rounds():
    """An abort in the middle of two in-flight buckets: survivors
    finish within one detection window of the kill, and a collective
    created afterwards runs on the three survivors alone."""
    env, fabric, finished = launched(buckets=2, detection=0.25)
    env.run(until=0.01)
    fabric.abort(2)
    env.run()
    assert len(finished) == 6
    assert max(finished.values()) <= 0.01 + 0.25 + 2 * AllReduceModel(
        latency=1e-3, bandwidth=1e10, gradient_bytes=8e7
    ).step_cost(4)
    assert fabric.in_flight == 0 and not fabric._collectives
    after = [fabric.start("next", m) for m in (0, 1, 3)]
    env.run()
    assert all(event.processed for event in after)
    assert fabric.in_flight == 0


def test_a_member_that_leaves_keeps_feeding_what_it_started():
    """A graceful leave is not a death: the member's started collectives
    keep sending every chunk and complete, the same as the generator
    reference, and its neighbors never wait for a detector."""

    def run(fabric_cls):
        env = Environment()
        fabric = fabric_cls(
            env, latency=1e-3, bandwidth=1e10, gradient_bytes=8e7,
            detection_timeout=5.0,
        )
        fabric.set_ring(range(4))
        ends = {}

        def member(m):
            yield from fabric.allreduce("bucket", m)
            ends[m] = env.now

        for m in range(4):
            env.process(member(m))

        def leaver():
            yield env.timeout(0.004)
            fabric.leave(3)

        env.process(leaver())
        env.run()
        return ends, fabric.link(3).transfer_count

    ends, sent = run(RingFabric)
    assert set(ends) == {0, 1, 2, 3}
    assert sent == 2 * (4 - 1)  # every stage of both passes
    assert max(ends.values()) < 5.0  # nobody waited for a detection window
    assert (ends, sent) == run(GeneratorRingFabric)


def test_an_interrupted_allreduce_cancels_its_own_run_only():
    """``allreduce`` is ``start`` in a process: interrupting the process
    stops that run, not the member's other collectives."""
    env = Environment()
    fabric = RingFabric(env, latency=1e-3, bandwidth=1e10, gradient_bytes=8e7)
    fabric.set_ring(range(2))
    other = fabric.start("b", 0)
    peer = [fabric.start(key, 1) for key in ("a", "b")]

    def rank():
        try:
            yield from fabric.allreduce("a", 0)
        except Interrupt:
            pass

    proc = env.process(rank())

    def interrupter():
        yield env.timeout(0.002)
        proc.interrupt("stop")

    env.process(interrupter())
    env.run(until=1.0)
    assert other.processed and peer[1].processed
    assert not peer[0].triggered  # its partner stopped sending on "a"


# ---------------------------------------------------------------------------
# the step loop launches buckets without a process
# ---------------------------------------------------------------------------


def test_overlapped_buckets_launch_without_a_process_and_a_failure_leaves_nothing(
    monkeypatch,
):
    fabrics, processes, aborted = [], [], []
    plain_init, plain_abort = RingFabric.__init__, RingFabric.abort

    def recording_init(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        fabrics.append(self)

    def recording_abort(self, member):
        aborted.append(member)
        plain_abort(self, member)

    plain_process = Process.__init__

    def recording_process(self, env, generator):
        processes.append(generator.gi_code.co_name)
        plain_process(self, env, generator)

    monkeypatch.setattr(fabric_module.RingFabric, "__init__", recording_init)
    monkeypatch.setattr(fabric_module.RingFabric, "abort", recording_abort)
    monkeypatch.setattr(Process, "__init__", recording_process)
    job = JobSpec(
        job_id="job0", loader="minato", workload_name="image_segmentation",
        dataset_size=48, total_steps=3 * 16, overlap=True, buckets=4,
    )
    cluster = Cluster(
        membership=ClusterMembership(
            4, events=[MembershipEvent(kind="fail", node=1, time=1.0)]
        ),
        hardware=CONFIG_A, gpus_per_node=4, topology="hierarchical",
        link_latency=1e-4,
    )
    (result,) = JobMix([job], cluster).run().jobs
    assert result.steps >= 48
    (fabric,) = fabrics
    assert aborted == [(1, gpu) for gpu in range(4)]  # killed mid-round
    assert fabric.in_flight == 0
    assert not fabric._collectives and fabric._pending is None
    assert not {"_overlapped_bucket", "detector", "stalled"} & set(processes)
