"""Multi-tenant scenario engine: mix validation, preset behaviour,
cross-tenant contention, and partition stall-and-heal semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.cluster import (
    Cluster,
    ClusterMembership,
    MembershipEvent,
    NodeSite,
    PartitionEvent,
)
from repro.sim.distributed import (
    AllReduceModel,
    run_elastic,
)
from repro.sim.fabric import RingFabric
from repro.sim.kernel import Environment
from repro.sim.loaders import SimContext
from repro.sim.scenarios import (
    PRESETS,
    JobMix,
    JobSpec,
    preset_steady,
    run_preset,
)
from repro.sim.workloads import CONFIG_A, make_workload

from .helpers import on_checked_kernel, run_with_watchdog

NODES = 4
GPUS = 2


def _cluster(membership=None, **kwargs):
    return Cluster(
        membership if membership is not None else ClusterMembership(NODES),
        CONFIG_A,
        gpus_per_node=GPUS,
        **kwargs,
    )


def _spec(job_id="job0", **overrides):
    kwargs = dict(
        job_id=job_id,
        loader="minato",
        workload_name="image_segmentation",
        dataset_size=6 * NODES,
        total_steps=2 * NODES * GPUS,
        fabric="ring",
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


# ---------------------------------------------------------------------------
# Mix validation (mix shape in JobMix, per-job values in JobSpec)
# ---------------------------------------------------------------------------


def test_empty_mix_rejected():
    with pytest.raises(ConfigurationError, match="empty"):
        JobMix([], _cluster())


def test_duplicate_job_ids_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        JobMix([_spec("a"), _spec("a")], _cluster())


def test_negative_priority_rejected():
    with pytest.raises(ConfigurationError, match="priority"):
        JobMix([_spec(priority=-1)], _cluster())


def test_negative_arrival_rejected():
    with pytest.raises(ConfigurationError, match="arrival"):
        JobMix([_spec(arrival=-0.5)], _cluster())
    with pytest.raises(ConfigurationError, match="arrival"):
        _spec(arrival=float("nan"))


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
def test_bad_gradient_bytes_rejected(value):
    """Refused when the job is built: the run used to fail half-way, at the
    first collective ("cannot transfer nan bytes"; with inf, a bare
    "min() arg is an empty sequence")."""
    with pytest.raises(ConfigurationError, match="gradient_bytes"):
        _spec(gradient_bytes=value)


def test_blank_job_id_rejected():
    with pytest.raises(ConfigurationError, match="job_id"):
        JobMix([_spec(job_id="")], _cluster())


def test_mix_requires_cluster():
    with pytest.raises(ConfigurationError, match="Cluster"):
        JobMix([_spec()], cluster=None)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        run_preset("nope")


def test_nonpositive_scale_rejected():
    with pytest.raises(ConfigurationError, match="scale"):
        run_preset("steady", scale=0.0)


# ---------------------------------------------------------------------------
# Front-door keywords: each belongs to JobSpec or to Cluster, or is unknown
# ---------------------------------------------------------------------------


def _workload():
    return make_workload("image_segmentation", dataset_size=6 * NODES)


@pytest.mark.parametrize("keyword", ["queue", "storage_over_nic", "bucket"])
def test_front_doors_reject_unknown_keyword(keyword):
    """Neither a JobSpec field nor a resource keyword run_elastic forwards:
    a TypeError naming it (there is one kernel; nothing selects it)."""
    with pytest.raises(TypeError, match=f"run_elastic.*{keyword!r}"):
        run_elastic(
            "minato", _workload(), CONFIG_A, ClusterMembership(NODES),
            total_steps=NODES * GPUS, **{keyword: 1},
        )


def test_run_elastic_rejects_node_hardware_with_cluster():
    with pytest.raises(ConfigurationError, match="node_hardware"):
        run_elastic(
            "minato", _workload(), CONFIG_A, cluster=_cluster(),
            total_steps=NODES * GPUS, node_hardware={0: CONFIG_A},
        )


def test_run_elastic_rejects_foreign_membership_with_cluster():
    with pytest.raises(ConfigurationError, match="membership"):
        run_elastic(
            "minato", _workload(), CONFIG_A, ClusterMembership(NODES),
            cluster=_cluster(), total_steps=NODES * GPUS,
        )


def test_run_elastic_rejects_conflicting_gpus_with_cluster():
    """One rule for every resource-owned knob repeated beside a cluster:
    a different value conflicts (never a silent overwrite), the cluster's
    own value is accepted."""
    for knob, value in (
        ("gpus_per_node", GPUS + 1),
        ("topology", "hierarchical"),
        ("cache_fraction", 0.5),
    ):
        with pytest.raises(
            ConfigurationError, match=f"{knob}=.* conflicts with the cluster's"
        ):
            run_elastic(
                "minato", _workload(), CONFIG_A, cluster=_cluster(),
                total_steps=NODES * GPUS, **{knob: value},
            )
    result = run_elastic(
        "minato", _workload(), CONFIG_A, cluster=_cluster(),
        total_steps=NODES * GPUS,
        gpus_per_node=GPUS, topology="flat", cache_fraction=0.8,
    )
    assert result.steps == NODES * GPUS


def test_run_elastic_rejects_foreign_link_params_on_shared_cluster():
    with pytest.raises(ConfigurationError, match="cluster-owned"):
        run_elastic(
            "minato", _workload(), CONFIG_A, cluster=_cluster(),
            allreduce=AllReduceModel(latency=0.5),
            total_steps=NODES * GPUS,
        )


@pytest.mark.parametrize(
    "knob,value",
    [
        ("link_bandwidth", float("nan")),
        ("link_latency", float("nan")),
        ("cache_fraction", float("nan")),
        ("cache_fraction", -0.5),
        ("cache_fraction", 3.0),
    ],
)
def test_cluster_refuses_a_bad_link_or_cache_knob(knob, value):
    with pytest.raises(ConfigurationError, match=knob):
        _cluster(**{knob: value})


@pytest.mark.parametrize(
    "field,knob", [("bandwidth", "link_bandwidth"), ("latency", "link_latency")]
)
def test_run_elastic_refuses_a_nan_link_parameter(field, knob):
    """``allreduce=`` builds the cluster's links (its ``field`` becomes the
    cluster's ``knob``): a NaN there used to run to ``training_time ==
    nan``.  ``AllReduceModel`` holds the contract, so the model itself is
    refused, before ``run_elastic`` sees it."""
    with pytest.raises(ConfigurationError, match=rf"^{field} must be"):
        run_elastic(
            "minato", _workload(), CONFIG_A, ClusterMembership(NODES),
            allreduce=AllReduceModel(**{field: float("nan")}),
            total_steps=NODES * GPUS,
        )


def test_run_elastic_requires_membership_or_cluster():
    with pytest.raises(ConfigurationError, match="ClusterMembership"):
        run_elastic("minato", _workload(), CONFIG_A, total_steps=NODES * GPUS)


def test_partition_event_validation():
    with pytest.raises(ConfigurationError, match="at least one"):
        PartitionEvent(nodes=(), time=0.0, duration=1.0)
    with pytest.raises(ConfigurationError, match="unique"):
        PartitionEvent(nodes=(1, 1), time=0.0, duration=1.0)
    with pytest.raises(ConfigurationError, match="duration"):
        PartitionEvent(nodes=(0,), time=0.0, duration=0.0)
    with pytest.raises(ConfigurationError, match="time"):
        PartitionEvent(nodes=(0,), time=-1.0, duration=1.0)
    # a NaN bound gives a window that never applies; partitions heal
    with pytest.raises(ConfigurationError, match="time"):
        PartitionEvent(nodes=(0,), time=float("nan"), duration=1.0)
    with pytest.raises(ConfigurationError, match="time"):
        PartitionEvent(nodes=(0,), time=float("inf"), duration=1.0)
    for duration in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="duration"):
            PartitionEvent(nodes=(0,), time=0.0, duration=duration)
    with pytest.raises(ConfigurationError, match="unknown"):
        ClusterMembership(
            2, partitions=(PartitionEvent(nodes=(7,), time=0.0, duration=1.0),)
        )


def test_partition_release_chains_overlapping_windows():
    membership = ClusterMembership(
        4,
        partitions=(
            PartitionEvent(nodes=(0, 1), time=1.0, duration=1.0),
            PartitionEvent(nodes=(0,), time=1.5, duration=1.0),
        ),
    )
    # inside the first window, the overlapping second window extends the
    # stall: release is the fixpoint over the chain, not the first end
    assert membership.partition_release(1.2, 0, 2) == pytest.approx(2.5)
    # nodes on the same side of every cut never stall
    assert membership.partition_release(1.2, 2, 3) == 1.2
    # after every window closes, delivery is immediate
    assert membership.partition_release(3.0, 0, 2) == 3.0


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_run_and_complete(name):
    mix_result = run_preset(name, scale=0.25)
    assert mix_result.jobs, name
    for res in mix_result.jobs:
        assert res.steps > 0, f"{name}/{res.job_id} made no progress"
        assert res.samples > 0
    assert mix_result.makespan > 0
    assert mix_result.makespan == pytest.approx(
        max(mix_result.per_job_makespan.values())
    )
    # the summary is one line per job plus a mix line
    assert len(mix_result.summary().splitlines()) == len(mix_result.jobs) + 1


def test_result_summary_is_compact():
    res = run_preset("steady", scale=0.25).jobs[0]
    line = res.summary()
    assert "\n" not in line
    assert res.job_id in line and res.loader in line


def test_burst_jobs_start_at_their_arrivals():
    mix_result = run_preset("burst", scale=0.25)
    # a staggered job's completion time includes its arrival offset
    for res in mix_result.jobs:
        arrival = mix_result.arrivals[res.job_id]
        assert mix_result.per_job_makespan[res.job_id] == pytest.approx(
            arrival + res.training_time
        )
    assert mix_result.arrivals["tenant-b"] > 0
    assert mix_result.arrivals["tenant-c"] > mix_result.arrivals["tenant-b"]


def test_two_tenants_strictly_slower_than_solo():
    """The acceptance gate: sharing a cluster must cost each tenant
    wall-clock versus the same job alone on an identical private one."""
    shared = preset_steady(1.0).run()
    for spec in preset_steady(1.0).jobs:
        solo_spec = JobSpec(**{**spec.__dict__, "arrival": 0.0})
        alone = JobMix(
            [solo_spec],
            Cluster(
                ClusterMembership(NODES), CONFIG_A,
                gpus_per_node=GPUS, topology="flat",
            ),
        ).run().jobs[0]
        both = shared.job(spec.job_id)
        assert both.training_time > alone.training_time, (
            f"{spec.job_id}: no contention visible "
            f"({both.training_time} vs {alone.training_time})"
        )
    assert shared.link_contention_seconds > 0


def test_a_shared_disk_serves_tenants_in_submission_order():
    """The model decision a fair-share disk would change: a node's disk is
    one FIFO stream that every tenant queues on.  Two tenants start a cold
    read at the same instant; the first read is served alone, the second
    waits out the first one's transfer time in full."""
    env = Environment()
    site = NodeSite(env, CONFIG_A, cache_fraction=0.8)
    workload = make_workload("image_segmentation", dataset_size=4)
    tenants = [
        SimContext(env, workload, CONFIG_A, 1, site=site, cache_namespace=name)
        for name in ("tenant-a", "tenant-b")
    ]
    sample = workload.dataset.spec(0)
    done = []

    def cold_read(ctx):
        yield from ctx.read_sample(sample)
        done.append((ctx.cache_namespace, env.now))

    for ctx in tenants:
        env.process(cold_read(ctx))
    env.run()
    first_read = sample.raw_nbytes / CONFIG_A.storage.bandwidth
    assert [name for name, _at in done] == ["tenant-a", "tenant-b"]
    assert done[1][1] > done[0][1]
    assert tenants[0].storage_wait_seconds == 0.0
    assert tenants[1].storage_wait_seconds == first_read
    assert tenants[0].cache_miss_bytes == tenants[1].cache_miss_bytes > 0


def test_tenant_caches_are_namespaced():
    mix = preset_steady(0.25)
    mix.run()
    cache = mix.cluster.site(0).cache
    namespaces = {
        key[0] for key in cache._entries if isinstance(key, tuple)
    }
    assert namespaces == {"tenant-a", "tenant-b"}


def test_shared_cluster_disables_collapse(monkeypatch):
    """Both tenants' fabrics ride the cluster's one topology, so neither
    starts a collapse decider: the tenancy veto is the fabric's."""
    fabrics, deciders = [], []
    plain_init = RingFabric.__init__
    plain_decider = RingFabric._collapse_decider

    def recording_init(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        fabrics.append(self)

    def recording_decider(self, entry):
        deciders.append(entry)
        return plain_decider(self, entry)

    monkeypatch.setattr(RingFabric, "__init__", recording_init)
    monkeypatch.setattr(RingFabric, "_collapse_decider", recording_decider)
    mix = preset_steady(0.25)
    result = mix.run()
    assert len(fabrics) == 2
    assert all(
        fabric.collapse and fabric.topology is mix.cluster.topology
        for fabric in fabrics
    )
    assert mix.cluster.topology.fabrics == 2
    assert not deciders
    for res in result.jobs:
        assert res.collapsed_collectives == 0


# ---------------------------------------------------------------------------
# Partition semantics
# ---------------------------------------------------------------------------


def _partition_membership(duration=1.0, time=0.5):
    return ClusterMembership(
        NODES,
        partitions=(
            PartitionEvent(nodes=(0, 1), time=time, duration=duration),
        ),
    )


def test_partition_stalls_and_heals_single_job():
    baseline = run_elastic(
        "minato", _workload(), CONFIG_A, ClusterMembership(NODES),
        gpus_per_node=GPUS, fabric="ring", total_steps=4 * NODES * GPUS,
    )
    partitioned = run_elastic(
        "minato", _workload(), CONFIG_A, _partition_membership(),
        gpus_per_node=GPUS, fabric="ring", total_steps=4 * NODES * GPUS,
    )
    assert partitioned.partition_stall_seconds > 0
    assert partitioned.training_time > baseline.training_time
    assert partitioned.steps == baseline.steps
    assert partitioned.samples == baseline.samples


def test_partition_then_heal_never_deadlocks():
    """Watchdog-guarded: the partitioned mix must finish, not hang.  A
    stalled delivery is released at the window's heal time, so the run
    completes in bounded virtual (and wall) time."""
    mix_result = run_with_watchdog(
        lambda: run_preset("network_partition", scale=0.25), 60
    )
    assert sum(r.partition_stall_seconds for r in mix_result.jobs) > 0
    for res in mix_result.jobs:
        assert res.steps > 0


def test_no_shard_double_coverage_across_partition():
    """A partition is a connectivity event, not a membership event: the
    re-shard never assigns one sample to two nodes in any round, before,
    during, or after the window."""
    result = run_elastic(
        "minato", _workload(), CONFIG_A, _partition_membership(),
        gpus_per_node=GPUS, fabric="ring", epochs=3,
    )
    n = len(_workload().dataset)
    for row, sizes, coverage in zip(
        result.epoch_membership,
        result.epoch_shard_sizes,
        result.epoch_coverage,
    ):
        assert len(row) == len(set(row)), "node listed twice in a round"
        # equal-length disjoint shards cover the dataset exactly once per
        # epoch (wrap-around padding may re-read, but distinct coverage
        # can never exceed the dataset)
        assert coverage <= n
        assert sum(sizes) >= n
    # every epoch fully covered: the partition stalled traffic but lost
    # no data
    assert all(c == n for c in result.epoch_coverage)


def test_partition_outcome_independent_of_kernel_config(monkeypatch):
    """Partition stalls are modelled timing, not scheduling accidents: the
    run passes the kernel referee transition by transition, and the
    referee changes nothing -- not even the event count."""

    def go():
        return run_elastic(
            "minato", _workload(), CONFIG_A, _partition_membership(),
            gpus_per_node=GPUS, fabric="ring", total_steps=2 * NODES * GPUS,
        )

    refereed = on_checked_kernel(monkeypatch, go)
    assert refereed.partition_stall_seconds > 0
    assert vars(refereed) == vars(go())


def test_cluster_has_no_queue_option():
    with pytest.raises(TypeError, match="queue"):
        _cluster(queue="heap")


# ---------------------------------------------------------------------------
# Remote storage over the NIC
# ---------------------------------------------------------------------------


def test_storage_over_nic_adds_link_contention():
    """Routing cache-miss reads over the NIC makes loader traffic and
    collectives contend: the run gets slower and the collectives queue."""
    def go(storage_over_nic):
        cluster = _cluster(storage_over_nic=storage_over_nic)
        result = JobMix([_spec(total_steps=4 * NODES * GPUS)], cluster).run()
        nic_bytes = sum(
            pipe.total_bytes
            for pipe in cluster.topology._links.values()
        )
        return result.jobs[0], nic_bytes

    local, local_nic_bytes = go(False)
    remote, remote_nic_bytes = go(True)
    assert remote.training_time > local.training_time
    # the same collective traffic flows either way; the remote regime adds
    # every cache-miss byte on top of it
    assert remote_nic_bytes >= local_nic_bytes + remote.cache_miss_bytes
