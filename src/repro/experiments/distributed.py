"""Distributed-training scaling and elastic-membership experiments (paper §6).

The paper states MinatoLoader "generalizes for distributed training with
multiple nodes and GPUs": each node's loader keeps its preprocessing and
batch-construction benefits, with data-parallel synchronization on top.
This experiment runs a nodes x {minato, pytorch} x {uniform, straggler}
sweep over the Speech-3s workload with *real sharding*: every node's loader
samples a disjoint, equal-length shard of each epoch's global shuffle, so
the cluster covers the dataset once per epoch.

Checks:

* Minato's advantage over the PyTorch loader persists at every node count
  (the bottleneck it removes is node-local);
* both loaders pay the same growing all-reduce cost;
* per-node GPU utilization stays flat for Minato as nodes are added;
* ranks' shards are equal-length and cover the dataset (DistributedSampler
  padding semantics);
* a heterogeneous cluster (one node with fewer CPU cores and slower
  storage) slows *every* rank through the per-step barrier -- the tail
  latency coupling that makes per-node loader efficiency matter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..data.storage import StorageSpec
from ..sim.distributed import (
    AllReduceModel,
    ClusterMembership,
    DistributedResult,
    MembershipEvent,
    run_distributed,
    run_elastic,
)
from ..sim.workloads import CONFIG_A, HardwareConfig, make_workload
from .common import ExperimentReport, experiment, results_table, seconds


def straggler_config(base: HardwareConfig) -> HardwareConfig:
    """A degraded node: a quarter of the CPU cores, congested storage."""
    return replace(
        base,
        name=f"{base.name}_straggler",
        cpu_cores=max(8, base.cpu_cores // 4),
        storage=StorageSpec(
            name=f"{base.storage.name}_congested",
            bandwidth=base.storage.bandwidth / 8.0,
            latency=base.storage.latency * 8.0,
        ),
    )


def _straggling(nodes: int) -> List[HardwareConfig]:
    """Per-node hardware for ``nodes`` nodes, the last one a straggler."""
    return [CONFIG_A] * (nodes - 1) + [straggler_config(CONFIG_A)]


def _gpu_percent(result: DistributedResult) -> str:
    return f"{result.gpu_utilization * 100:.1f}"


@experiment(
    "distributed",
    "Extension: multi-node sharded data-parallel training (paper §6)",
)
def run(
    report: ExperimentReport,
    node_counts: Sequence[int] = (1, 2, 4),
    gpus_per_node: int = 2,
) -> None:
    workload = make_workload("speech_3s").scaled(report.scale)
    steps_per_gpu = max(4, workload.iterations // (max(node_counts) * gpus_per_node))
    allreduce = AllReduceModel()
    straggler_nodes = [n for n in node_counts if n >= 2]

    results: Dict[Tuple[str, int, str], DistributedResult] = {}
    for loader in ("pytorch", "minato"):
        for nodes in node_counts:
            arms = ["uniform"] + (["straggler"] if nodes in straggler_nodes else [])
            for arm in arms:
                results[(loader, nodes, arm)] = run_distributed(
                    loader,
                    workload,
                    CONFIG_A,
                    nodes=nodes,
                    gpus_per_node=gpus_per_node,
                    allreduce=allreduce,
                    steps_per_gpu=steps_per_gpu,
                    node_hardware=_straggling(nodes) if arm == "straggler" else None,
                )
    columns = {
        "world": lambda r: r.world_size,
        "time (s)": seconds,
        "GPU %": _gpu_percent,
        "sync + neighbor wait ms/step": lambda r: (
            f"{r.sync_seconds_total / max(r.steps, 1) * 1000:.1f}"
        ),
        "closed form ms/step": lambda r: (
            f"{allreduce.step_cost(r.world_size) * 1000:.1f}"
        ),
    }
    report.body = results_table(
        results,
        columns,
        f"Speech-3s, {gpus_per_node} GPUs/node, {steps_per_gpu} steps/GPU:",
        "loader", "nodes", "arm",
    )
    report.data["results"] = results

    # -- sharding invariants ----------------------------------------------------
    n_samples = len(workload.dataset)
    for nodes in node_counts:
        result = results[("minato", nodes, "uniform")]
        sizes = result.shard_sizes
        # compare the *measured* sampler lengths against the padding
        # arithmetic: a loader that ignored its shard assignment would
        # report the full dataset here, not its slice
        expected = (n_samples + nodes - 1) // nodes
        report.check(
            f"{nodes} node(s): ranks sample equal-length shards covering "
            f"the dataset",
            sizes == [expected] * nodes,
            f"measured shard sizes {sizes}, expected {expected} each "
            f"(dataset {n_samples})",
        )

    # -- Minato advantage persists under DDP ------------------------------------
    for nodes in node_counts:
        speedup = (
            results[("pytorch", nodes, "uniform")].training_time
            / results[("minato", nodes, "uniform")].training_time
        )
        report.check(
            f"{nodes} node(s): Minato advantage persists under DDP",
            speedup >= 1.5,
            f"pytorch/minato = {speedup:.2f}x",
        )
    minato_utils = [
        results[("minato", n, "uniform")].gpu_utilization for n in node_counts
    ]
    report.check(
        "Minato per-GPU utilization stays high as nodes are added "
        "(node-local benefits compose)",
        min(minato_utils) >= max(minato_utils) - 0.15,
        " -> ".join(f"{u * 100:.0f}%" for u in minato_utils),
    )
    if len(node_counts) > 1:
        first, last = node_counts[0], node_counts[-1]
        sync_first = results[("minato", first, "uniform")].sync_seconds_total
        sync_last = results[("minato", last, "uniform")].sync_seconds_total
        report.check(
            "all-reduce cost grows with the world size (both loaders pay it)",
            sync_last > sync_first,
            f"{sync_first:.1f}s at {first} node(s) vs {sync_last:.1f}s at {last}",
        )

    # -- straggler coupling ------------------------------------------------------
    for nodes in straggler_nodes:
        for loader in ("pytorch", "minato"):
            uniform = results[(loader, nodes, "uniform")].training_time
            straggler = results[(loader, nodes, "straggler")].training_time
            report.check(
                f"{loader}, {nodes} nodes: a straggler node never speeds "
                f"up the cluster",
                straggler >= uniform * 0.99,
                f"uniform {uniform:.1f}s -> straggler {straggler:.1f}s",
            )
        minato_degradation = (
            results[("minato", nodes, "straggler")].training_time
            / results[("minato", nodes, "uniform")].training_time
        )
        report.check(
            f"minato, {nodes} nodes: the per-step barrier couples the slow "
            f"node's tail latency to every rank (an efficient loader exposes "
            f"the straggler; PyTorch's own stalls already hide it)",
            minato_degradation > 1.05,
            f"straggler/uniform = {minato_degradation:.2f}x",
        )
        speedup = (
            results[("pytorch", nodes, "straggler")].training_time
            / results[("minato", nodes, "straggler")].training_time
        )
        report.check(
            f"{nodes} nodes: Minato still wins on a heterogeneous cluster",
            speedup > 1.0,
            f"pytorch/minato = {speedup:.2f}x",
        )


# ---------------------------------------------------------------------------
# Elastic membership + modelled fabric
# ---------------------------------------------------------------------------


@experiment(
    "distributed_elastic",
    "Extension: elastic cluster membership on a modelled ring fabric (paper §6)",
)
def run_elastic_experiment(
    report: ExperimentReport,
    nodes: int = 4,
    gpus_per_node: int = 2,
    reshard: str = "stride",
) -> None:
    """Elastic distributed training: churn/failure x {minato, pytorch} on
    the modelled ring fabric, ring-vs-closed-form cross-checks, and a
    re-shard-policy arm comparing ``stride`` vs ``locality`` cache warmup.

    ``reshard`` selects the policy for the scenario matrix (the
    stride-vs-locality comparison arm always runs both).
    """
    scale = report.scale
    # an epoch-based Speech-3s variant: elastic re-sharding is an
    # epoch-boundary mechanism, so coverage claims need epoch semantics
    base = make_workload("speech_3s", dataset_size=max(96, round(2400 * scale)))
    workload = replace(base, iterations=None, epochs=3)
    n_samples = len(workload.dataset)
    allreduce = AllReduceModel()
    joiner = nodes  # first free node id
    scenarios = {
        "static": ClusterMembership(nodes),
        # lose a node at the epoch-1 boundary, gain a fresh one at epoch 2
        "churn": ClusterMembership(
            nodes,
            [
                MembershipEvent("leave", nodes - 1, epoch=1),
                MembershipEvent("join", joiner, epoch=2),
            ],
        ),
        # abrupt mid-epoch death: the ring re-forms, the lost shard is
        # re-covered by the next boundary's re-shard
        "failure": ClusterMembership(
            nodes, [MembershipEvent("fail", nodes - 1, epoch=1, after=0.5)]
        ),
    }

    results: Dict[Tuple[str, str], DistributedResult] = {
        (loader, arm): run_elastic(
            loader,
            workload,
            CONFIG_A,
            membership,
            gpus_per_node=gpus_per_node,
            allreduce=allreduce,
            reshard=reshard,
        )
        for loader in ("pytorch", "minato")
        for arm, membership in scenarios.items()
    }
    columns = {
        "nodes/epoch": lambda r: "->".join(str(len(m)) for m in r.epoch_membership),
        "time (s)": seconds,
        "GPU %": _gpu_percent,
        f"coverage (of {n_samples})": lambda r: "/".join(
            str(c) for c in r.epoch_coverage
        ),
    }
    report.body = results_table(
        results,
        columns,
        (
            f"Speech-3s (epochs={workload.epochs}, {n_samples} samples), "
            f"{nodes} nodes x {gpus_per_node} GPUs, ring fabric:"
        ),
        "loader", "arm",
    )
    report.data["results"] = results

    # -- elastic coverage invariants --------------------------------------
    for loader in ("pytorch", "minato"):
        static = results[(loader, "static")]
        churn = results[(loader, "churn")]
        failure = results[(loader, "failure")]
        report.check(
            f"{loader}: every epoch of a static cluster covers the dataset",
            all(c == n_samples for c in static.epoch_coverage),
            f"coverage {static.epoch_coverage} of {n_samples}",
        )
        report.check(
            f"{loader}: churn re-shards at epoch boundaries and still "
            f"covers every sample each epoch",
            all(c == n_samples for c in churn.epoch_coverage)
            and [len(m) for m in churn.epoch_membership]
            == [nodes, nodes - 1, nodes],
            f"membership {churn.epoch_membership}, "
            f"coverage {churn.epoch_coverage}",
        )
        report.check(
            f"{loader}: a mid-epoch failure loses only that epoch's shard "
            f"remainder; the next re-shard fully re-covers",
            failure.epoch_coverage[1] < n_samples
            and failure.epoch_coverage[2] == n_samples,
            f"coverage {failure.epoch_coverage} of {n_samples}",
        )
    churn = results[("minato", "churn")]
    expected_sizes = [
        [(n_samples + len(m) - 1) // len(m)] * len(m)
        for m in churn.epoch_membership
    ]
    report.check(
        "re-derived shards stay equal-length per epoch "
        "(DistributedSampler padding under every membership)",
        churn.epoch_shard_sizes == expected_sizes,
        f"{churn.epoch_shard_sizes}",
    )
    departed = nodes - 1
    idx = churn.node_ids.index(departed)
    report.check(
        "a departed node is reported over its own active window, not the "
        "full run (per-epoch membership accounting)",
        churn.per_node_active_seconds[idx] < churn.training_time * 0.75,
        f"node {departed}: {churn.per_node_active_seconds[idx]:.1f}s of "
        f"{churn.training_time:.1f}s",
    )

    # -- Minato's advantage survives churn --------------------------------
    for arm in scenarios:
        speedup = (
            results[("pytorch", arm)].training_time
            / results[("minato", arm)].training_time
        )
        report.check(
            f"{arm}: Minato advantage persists under elastic membership",
            speedup >= 1.5,
            f"pytorch/minato = {speedup:.2f}x",
        )

    # -- locality-preserving vs stride re-sharding ------------------------
    # A cache-sized configuration (each node's page cache holds ~1.5x one
    # post-reshard shard, far less than the dataset) makes the warmup cost
    # of a membership change visible: stride hands every survivor an
    # essentially fresh random shard, locality keeps most of the old one.
    churn_membership = ClusterMembership(
        nodes, [MembershipEvent("leave", nodes - 1, epoch=1)]
    )
    dataset_bytes = sum(
        workload.dataset.spec(i).raw_nbytes for i in range(n_samples)
    )
    shard_bytes = dataset_bytes / max(nodes - 1, 1)
    cache_fraction = 1.5 * shard_bytes / CONFIG_A.memory_bytes
    reshard_runs = {
        policy: run_elastic(
            "minato",
            workload,
            CONFIG_A,
            churn_membership,
            gpus_per_node=gpus_per_node,
            allreduce=allreduce,
            reshard=policy,
            cache_fraction=cache_fraction,
        )
        for policy in ("stride", "locality")
    }
    report.data["reshard_runs"] = reshard_runs
    columns = {
        "mean shard overlap/epoch": lambda r: "/".join(
            f"{o:.2f}" for o in r.epoch_mean_overlap
        ),
        "miss MB/epoch": lambda r: "/".join(
            f"{mb / 1e6:.1f}" for mb in r.epoch_miss_bytes
        ),
    }
    report.body += "\n\n" + results_table(
        reshard_runs,
        columns,
        (
            f"Re-shard policy under churn (minato, {nodes}->{nodes - 1} "
            f"nodes at epoch 1, cache ~1.5x shard):"
        ),
        "reshard",
    )
    stride_run = reshard_runs["stride"]
    locality_run = reshard_runs["locality"]
    post = 1  # the round right after the membership change
    report.check(
        "locality re-sharding preserves more of the survivors' shards "
        "than stride (mean overlap, post-reshard epoch; growing shards "
        "cap the worst-placed survivor, so the guarantee is aggregate)",
        locality_run.epoch_mean_overlap[post]
        > stride_run.epoch_mean_overlap[post],
        f"locality {locality_run.epoch_shard_overlap[post]} vs "
        f"stride {stride_run.epoch_shard_overlap[post]}",
    )
    report.check(
        "locality re-sharding pays strictly less cache warmup than stride "
        "after the membership change (post-reshard miss bytes)",
        locality_run.epoch_miss_bytes[post] < stride_run.epoch_miss_bytes[post],
        f"locality {locality_run.epoch_miss_bytes[post] / 1e6:.1f} MB vs "
        f"stride {stride_run.epoch_miss_bytes[post] / 1e6:.1f} MB",
    )
    report.check(
        "block-layout shards still cover the dataset every epoch under "
        "churn (locality trades shuffle freshness, never coverage)",
        all(c == n_samples for c in locality_run.epoch_coverage),
        f"coverage {locality_run.epoch_coverage} of {n_samples}",
    )

    # -- ring-vs-closed-form cross-checks --------------------------------
    iter_workload = make_workload("speech_3s", dataset_size=n_samples).scaled(
        max(scale, 0.03)
    )
    steps_per_gpu = max(
        4, iter_workload.iterations // (nodes * gpus_per_node)
    )
    arms = {"uniform": None, "straggler": _straggling(nodes)}
    fabric_runs = {
        arm: run_distributed(
            "minato",
            iter_workload,
            CONFIG_A,
            nodes=nodes,
            gpus_per_node=gpus_per_node,
            allreduce=allreduce,
            steps_per_gpu=steps_per_gpu,
            node_hardware=node_hardware,
        )
        for arm, node_hardware in arms.items()
    }
    report.data["fabric_runs"] = fabric_runs
    closed_form = allreduce.step_cost(nodes * gpus_per_node)
    uniform_sync, straggler_sync = (
        result.sync_seconds_total / result.steps
        for result in fabric_runs.values()
    )
    # the measured sync includes waits on neighbors whose batch landed
    # later (pipeline warm-up dominates short runs), so the closed form --
    # every rank entering together -- bounds it from below, not both sides
    report.check(
        "on a homogeneous static cluster the closed-form ring model is "
        "the floor of the modelled ring's per-step sync (the excess is "
        "waits on late neighbors)",
        uniform_sync >= closed_form * (1.0 - 1e-9),
        f"ring {uniform_sync * 1000:.1f} ms/step vs closed form "
        f"{closed_form * 1000:.1f} ms/step",
    )
    report.check(
        "under a straggler the modelled fabric shows neighbor-delay "
        "(per-step sync wait far above the homogeneous run and the closed "
        "form, which averages it away)",
        straggler_sync > 2.0 * max(uniform_sync, closed_form),
        f"ring {straggler_sync * 1000:.1f} ms/step vs homogeneous "
        f"{uniform_sync * 1000:.1f} and closed form "
        f"{closed_form * 1000:.1f} ms/step",
    )


# ---------------------------------------------------------------------------
# Topology-aware collectives + bucketed compute/communication overlap
# ---------------------------------------------------------------------------


@experiment(
    "distributed_overlap",
    "Extension: topology-aware collectives with bucketed "
    "compute/communication overlap (paper §6)",
)
def run_overlap_experiment(
    report: ExperimentReport,
    nodes: int = 2,
    gpus_per_node: int = 2,
    buckets: int = 4,
    topology: str = "hierarchical",
    overlap: bool = True,
) -> None:
    """{flat, hierarchical} x {serial, overlap} on the modelled fabric.

    The two mechanisms real DDP stacks use to keep gradient synchronization
    off the step's critical path: a hierarchical topology moves ``(G-1)/G``
    of the traffic onto intra-node NVLink-class links, and bucketed overlap
    launches each gradient slice's collective as soon as its share of
    backward completes so only the tail is *exposed*.  The matrix always
    runs all four arms; ``topology`` / ``overlap`` pick the featured arm
    the CLI asked for (``repro distributed --fabric hierarchical
    --overlap``).

    Checks: the hierarchical closed form is the floor of the modelled
    hierarchical fabric's per-step sync on a homogeneous cluster (the PR-3
    cross-check, hierarchical edition); hierarchical+overlap strictly beats
    flat+serial on exposed sync; overlap helps within each topology;
    bucketing re-slices but never changes the gradient bytes; exposed <=
    total sync everywhere.
    """
    workload = make_workload("speech_3s").scaled(report.scale)
    world = nodes * gpus_per_node
    steps_per_gpu = max(4, workload.iterations // world)
    allreduce = AllReduceModel()
    arms = {
        (topo, mode): dict(
            topology=topo,
            overlap=mode == "overlap",
            buckets=buckets if mode == "overlap" else 1,
        )
        for topo in ("flat", "hierarchical")
        for mode in ("serial", "overlap")
    }
    featured = (topology, "overlap" if overlap else "serial")
    if featured not in arms:
        raise ValueError(f"unknown featured arm {featured!r}")

    results: Dict[Tuple[str, str], DistributedResult] = {
        arm: run_distributed(
            "minato",
            workload,
            CONFIG_A,
            nodes=nodes,
            gpus_per_node=gpus_per_node,
            allreduce=allreduce,
            steps_per_gpu=steps_per_gpu,
            **kwargs,
        )
        for arm, kwargs in arms.items()
    }
    columns = {
        "buckets": lambda r: r.buckets,
        "time (s)": seconds,
        "sync ms/step": lambda r: f"{r.sync_seconds_total / r.steps * 1000:.1f}",
        "exposed ms/step": lambda r: (
            f"{r.exposed_sync_seconds / r.steps * 1000:.1f}"
        ),
        "hidden %": lambda r: f"{r.overlap_efficiency * 100:.0f}",
    }
    report.body = results_table(
        results,
        columns,
        (
            f"Speech-3s, {nodes} nodes x {gpus_per_node} GPUs, ring fabric, "
            f"{steps_per_gpu} steps/GPU (featured: {featured[0]}+{featured[1]}):"
        ),
        "topology", "mode",
    )
    report.data["results"] = results
    report.data["featured"] = featured

    # -- hierarchical fabric vs its closed form (PR-3 cross-check) --------
    flat_cf = allreduce.step_cost(world)
    hier_cf = allreduce.hierarchical_step_cost(
        nodes,
        gpus_per_node,
        CONFIG_A.intra_node_latency,
        CONFIG_A.intra_node_bandwidth,
    )
    hier_serial = results[("hierarchical", "serial")]
    hier_sync = hier_serial.sync_seconds_total / hier_serial.steps
    report.check(
        "on a homogeneous static cluster the hierarchical closed form is "
        "the floor of the modelled hierarchical fabric's per-step sync "
        "(the excess is waits on late neighbors)",
        hier_sync >= hier_cf * (1.0 - 1e-9),
        f"ring {hier_sync * 1000:.1f} ms/step vs closed form "
        f"{hier_cf * 1000:.1f} ms/step",
    )
    report.check(
        "hierarchical closed form beats the flat ring when nodes have "
        ">= 2 GPUs (NVLink absorbs (G-1)/G of the traffic and 2(N-1) "
        "inter-node hops replace 2(NG-1))",
        gpus_per_node >= 2 and hier_cf < flat_cf,
        f"hierarchical {hier_cf * 1000:.1f} ms vs flat {flat_cf * 1000:.1f} ms",
    )

    # -- the headline: hierarchical+overlap vs flat+serial ----------------
    baseline = results[("flat", "serial")]
    best = results[("hierarchical", "overlap")]
    report.check(
        "hierarchical+overlap yields strictly lower exposed sync than "
        "flat+serial (the two mechanisms compose)",
        best.exposed_sync_seconds < baseline.exposed_sync_seconds,
        f"{best.exposed_sync_seconds:.2f}s vs "
        f"{baseline.exposed_sync_seconds:.2f}s over {best.steps} steps",
    )
    for topo in ("flat", "hierarchical"):
        serial = results[(topo, "serial")]
        overlapped = results[(topo, "overlap")]
        report.check(
            f"{topo}: bucketed overlap hides sync behind backprop "
            f"(exposed strictly below serial)",
            overlapped.exposed_sync_seconds < serial.exposed_sync_seconds,
            f"overlap {overlapped.exposed_sync_seconds:.2f}s vs "
            f"serial {serial.exposed_sync_seconds:.2f}s",
        )
    report.check(
        "hierarchical topology alone cuts measured per-step sync vs the "
        "flat ring (serial mode)",
        hier_serial.sync_seconds_total < baseline.sync_seconds_total,
        f"hierarchical {hier_serial.sync_seconds_total:.2f}s vs "
        f"flat {baseline.sync_seconds_total:.2f}s",
    )

    # -- conservation + accounting invariants -----------------------------
    grad_totals = {
        key: result.gradient_bytes_synced for key, result in results.items()
    }
    reference = grad_totals[("flat", "serial")]
    report.check(
        "bucketing re-slices the gradient but never changes the bytes "
        "synced (all arms equal)",
        all(
            abs(total - reference) <= 1e-6 * max(reference, 1.0)
            for total in grad_totals.values()
        ),
        f"{sorted((f'{k[0]}+{k[1]}', f'{v:.3e}') for k, v in grad_totals.items())}",
    )
    report.check(
        "exposed sync never exceeds total sync (overlap can hide work, "
        "not invent it)",
        all(
            result.exposed_sync_seconds <= result.sync_seconds_total + 1e-9
            for result in results.values()
        ),
        "; ".join(
            f"{k[0]}+{k[1]}: {r.exposed_sync_seconds:.2f}/"
            f"{r.sync_seconds_total:.2f}s"
            for k, r in results.items()
        ),
    )

    # -- cross-class NIC contention (remote storage) ----------------------
    # same hierarchical+overlap job twice: once with loader misses and
    # collectives on separate worlds (storage_over_nic=False), once with
    # every cache miss routed over the node's NIC link, where it shares
    # bandwidth max-min fair with the bucket collectives
    from ..sim.cluster import Cluster

    def contention_run(storage_over_nic: bool) -> DistributedResult:
        cluster = Cluster(
            ClusterMembership(nodes, []),
            CONFIG_A,
            gpus_per_node=gpus_per_node,
            cache_fraction=0.5,
            topology="hierarchical",
            link_latency=allreduce.latency,
            link_bandwidth=allreduce.bandwidth,
            storage_over_nic=storage_over_nic,
        )
        return run_elastic(
            "minato",
            workload,
            CONFIG_A,
            topology="hierarchical",
            overlap=True,
            buckets=buckets,
            total_steps=steps_per_gpu * world,
            cluster=cluster,
        )

    isolated = contention_run(storage_over_nic=False)
    contended = contention_run(storage_over_nic=True)
    report.data["contention_runs"] = {
        "isolated": isolated,
        "contended": contended,
    }
    columns = {
        "exposed sync (s)": lambda r: f"{r.exposed_sync_seconds:.3f}",
        "collective wait (s)": lambda r: (
            f"{r.link_wait_by_class.get('collective', 0.0):.3f}"
        ),
        "loader wait (s)": lambda r: (
            f"{r.link_wait_by_class.get('loader', 0.0):.3f}"
        ),
    }
    report.body += "\n\n" + results_table(
        report.data["contention_runs"],
        columns,
        (
            "Loader cache misses routed over the NIC "
            "(hierarchical+overlap, cache_fraction=0.5):"
        ),
        "storage path",
    )
    report.check(
        "loader cross-traffic on the NIC strictly raises exposed sync "
        "during overlap (shared links are a measured cost, not a no-op)",
        contended.exposed_sync_seconds > isolated.exposed_sync_seconds,
        f"contended {contended.exposed_sync_seconds:.3f}s vs isolated "
        f"{isolated.exposed_sync_seconds:.3f}s",
    )
    report.check(
        "the contention is attributed on the links: loader-class traffic "
        "appears (and only appears) on the shared-NIC run, and the "
        "collective-class wait never improves under company "
        "(completion-time attribution, so mid-flight slowdowns that "
        "drain before a collective finishes land on exposed sync alone)",
        (
            "loader" in contended.link_wait_by_class
            and "loader" not in isolated.link_wait_by_class
            and contended.link_wait_by_class.get("collective", 0.0)
            >= isolated.link_wait_by_class.get("collective", 0.0)
        ),
        f"collective wait {contended.link_wait_by_class.get('collective', 0.0):.3f}s "
        f"vs {isolated.link_wait_by_class.get('collective', 0.0):.3f}s; "
        f"classes {sorted(contended.link_wait_by_class)}",
    )
