"""Multi-tenant scenario sweep (extension: cluster-owned resources).

Runs every :data:`~repro.sim.scenarios.PRESETS` job mix on a shared
:class:`~repro.sim.cluster.Cluster` and checks the qualitative contention
story:

* **sharing costs**: under the ``steady`` two-tenant mix, each job's
  makespan is strictly longer than the same job alone on an identical
  private cluster -- the tenants measurably contend on storage pipes,
  page caches and NIC links (nothing is accidentally still private);
* **solo is free**: a one-job mix matches ``run_elastic`` exactly (the
  degenerate-mix equivalence the kernel tests pin byte-for-byte);
* **bursts land late**: staggered arrivals start when scheduled, and the
  early tenant's makespan is no worse than under the full steady mix;
* **failures degrade, never hang**: a mid-round node death under a
  two-job mix still completes both jobs' budgets;
* **partitions heal**: a transient reachability split shows up as
  partition-stall seconds, and both jobs still finish.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..analysis import render_table
from ..sim.distributed import DistributedResult
from ..sim.scenarios import PRESETS, JobMix, MixResult
from .common import ExperimentReport, experiment


def _solo(
    build: Callable[[float], JobMix], scale: float, job_id: str
) -> DistributedResult:
    """A preset mix's job ``job_id`` alone on an identical private cluster:
    a fresh build of the preset's own."""
    mix = build(scale)
    spec = next(spec for spec in mix.jobs if spec.job_id == job_id)
    solo_spec = type(spec)(**{**spec.__dict__, "arrival": 0.0})
    return JobMix([solo_spec], mix.cluster).run().jobs[0]


@experiment("scenarios", "Extension: multi-tenant job mixes on a shared cluster")
def run(report: ExperimentReport) -> None:
    # presets scale their cluster-wide step budgets; the (0,1] experiment
    # scale maps onto that directly
    results: Dict[str, MixResult] = {
        name: build(report.scale).run() for name, build in PRESETS.items()
    }

    rows = []
    for name, mix_result in results.items():
        for res in mix_result.jobs:
            rows.append(
                [
                    name,
                    res.job_id,
                    res.loader,
                    res.steps,
                    f"{mix_result.per_job_makespan[res.job_id]:.2f}",
                    f"{res.exposed_sync_seconds:.2f}",
                    f"{res.storage_wait_seconds:.2f}",
                    f"{res.link_wait_seconds:.3f}",
                    f"{res.partition_stall_seconds:.2f}",
                ]
            )
    report.body = render_table(
        [
            "preset",
            "job",
            "loader",
            "steps",
            "makespan_s",
            "exposed_s",
            "storage_wait_s",
            "link_wait_s",
            "partition_s",
        ],
        rows,
        title="Per-tenant outcomes across preset mixes",
    )

    steady = results["steady"]
    for res in steady.jobs:
        alone = _solo(PRESETS["steady"], report.scale, res.job_id).training_time
        shared = steady.per_job_makespan[res.job_id]
        report.check(
            f"steady: {res.job_id} is strictly slower sharing the cluster",
            shared > alone,
            f"shared {shared:.3f}s vs alone {alone:.3f}s",
        )
    report.check(
        "steady: tenants measurably contend on shared transport",
        steady.link_contention_seconds > 0,
        f"{steady.link_contention_seconds:.2f}s queued on storage/links",
    )

    burst = results["burst"]
    first = burst.jobs[0]
    report.check(
        "burst: the early tenant fares no worse than under steady sharing",
        burst.per_job_makespan[first.job_id]
        <= steady.per_job_makespan[first.job_id] + 1e-9,
        f"burst {burst.per_job_makespan[first.job_id]:.3f}s vs steady "
        f"{steady.per_job_makespan[first.job_id]:.3f}s",
    )
    report.check(
        "burst: every tenant completes its full step budget",
        all(res.steps > 0 for res in burst.jobs),
        ", ".join(f"{r.job_id}={r.steps}" for r in burst.jobs),
    )

    failure = results["worker_failure"]
    report.check(
        "worker_failure: both tenants finish despite the mid-round death",
        all(res.steps > 0 for res in failure.jobs)
        and all(len(res.epoch_membership) >= 1 for res in failure.jobs),
        f"makespan {failure.makespan:.2f}s",
    )

    partition = results["network_partition"]
    stalled = sum(res.partition_stall_seconds for res in partition.jobs)
    report.check(
        "network_partition: the cut stalls ring deliveries and heals",
        stalled > 0 and all(res.steps > 0 for res in partition.jobs),
        f"{stalled:.2f}s of deliveries stalled; all jobs completed",
    )

    heavy = results["checkpoint_heavy"]
    report.check(
        "checkpoint_heavy: the snapshotting tenant pays measurable write "
        "time and everyone still finishes",
        heavy.checkpoint_write_seconds > 0
        and all(res.steps > 0 for res in heavy.jobs),
        f"{heavy.checkpoint_write_seconds:.2f}s of checkpoint writes",
    )

    report.data["results"] = results
