"""Kernel performance benchmark scenarios (the measured perf trajectory).

The ROADMAP's "raw speed" item needs numbers, not claims: this module
defines the fixed scenario grid the benchmark suite
(``benchmarks/test_kernel_perf.py``) and the ``repro bench`` CLI both run,
so every speed statement about the simulation kernel traces to a committed
``BENCH_kernel.json``.

Each :class:`BenchScenario` is one distributed run (topology x serial/
overlap x static/churn at 64 / 256 / 1000 ranks, plus a checkpointed
failure-recovery run).  :func:`run_scenario` executes it twice:

* **optimized** -- the default: the homogeneous-rank collapsed fast path
  armed in the collective fabric (``collapse=True``);
* **baseline** -- the same kernel with ``collapse=False``, every ring
  stage simulated per rank; skipped for scenarios marked too large to
  simulate per-rank in CI (the 1000-rank runs).

Both runs must produce *identical* simulation results (the collapse is
timing-exact by construction; :func:`run_scenario` asserts it), so the
interesting numbers are wall-clock and events/sec.  Because the collapse
removes events rather than processing them faster, the headline metric is
**effective events/sec**: the baseline's event count divided by the
optimized wall-clock -- how fast the collapse chews through the same
simulated workload.  ``speedup`` therefore measures the collapse alone:
rows where it never engages (shared clusters, churn rounds) read ~1.0x.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import cluster as cluster_module
from .checkpoint import CheckpointPolicy
from .cluster import DEFAULT_LINK_LATENCY, Cluster
from .distributed import ClusterMembership, DistributedResult, MembershipEvent
from .kernel import Environment, Event, Process
from .scenarios import JobMix, JobSpec, MixResult
from .workloads import CONFIG_A, CONFIG_B

HARDWARE = {"config_a": CONFIG_A, "config_b": CONFIG_B}

__all__ = [
    "BenchScenario",
    "SCENARIOS",
    "census",
    "render_census",
    "run_scenario",
    "run_benchmarks",
    "scenario_by_name",
    "write_report",
]

#: result fields that legitimately differ between baseline and optimized
#: runs (observability of the optimizations themselves, never timing):
#: the collapse counters exist only when the collapse is armed, and the
#: cross-class veto counter records collapse *attempts*, which the
#: baseline never makes
OBSERVABILITY_FIELDS = (
    "collapsed_collectives",
    "sim_events",
    "collapse_cross_vetoes",
)


@dataclass(frozen=True)
class BenchScenario:
    """One fixed benchmark configuration."""

    name: str
    topology: str
    overlap: bool
    nodes: int
    gpus_per_node: int = 4
    buckets: int = 2
    steps_per_gpu: int = 4
    #: which Table 1 workload drives the compute side.  A short-step
    #: workload makes the fabric the dominant event source (per-sample
    #: loader events otherwise drown the collective)
    workload: str = "speech_3s"
    hardware: str = "config_a"
    dataset_per_node: int = 96
    #: override the ring-stage latency (None = the cluster's default).
    #: The overlap fast path requires bucket collectives to fit inside a
    #: backprop slice, so short-step workloads need a low-latency fabric
    allreduce_latency: Optional[float] = None
    reshard: str = "stride"
    #: loader knobs (None = model defaults).  The 1000-rank scenario was
    #: sized when idle stages still cost an event per poll tick; its
    #: coarser tick and smaller pool are part of its committed results now
    poll_interval: Optional[float] = None
    workers_per_gpu: Optional[int] = None
    #: 1.0 = steady-state cache-warm regime (the compute-bound DDP common
    #: case, where the collapse engages after the first pass); lower values
    #: keep per-pass disk misses, which stagger rank arrivals and force the
    #: exact per-rank path -- used by the churn scenarios to exercise the
    #: fallback machinery
    cache_fraction: float = 1.0
    #: membership events (churn scenarios); empty = static cluster
    events: Tuple[MembershipEvent, ...] = ()
    #: measure the exact-path baseline too (off for runs too large to
    #: simulate per-rank in CI; their optimized wall-clock is the metric)
    measure_baseline: bool = True
    #: identical tenant jobs submitted to one shared cluster.  1 = the
    #: classic single-job path; >1 runs a JobMix so the benchmark covers
    #: the multi-tenant machinery (shared link pipes, namespaced caches, no
    #: fabric collapsing on a topology another rides) at grid scale
    jobs: int = 1
    #: checkpoint policy (None = no snapshots): the checkpoint scenario
    #: keeps snapshot writes, failure restore, and lost-step replay on the
    #: measured kernel-cost surface
    checkpoint: Optional[CheckpointPolicy] = None
    #: route cache-miss loader reads and checkpoint writes over the nodes'
    #: NIC links, contending max-min fair with collective streams -- the
    #: remote-filesystem regime; exercises the shared-link flow engine and
    #: the collapse's cross-class traffic veto at benchmark scale
    storage_over_nic: bool = False

    @property
    def ranks(self) -> int:
        return self.nodes * self.gpus_per_node

    def run(
        self, collapse: bool
    ) -> Tuple[Union[DistributedResult, MixResult], float]:
        """Execute the scenario once; returns (result, wall_seconds).

        ``jobs`` identical tenants on one explicit :class:`Cluster`; a
        single job runs alone, several as a :class:`JobMix`."""
        loader_kwargs = {}
        if self.poll_interval is not None:
            loader_kwargs["poll_interval"] = self.poll_interval
        if self.workers_per_gpu is not None:
            loader_kwargs["workers_per_gpu"] = self.workers_per_gpu
        specs = [
            JobSpec(
                job_id=f"tenant-{i}" if self.jobs > 1 else "job0",
                loader="minato",
                workload_name=self.workload,
                dataset_size=self.dataset_per_node * self.nodes,
                loader_kwargs=loader_kwargs or None,
                total_steps=self.steps_per_gpu * self.ranks,
                reshard=self.reshard,
                overlap=self.overlap,
                buckets=self.buckets,
                collapse=collapse,
                checkpoint=self.checkpoint,
            )
            for i in range(self.jobs)
        ]
        # scenarios run back-to-back in one process; collect the previous
        # run's garbage outside the timed region so gen-2 sweeps over dead
        # event graphs don't tax whichever scenario happens to run next
        gc.collect()
        started = time.perf_counter()
        cluster = Cluster(
            ClusterMembership(self.nodes, list(self.events)),
            HARDWARE[self.hardware],
            gpus_per_node=self.gpus_per_node,
            cache_fraction=self.cache_fraction,
            topology=self.topology,
            link_latency=(
                DEFAULT_LINK_LATENCY
                if self.allreduce_latency is None
                else self.allreduce_latency
            ),
            storage_over_nic=self.storage_over_nic,
        )
        mix = JobMix(specs, cluster).run()
        wall = time.perf_counter() - started
        return (mix if self.jobs > 1 else mix.jobs[0]), wall


def _churn(nodes: int) -> Tuple[MembershipEvent, ...]:
    """Leave / join / mid-step fail: exercises re-sharding, elastic budget
    re-splitting, and the collapse fallback (the fail round runs the full
    per-rank fabric)."""
    return (
        MembershipEvent("leave", node=0, epoch=1),
        MembershipEvent("join", node=nodes, epoch=2),
        MembershipEvent("fail", node=1, epoch=3, after=0.5),
    )


SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario("flat-serial-static-64", "flat", False, nodes=16),
    BenchScenario("flat-overlap-static-64", "flat", True, nodes=16, buckets=4),
    BenchScenario("flat-serial-churn-64", "flat", False, nodes=16,
                  steps_per_gpu=6, cache_fraction=0.8, events=_churn(16)),
    # two tenants on one shared cluster: collectives from both jobs queue
    # on the same link pipes, caches are namespaced, and neither fabric
    # collapses (two ride the topology) -- the multi-tenant machinery at
    # benchmark scale
    BenchScenario("mix-two-job-64", "flat", False, nodes=16, jobs=2),
    # checkpointing under a mid-run failure: snapshot writes on every
    # node's storage pipe, a restore pass, and lost-step replay all land
    # on the measured kernel-cost surface (collapse on and off must agree)
    BenchScenario("flat-serial-ckpt-64", "flat", False, nodes=16,
                  steps_per_gpu=6,
                  events=(MembershipEvent("fail", node=1, time=4.0),),
                  checkpoint=CheckpointPolicy(
                      interval_steps=2, state_scale=8.0)),
    # everything on the NIC at once: hierarchical overlap with remote
    # storage, so loader cache misses and periodic checkpoint writes share
    # each node's NIC link with the bucket collectives (max-min fair flow
    # engine under genuine cross-class contention, collapse vetoed while
    # foreign traffic is in flight -- collapse on and off must still agree)
    BenchScenario("contended-64", "hierarchical", True, nodes=16,
                  buckets=4, steps_per_gpu=6, cache_fraction=0.6,
                  workload="image_segmentation", dataset_per_node=12,
                  allreduce_latency=1e-4, storage_over_nic=True,
                  checkpoint=CheckpointPolicy(
                      interval_steps=2, state_scale=8.0)),
    BenchScenario("hier-serial-static-256", "hierarchical", False, nodes=64,
                  steps_per_gpu=8, workload="image_segmentation",
                  dataset_per_node=12, allreduce_latency=1e-4),
    BenchScenario("hier-overlap-static-256", "hierarchical", True, nodes=64,
                  buckets=12, steps_per_gpu=18, workload="image_segmentation",
                  dataset_per_node=12, allreduce_latency=1e-4),
    BenchScenario("hier-overlap-churn-256", "hierarchical", True, nodes=64,
                  buckets=4, steps_per_gpu=6, cache_fraction=0.8,
                  workload="image_segmentation", dataset_per_node=12,
                  allreduce_latency=1e-4, events=_churn(64)),
    # the scale target: 1000-rank hierarchical elastic in seconds -- the
    # per-rank baseline is O(W x stages) transfer events per collective,
    # far past a CI budget, so only the collapsed run is made
    BenchScenario("hier-serial-elastic-1000", "hierarchical", False,
                  nodes=125, gpus_per_node=8, buckets=1, steps_per_gpu=6,
                  workload="image_segmentation", hardware="config_b",
                  dataset_per_node=24, allreduce_latency=1e-4,
                  reshard="locality", poll_interval=0.02, workers_per_gpu=6,
                  events=(MembershipEvent("leave", node=0, epoch=3),),
                  measure_baseline=False),
)

#: the CI regression gate watches this scenario's speedup
GATE_SCENARIO = "hier-overlap-static-256"


def scenario_by_name(name: str) -> BenchScenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"unknown scenario {name!r}; have {[s.name for s in SCENARIOS]}"
    )


def _comparable(result: Union[DistributedResult, MixResult]) -> object:
    if isinstance(result, MixResult):
        # a mix compares job-by-job (the mix-level sim_events counter is
        # observability, exactly like the per-result one)
        return [_comparable(job) for job in result.jobs]
    fields = dict(vars(result))
    for name in OBSERVABILITY_FIELDS:
        fields.pop(name, None)
    return fields


def _virtual_seconds(result: Union[DistributedResult, MixResult]) -> float:
    return (
        result.makespan
        if isinstance(result, MixResult)
        else result.training_time
    )


def _step_total(result: Union[DistributedResult, MixResult]) -> int:
    if isinstance(result, MixResult):
        return sum(job.steps for job in result.jobs)
    return result.steps


def collapsed_collectives(result: Union[DistributedResult, MixResult]) -> int:
    if isinstance(result, MixResult):
        return sum(job.collapsed_collectives for job in result.jobs)
    return result.collapsed_collectives


def run_scenario(scenario: BenchScenario) -> Dict[str, object]:
    """Run one scenario (optimized, plus baseline when configured) and
    return its report entry.  Asserts baseline and optimized agree on every
    reported simulation result field."""
    optimized, opt_wall = scenario.run(collapse=True)
    entry: Dict[str, object] = {
        "name": scenario.name,
        "topology": scenario.topology,
        "overlap": scenario.overlap,
        "ranks": scenario.ranks,
        "nodes": scenario.nodes,
        "buckets": scenario.buckets,
        "steps_per_gpu": scenario.steps_per_gpu,
        "jobs": scenario.jobs,
        "churn_events": len(scenario.events),
        "checkpoint": scenario.checkpoint is not None,
        "virtual_seconds": _virtual_seconds(optimized),
        "steps": _step_total(optimized),
        "optimized": {
            "wall_seconds": opt_wall,
            "events": optimized.sim_events,
            "events_per_sec": optimized.sim_events / max(opt_wall, 1e-9),
            "collapsed_collectives": collapsed_collectives(optimized),
        },
    }
    if scenario.measure_baseline:
        baseline, base_wall = scenario.run(collapse=False)
        if _comparable(baseline) != _comparable(optimized):
            raise AssertionError(
                f"{scenario.name}: optimized and baseline runs diverged -- "
                f"the collapse must be timing-exact"
            )
        base_eps = baseline.sim_events / max(base_wall, 1e-9)
        effective_eps = baseline.sim_events / max(opt_wall, 1e-9)
        entry["baseline"] = {
            "wall_seconds": base_wall,
            "events": baseline.sim_events,
            "events_per_sec": base_eps,
        }
        entry["effective_events_per_sec"] = effective_eps
        entry["speedup"] = effective_eps / max(base_eps, 1e-9)
        entry["results_identical"] = True
    return entry


def run_benchmarks(
    names: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the scenario set (all by default) into a report dict."""
    chosen = (
        [scenario_by_name(name) for name in names]
        if names
        else list(SCENARIOS)
    )
    report: Dict[str, object] = {
        "benchmark": "sim-kernel",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "gate_scenario": GATE_SCENARIO,
        "metric_note": (
            "effective_events_per_sec = baseline events / optimized "
            "wall-clock: the collapse removes events instead of processing "
            "them faster, so the per-rank (collapse=False) run's event count "
            "is the honest denominator for both runs; speedup is the "
            "collapse's alone and reads ~1.0x where it never engages"
        ),
        "scenarios": [run_scenario(s) for s in chosen],
    }
    return report


def _waiter(event: Event) -> str:
    """Who is waiting on ``event``: the innermost generator of the first
    subscribed process as ``name:line``, else the first callback's name."""
    for callback in event.callbacks:
        owner = getattr(callback, "__self__", None)
        if not isinstance(owner, Process):
            return getattr(callback, "__qualname__", repr(callback))
        generator = owner._generator
        while getattr(generator.gi_yieldfrom, "gi_frame", None) is not None:
            generator = generator.gi_yieldfrom
        return f"{generator.gi_code.co_name}:{generator.gi_frame.f_lineno}"
    return "(nobody)"


def census(scenario: BenchScenario, collapse: bool = True) -> Counter:
    """Run ``scenario`` once on a counting kernel and return its delivered
    events by ``(event type, waiter)`` -- the table an event-diet change
    starts from.  The counting :class:`Environment` subclass is substituted
    for the run only; the kernel's own hot path carries nothing for it."""
    counts: Counter = Counter()

    class CountingEnvironment(Environment):
        def _pop_next(self):
            event = super()._pop_next()
            if event is not None:
                counts[type(event).__name__, _waiter(event)] += 1
            return event

    plain = cluster_module.Environment
    cluster_module.Environment = CountingEnvironment
    try:
        scenario.run(collapse)
    finally:
        cluster_module.Environment = plain
    return counts


def render_census(counts: Counter, top: int = 25) -> str:
    total = sum(counts.values())
    lines = [f"{total:9d}  100.0 %  delivered events"]
    listed = counts.most_common(top)
    for (kind, waiter), n in listed:
        lines.append(f"{n:9d}  {100.0 * n / total:5.1f} %  {kind:12s} {waiter}")
    rest = total - sum(n for _key, n in listed)
    if rest:
        lines.append(f"{rest:9d}  {100.0 * rest / total:5.1f} %  (other)")
    return "\n".join(lines)


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
