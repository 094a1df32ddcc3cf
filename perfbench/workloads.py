"""The five benchmark workloads.

Each workload generates every input from its seed in ``__init__`` (so set-up
can be timed and repeated), runs one closed-loop repetition in ``run`` and
turns the raw results into numbers and correctness verdicts in ``summarize``
(outside the timed region).  ``why`` lines live in ``BENCHMARK.json``; the
sizes below are for the 2-core sandbox and are part of the benchmark's
definition -- changing one re-bases every recorded number.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import TorchLoaderConfig, TorchStyleLoader
from repro.clock import RealClock, ScaledClock
from repro.core import MinatoConfig, MinatoLoader
from repro.data import InMemoryDataset, ReplicatedDataset, SyntheticKiTS19, SyntheticLibriSpeech
from repro.engine import MODELS, SimulatedGPU, Trainer
from repro.errors import LoaderStateError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster, ClusterMembership, MembershipEvent
from repro.sim.distributed import AllReduceModel, run_elastic
from repro.sim.runner import run_simulation
from repro.sim.scenarios import JobMix, JobSpec
from repro.sim.workloads import CONFIG_A, CONFIG_B, WorkloadSpec, make_workload
from repro.transforms import segmentation_pipeline, speech_pipeline
from repro.transforms.base import Pipeline, Transform

__all__ = ["WORKLOADS", "Summary", "Probe"]

GIB = 1024**3


@dataclass
class Summary:
    """What one repetition produced, on the workload's own timeline."""

    #: training time: wall on RealClock, virtual on ScaledClock, simulated on sim-*
    train_s: float
    #: mean train-tag GPU utilization (thr-null: share of the consumer's
    #: time not spent blocked in ``next_batch``)
    gpu_util: float
    samples: int
    #: operations (batches on thr-*, training steps on sim-*) expected / not delivered right
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    #: hash of simulated statistics; equal digests mean an unchanged model
    digest: Optional[str] = None
    #: per-layer counts read from results and the benchmark's own probes
    counts: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Probes the traced phase passes in: a counting clock and a timing BatchSource
# ---------------------------------------------------------------------------


def _counting(clock_cls):
    """``clock_cls`` with its idle sleeps counted (busy ``advance`` untouched)."""

    class CountingClock(clock_cls):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.idle_polls = 0
            self.idle_poll_s = 0.0
            self._count_lock = threading.Lock()

        def sleep(self, seconds: float) -> None:
            with self._count_lock:
                self.idle_polls += 1
                self.idle_poll_s += seconds
            super().sleep(seconds)

    return CountingClock


class _TimedSource:
    """``BatchSource`` proxy: times every ``next_batch`` and records a span."""

    def __init__(self, loader, spans) -> None:
        self._loader = loader
        self._spans = spans
        self._parent = spans.current()
        self.waits: List[float] = []

    def next_batch(self, gpu: int = 0):
        start = time.perf_counter()
        try:
            return self._loader.next_batch(gpu)
        finally:
            end = time.perf_counter()
            self.waits.append(end - start)
            self._spans.add(f"next_batch gpu{gpu}", start, end, self._parent)

    def shutdown(self, timeout: float = 5.0) -> None:
        self._loader.shutdown(timeout)


class Probe:
    """Hands the traced repetition its instrumented clock and batch source."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.clock = None
        self.source: Optional[_TimedSource] = None

    def make_clock(self, clock_cls, *args):
        self.clock = _counting(clock_cls)(*args)
        return self.clock

    def wrap(self, loader) -> _TimedSource:
        self.source = _TimedSource(loader, self.spans)
        return self.source

    def counts(self) -> Dict[str, float]:
        waits = sorted(self.source.waits)
        n = len(waits)
        # highest percentile that still has ten samples beyond it
        hi = waits[n - 11] if n > 10 else waits[-1]
        return {
            # every Clock.sleep: the workers' and builders' idle polls, plus
            # the scheduler's sleep once per interval; in the clock's seconds
            "core.loader.idle_polls": self.clock.idle_polls,
            "core.loader.idle_poll_s": self.clock.idle_poll_s,
            "core.loader.batch_wait_p50_ms": 1e3 * waits[n // 2],
            "core.loader.batch_wait_hi_ms": 1e3 * hi,
            "core.loader.batch_wait_hi_pct": 100.0 * (n - 10) / n if n > 10 else 100.0,
            "core.loader.batch_wait_n": n,
        }


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def _check_batches(batches, sampler, batch_size, names, expected_batches, error):
    """Failed-operation count for a threaded run, with reasons.

    Every sampler index exactly once, every batch full, every sample through
    the whole pipeline, no loader error.
    """
    errors: List[str] = []
    failed = abs(expected_batches - len(batches))
    if failed:
        errors.append(f"{len(batches)} batches delivered, {expected_batches} expected")
    if error is not None:
        errors.append(f"loader error: {error!r}")
        failed = max(failed, 1)
    bad = sum(
        1 for b in batches
        if b.size != batch_size or any(s.applied != names for s in b.samples)
    )
    if bad:
        errors.append(f"{bad} batches mis-sized or with an incomplete pipeline")
    delivered = Counter(i for b in batches for i in b.indices)
    expected = Counter(sampler.epoch(0))
    wrong = sum((delivered - expected).values()) + sum((expected - delivered).values())
    if wrong:
        errors.append(f"{wrong} sample indices missing or duplicated")
    return min(expected_batches, failed + bad + wrong), errors


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _loader_counts(loader: MinatoLoader, initial_workers: int) -> Dict[str, float]:
    stats = loader.stats()
    return {
        "core.loader.slow_frac": stats.slow_fraction,
        "core.loader.peak_workers": max(
            [initial_workers] + [d.new_workers for d in stats.worker_history]
        ),
    }


# ---------------------------------------------------------------------------
# thr-null: per-sample machinery cost, preprocessing removed
# ---------------------------------------------------------------------------


class Identity(Transform):
    """Zero-cost transform: the loader's own overhead is all that is left."""

    def cost(self, spec, state) -> float:
        return 0.0

    def output_nbytes(self, spec, state) -> float:
        return state.nbytes

    def _operate(self, sample, ctx):
        return sample.data


class ThrNull:
    #: a repetition lasts as long as the pacing says, whatever the host's speed
    host_bound = False
    BATCH = 8
    #: the consumer asks for one batch per period: ~2000 samples/s, below capacity
    PERIOD_S = 0.004

    def __init__(self, seed: int, quick: bool) -> None:
        n = 200 if quick else 6000
        rng = np.random.default_rng(seed)
        self.dataset = InMemoryDataset(list(rng.standard_normal((n, 16))), seed=seed)
        self.pipeline = Pipeline([Identity(), Identity(), Identity()])
        self.config = MinatoConfig(
            batch_size=self.BATCH, num_workers=4, max_workers=8, slow_workers=1, seed=seed
        )
        self.torch_config = TorchLoaderConfig(
            batch_size=self.BATCH, num_workers=4, pin_memory_bandwidth=None, seed=seed
        )
        self.batches = n // self.BATCH

    def _consume(self, loader, source, period: float) -> dict:
        batches, stalled, error = [], 0.0, None
        start = time.perf_counter()
        try:
            for k in range(self.batches):
                asked = time.perf_counter()
                batch = source.next_batch(0)
                stalled += time.perf_counter() - asked
                if batch is None:
                    break
                batches.append(batch)
                delay = start + (k + 1) * period - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
        except LoaderStateError as exc:
            error = exc
        wall = time.perf_counter() - start
        source.shutdown()
        return {"loader": loader, "batches": batches, "wall": wall, "stalled": stalled, "error": error}

    def run(self, probe: Optional[Probe] = None) -> dict:
        clock = probe.make_clock(RealClock) if probe else RealClock()
        loader = MinatoLoader(self.dataset, self.pipeline, self.config, clock=clock)
        return self._consume(loader, probe.wrap(loader) if probe else loader, self.PERIOD_S)

    def run_unpaced(self) -> dict:
        loader = MinatoLoader(self.dataset, self.pipeline, self.config, clock=RealClock())
        return self._consume(loader, loader, 0.0)

    def run_torch(self) -> dict:
        loader = TorchStyleLoader(self.dataset, self.pipeline, self.torch_config, clock=RealClock())
        return self._consume(loader, loader, self.PERIOD_S)

    def summarize(self, raw: dict, probe: Optional[Probe] = None) -> Summary:
        loader = raw["loader"]
        failed, errors = _check_batches(
            raw["batches"], loader.sampler, self.BATCH, self.pipeline.names,
            self.batches, raw["error"],
        )
        samples = sum(b.size for b in raw["batches"])
        counts: Dict[str, float] = {}
        if isinstance(loader, MinatoLoader):
            counts = _loader_counts(loader, self.config.total_initial_workers)
        if probe is not None:
            counts.update(probe.counts())
        return Summary(
            train_s=raw["wall"],
            gpu_util=1.0 - raw["stalled"] / raw["wall"],
            samples=samples, attempted=self.batches, failed=failed, errors=errors,
            counts=counts,
        )


# ---------------------------------------------------------------------------
# thr-speech: the paper's scenario on the threaded loader
# ---------------------------------------------------------------------------


class ThrSpeech:
    #: a repetition lasts as long as the modelled compute on the scaled clock
    host_bound = False
    BATCH = 24
    GPUS = 2
    #: one virtual second takes 0.2 wall seconds: slow enough that the loader's
    #: own CPU (about 1 ms a sample) stays a small share of the modelled time
    CLOCK_SCALE = 0.2

    def __init__(self, seed: int, quick: bool) -> None:
        n = 48 if quick else 432
        self.dataset = SyntheticLibriSpeech(n_samples=n, seed=seed, payload_len=512)
        self.pipeline = speech_pipeline(heavy_seconds=3.0)
        self.config = MinatoConfig(
            batch_size=self.BATCH, num_gpus=self.GPUS, num_workers=6, slow_workers=4,
            max_workers=32, warmup_samples=48, seed=seed,
        )
        # the baseline gets the worker count Minato starts from
        self.torch_config = TorchLoaderConfig(
            batch_size=self.BATCH, num_gpus=self.GPUS,
            num_workers=self.config.total_initial_workers, seed=seed,
        )
        self.batches = n // self.BATCH

    def _train(self, loader, source, clock) -> dict:
        devices = [SimulatedGPU(g, clock) for g in range(self.GPUS)]
        trainer = Trainer(source, devices, MODELS["rnnt"], gpu_type="a100", keep_batch_log=True)
        try:
            return {"loader": loader, "result": trainer.run(), "error": None}
        except LoaderStateError as exc:
            return {"loader": loader, "result": None, "error": exc}

    def run(self, probe: Optional[Probe] = None) -> dict:
        if probe:
            clock = probe.make_clock(ScaledClock, self.CLOCK_SCALE)
        else:
            clock = ScaledClock(self.CLOCK_SCALE)
        loader = MinatoLoader(self.dataset, self.pipeline, self.config, clock=clock)
        return self._train(loader, probe.wrap(loader) if probe else loader, clock)

    def run_torch(self) -> dict:
        clock = ScaledClock(self.CLOCK_SCALE)
        loader = TorchStyleLoader(self.dataset, self.pipeline, self.torch_config, clock=clock)
        return self._train(loader, loader, clock)

    def summarize(self, raw: dict, probe: Optional[Probe] = None) -> Summary:
        loader, result = raw["loader"], raw["result"]
        batches = result.batch_log if result is not None else []
        failed, errors = _check_batches(
            batches, loader.sampler, self.BATCH, self.pipeline.names,
            self.batches, raw["error"],
        )
        samples = result.samples if result is not None else 0
        counts: Dict[str, float] = {}
        if isinstance(loader, MinatoLoader):
            counts = _loader_counts(loader, self.config.total_initial_workers)
        if probe is not None:
            counts.update(probe.counts())
        return Summary(
            train_s=result.wall_seconds if result is not None else 0.0,
            gpu_util=result.mean_gpu_utilization if result is not None else 0.0,
            samples=samples, attempted=self.batches, failed=failed, errors=errors,
            counts=counts,
        )


# ---------------------------------------------------------------------------
# sim-*: the discrete-event instrument
# ---------------------------------------------------------------------------


def _span(probe: Optional[Probe], name: str):
    return probe.spans.span(name) if probe else nullcontext()


class SimNode:
    """Single-node paper-figure suite; the five runs are summed."""

    #: single-threaded interpreter work: wall time scales with the host's speed
    host_bound = True

    SUITE = (
        ("minato", "speech_3s"),
        ("minato", "object_detection"),
        ("minato", "image_segmentation"),
        ("pytorch", "speech_3s"),
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        fraction = 0.01 if quick else 0.16
        self.runs = [
            (loader, make_workload(name, seed=seed).scaled(fraction), CONFIG_A, 4, 0.8)
            for loader, name in self.SUITE
        ]
        # Fig. 10: a dataset three times the memory limit, streamed from disk
        memory_bound = WorkloadSpec(
            name="image_segmentation_230gb",
            dataset=ReplicatedDataset(SyntheticKiTS19(40 if quick else 210, seed=seed), 8),
            pipeline=segmentation_pipeline(),
            model=MODELS["unet3d"],
            batch_size=3,
            epochs=1 if quick else 2,
        )
        self.runs.append(
            ("minato", memory_bound, CONFIG_B.with_memory_limit(80 * GIB), 8, 1.0)
        )

    def run(self, probe: Optional[Probe] = None) -> list:
        results = []
        for loader, workload, hardware, gpus, cache_fraction in self.runs:
            with _span(probe, f"{loader}/{workload.name}"):
                results.append(
                    run_simulation(
                        loader_name=loader, workload=workload, hardware=hardware,
                        num_gpus=gpus, loader_kwargs={"seed": self.seed},
                        cache_fraction=cache_fraction, keep_batch_log=True,
                    )
                )
        return results

    def summarize(self, results: list, probe: Optional[Probe] = None) -> Summary:
        errors: List[str] = []
        attempted = failed = 0
        for (loader, workload, _hw, gpus, _cf), r in zip(self.runs, results):
            steps = workload.total_batches(gpus)
            if workload.epochs is not None:
                samples = len(workload.dataset) * workload.epochs
            else:
                samples = workload.iterations * workload.batch_size
            attempted += steps
            if r.batches != steps or r.samples != samples:
                failed += max(1, abs(steps - r.batches))
                errors.append(
                    f"{loader}/{workload.name}: {r.batches} steps, {r.samples} samples; "
                    f"budget {steps}, {samples}"
                )
        minato, torch = results[0], results[3]
        if not minato.training_time < torch.training_time:
            failed += 1
            errors.append("minato does not beat pytorch on speech_3s")
        gpu_time = [r.training_time * r.num_gpus for r in results]
        samples = sum(r.samples for r in results)
        slow = sum(rec[4] for r in results for rec in r.batch_log)
        return Summary(
            train_s=sum(r.training_time for r in results),
            gpu_util=sum(r.mean_gpu_utilization * t for r, t in zip(results, gpu_time))
            / sum(gpu_time),
            samples=samples, attempted=attempted, failed=min(failed, attempted), errors=errors,
            digest=_digest(
                [(r.training_time, r.gpu_utilization, r.cpu_utilization, r.batches,
                  r.samples, r.trained_bytes, r.bytes_from_disk, r.cache_hit_rate)
                 for r in results]
            ),
            counts={
                "sim.loaders.samples": samples,
                "sim.loaders.slow_frac": slow / samples,
                "data.storage.cache_hit_rate": sum(r.cache_hit_rate * r.samples for r in results) / samples,
                "data.storage.disk_gb": sum(r.bytes_from_disk for r in results) / GIB,
            },
        )


def _summarize_jobs(jobs, train_s, budgets, exact, world, buckets, batch_size) -> Summary:
    """Shared by the two cluster workloads: one ``DistributedResult`` per job."""
    errors: List[str] = []
    failed = 0
    for job, budget in zip(jobs, budgets):
        # a failure re-splits the remaining budget over the survivors, rounding
        # up per rank, so a churned job may overshoot; it may never fall short
        short = budget - job.steps
        if (short != 0 if exact else short > 0) or job.samples != job.steps * batch_size:
            failed += max(1, abs(short))
            errors.append(
                f"{job.job_id}: {job.steps} steps, {job.samples} samples; budget {budget}"
            )
    attempted = sum(budgets)
    steps = sum(j.steps for j in jobs)
    by_class: Dict[str, float] = {}
    for job in jobs:
        for cls, seconds in job.link_wait_by_class.items():
            by_class[cls] = by_class.get(cls, 0.0) + seconds
    hit = sum(j.cache_hit_bytes for j in jobs)
    miss = sum(j.cache_miss_bytes for j in jobs)
    collapsed = sum(j.collapsed_collectives for j in jobs)
    return Summary(
        train_s=train_s,
        gpu_util=sum(j.gpu_utilization for j in jobs) / len(jobs),
        samples=sum(j.samples for j in jobs),
        attempted=attempted, failed=min(failed, attempted), errors=errors,
        digest=_digest(
            [(j.training_time, j.gpu_utilization, j.cpu_utilization, j.steps, j.samples,
              j.sync_seconds_total, j.exposed_sync_seconds, j.gradient_bytes_synced,
              j.cache_hit_bytes, j.cache_miss_bytes, j.storage_wait_seconds,
              sorted(j.link_wait_by_class.items()), j.checkpoint_write_seconds,
              j.restore_seconds, j.lost_steps, j.checkpoint_bytes)
             for j in jobs]
        ),
        counts={
            # every rank-step enters `buckets` collectives; the fabric counts
            # a collapsed collective once for the whole ring of `world` ranks
            "sim.fabric.collectives": steps * buckets,
            "sim.fabric.collapsed_collectives": collapsed,
            "sim.fabric.collapse_frac": collapsed * world / (steps * buckets),
            "sim.fabric.cross_vetoes": sum(j.collapse_cross_vetoes for j in jobs),
            "sim.links.wait_collective_s": by_class.get("collective", 0.0),
            "sim.links.wait_loader_s": by_class.get("loader", 0.0),
            "sim.links.wait_checkpoint_s": by_class.get("checkpoint", 0.0),
            "sim.checkpoint.write_s": sum(j.checkpoint_write_seconds for j in jobs),
            "sim.checkpoint.restore_s": sum(j.restore_seconds for j in jobs),
            "sim.checkpoint.lost_steps": sum(j.lost_steps for j in jobs),
            "sim.distributed.steps": steps,
            "sim.distributed.exposed_sync_s": sum(j.exposed_sync_seconds for j in jobs),
            "sim.loaders.samples": sum(j.samples for j in jobs),
            "data.storage.cache_hit_rate": hit / (hit + miss),
            "data.storage.disk_gb": miss / GIB,
        },
    )


class SimQuiet:
    """One steady homogeneous job: the collapse path of the fabric."""

    #: single-threaded interpreter work: wall time scales with the host's speed
    host_bound = True

    GPUS = 4
    BUCKETS = 4

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.nodes = 4 if quick else 16
        self.total_steps = (4 if quick else 40) * self.nodes * self.GPUS
        self.workload = make_workload(
            "image_segmentation", seed=seed, dataset_size=12 * self.nodes
        )

    def run(self, probe: Optional[Probe] = None):
        return run_elastic(
            loader_name="minato", workload=self.workload, hardware=CONFIG_A,
            membership=ClusterMembership(self.nodes), gpus_per_node=self.GPUS,
            allreduce=AllReduceModel(latency=1e-4), loader_kwargs={"seed": self.seed},
            fabric="ring", total_steps=self.total_steps, cache_fraction=1.0,
            topology="hierarchical", overlap=True, buckets=self.BUCKETS,
        )

    def summarize(self, result, probe: Optional[Probe] = None) -> Summary:
        return _summarize_jobs(
            [result], result.training_time, [self.total_steps], exact=True,
            world=self.nodes * self.GPUS, buckets=self.BUCKETS,
            batch_size=self.workload.batch_size,
        )


class SimContended:
    """Two tenants, one cluster: every byte class contends on shared links."""

    #: single-threaded interpreter work: wall time scales with the host's speed
    host_bound = True

    GPUS = 4
    BUCKETS = 4

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.nodes = 4 if quick else 12
        self.total_steps = (3 if quick else 5) * self.nodes * self.GPUS
        # JobMix builds its datasets itself (dataset seed 0); the benchmark
        # seed reaches the run as every loader's sampler seed
        self.batch_size = make_workload("image_segmentation", dataset_size=1).batch_size
        self.jobs = [
            JobSpec(
                job_id=job_id, loader="minato", workload_name="image_segmentation",
                dataset_size=12 * self.nodes, loader_kwargs={"seed": seed},
                total_steps=self.total_steps, overlap=True, buckets=self.BUCKETS,
                checkpoint=CheckpointPolicy(interval_steps=2, state_scale=8.0),
            )
            for job_id in ("tenant-a", "tenant-b")
        ]

    def run(self, probe: Optional[Probe] = None):
        cluster = Cluster(
            membership=ClusterMembership(
                self.nodes, events=[MembershipEvent(kind="fail", node=1, time=2.0)]
            ),
            hardware=CONFIG_A, gpus_per_node=self.GPUS, cache_fraction=0.6,
            topology="hierarchical", link_latency=1e-4, storage_over_nic=True,
        )
        return JobMix(self.jobs, cluster).run()

    def summarize(self, mix, probe: Optional[Probe] = None) -> Summary:
        return _summarize_jobs(
            mix.jobs, mix.makespan, [self.total_steps] * len(mix.jobs), exact=False,
            world=self.nodes * self.GPUS, buckets=self.BUCKETS,
            batch_size=self.batch_size,
        )


WORKLOADS = {
    "thr-null": ThrNull,
    "thr-speech": ThrSpeech,
    "sim-node": SimNode,
    "sim-quiet": SimQuiet,
    "sim-contended": SimContended,
}
