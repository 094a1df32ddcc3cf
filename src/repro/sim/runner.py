"""Experiment runner: execute one (loader, workload, hardware) combination in
virtual time and collect the metrics the paper reports.

A run's record is columns (:class:`~repro.engine.metrics.IntervalRecorder`),
filled by the single-threaded kernel without a lock or an object per hold.
:func:`run_simulation` reads the scalars the figures need straight off them;
the four time series of :class:`SimResult` are computed when first read,
from a :class:`RunRecord` that keeps the recorders, the throughput meter,
the disk's transfer log and the bucket -- not the kernel, the context or
the loader -- so a run nobody plots pays for no series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..contracts import positive
from ..engine.metrics import IntervalRecorder, ThroughputMeter, utilization_series
from ..errors import ConfigurationError
from .kernel import AllOf, Environment
from .links import throughput_series
from .loaders import (
    SimBatch,
    SimContext,
    SimDALILoader,
    SimMinatoLoader,
    SimPecanLoader,
    SimTorchLoader,
    run_until,
)
from .workloads import HardwareConfig, WorkloadSpec

__all__ = ["SimResult", "RunRecord", "run_simulation", "make_sim_loader", "LOADER_NAMES"]

LOADER_NAMES = ("pytorch", "pecan", "dali", "minato")

MB = 1024 * 1024

Series = List[Tuple[float, float]]


@dataclass(eq=False)
class RunRecord:
    """What a finished run's time series are computed from, and their cache.

    It holds the run's recorders, meter and disk transfer log, never the
    kernel, the :class:`~repro.sim.loaders.SimContext` or the loader, so a
    kept result keeps no simulation alive.
    """

    gpu_recorders: List[IntervalRecorder]
    cpu_recorder: IntervalRecorder
    meter: ThroughputMeter
    #: the disk's completed ``(start, finish, nbytes)`` transfers
    disk_transfers: List[Tuple[float, float, float]]
    duration: float
    bucket: float
    cpu_cores: int
    _series: Dict[str, Series] = field(default_factory=dict, repr=False)

    def series(self, kind: str) -> Series:
        """The ``kind`` series, computed on its first read."""
        if kind not in self._series:
            self._series[kind] = self._compute(kind)
        return self._series[kind]

    def _compute(self, kind: str) -> Series:
        if kind == "throughput":
            return self.meter.series(bucket=self.bucket)
        if kind == "disk":
            return throughput_series(self.disk_transfers, bucket=self.bucket)
        if kind == "gpu":
            # the nvidia-smi view: all GPU activity, training + preprocessing
            intervals = [i for rec in self.gpu_recorders for i in rec.intervals]
            capacity = len(self.gpu_recorders)
        else:
            intervals, capacity = self.cpu_recorder.intervals, self.cpu_cores
        return utilization_series(
            intervals, 0.0, self.duration, bucket=self.bucket, capacity=capacity
        )


@dataclass
class SimResult:
    """Everything the paper's figures need from one simulated run."""

    loader: str
    workload: str
    hardware: str
    num_gpus: int
    training_time: float
    batches: int
    samples: int
    trained_bytes: int
    #: average train-tag utilization per GPU over the run
    gpu_utilization: List[float]
    #: average all-tags GPU utilization (what nvidia-smi would report; for
    #: DALI this includes GPU-side preprocessing, paper §5.3)
    gpu_total_utilization: List[float]
    #: average CPU utilization over the machine's cores
    cpu_utilization: float
    #: the recorders the four time series are computed from on first read
    record: RunRecord = field(repr=False, compare=False)
    #: per-batch records: (end_of_step_time, gpu, size, nbytes, slow_count)
    batch_log: List[Tuple[float, int, int, int, int]] = field(default_factory=list)
    bytes_from_disk: float = 0.0
    cache_hit_rate: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput_series(self) -> Series:
        """(t, bytes/s) model throughput."""
        return self.record.series("throughput")

    @property
    def gpu_series(self) -> Series:
        """(t, fraction) over all GPUs, every tag (what nvidia-smi shows)."""
        return self.record.series("gpu")

    @property
    def cpu_series(self) -> Series:
        """(t, fraction) over the machine's cores."""
        return self.record.series("cpu")

    @property
    def disk_series(self) -> Series:
        """(t, bytes/s) disk reads."""
        return self.record.series("disk")

    @property
    def mean_gpu_utilization(self) -> float:
        if not self.gpu_utilization:
            return 0.0
        return sum(self.gpu_utilization) / len(self.gpu_utilization)

    @property
    def throughput_mb_per_s(self) -> float:
        if self.training_time <= 0:
            return 0.0
        return self.trained_bytes / self.training_time / MB

    def summary(self) -> str:
        return (
            f"{self.loader:8s} {self.workload:20s} {self.num_gpus}x"
            f"{self.hardware:9s} time={self.training_time:9.1f}s "
            f"thru={self.throughput_mb_per_s:7.1f}MB/s "
            f"gpu={self.mean_gpu_utilization * 100:5.1f}% "
            f"cpu={self.cpu_utilization * 100:5.1f}%"
        )

    def to_csv(self, output_dir: str) -> List[str]:
        """Export the run's time series as CSV files (for external plotting).

        Writes ``<loader>_<workload>_<gpus>gpu_{throughput,gpu,cpu,disk}.csv``
        into ``output_dir`` and returns the written paths.
        """
        from ..analysis import write_csv

        prefix = f"{self.loader}_{self.workload}_{self.num_gpus}gpu"
        series = {
            "throughput": ("bytes_per_s", self.throughput_series),
            "gpu": ("utilization", self.gpu_series),
            "cpu": ("utilization", self.cpu_series),
            "disk": ("bytes_per_s", self.disk_series),
        }
        paths = []
        for kind, (unit, data) in series.items():
            path = f"{output_dir}/{prefix}_{kind}.csv"
            paths.append(write_csv(path, ["t_seconds", unit], data))
        return paths


def make_sim_loader(name: str, **kwargs):
    """Instantiate a simulator loader model by paper name."""
    if name == "pytorch":
        return SimTorchLoader(**kwargs)
    if name == "pecan":
        return SimPecanLoader(**kwargs)
    if name == "dali":
        return SimDALILoader(**kwargs)
    if name == "minato":
        return SimMinatoLoader(**kwargs)
    raise ConfigurationError(f"unknown loader {name!r}; expected one of {LOADER_NAMES}")


def run_simulation(
    loader_name: str,
    workload: WorkloadSpec,
    hardware: HardwareConfig,
    num_gpus: int,
    loader_kwargs: Optional[dict] = None,
    cache_fraction: float = 0.8,
    series_bucket: Optional[float] = None,
    keep_batch_log: bool = False,
) -> SimResult:
    """Simulate one full training run and aggregate its metrics.

    A hardware config with its own ``cache_fraction`` (heterogeneous-node
    setups) overrides the ``cache_fraction`` argument, matching the
    distributed runner's per-node semantics."""
    if series_bucket is not None:
        positive("series_bucket", series_bucket)
    env = Environment()
    if hardware.cache_fraction is not None:
        cache_fraction = hardware.cache_fraction
    ctx = SimContext(env, workload, hardware, num_gpus, cache_fraction=cache_fraction)
    loader = make_sim_loader(loader_name, **(loader_kwargs or {}))
    loader.start(ctx)

    total = workload.total_batches(num_gpus)
    # deal per-GPU step counts (sum == total)
    steps = [total // num_gpus] * num_gpus
    for g in range(total - sum(steps)):
        steps[g] += 1

    batch_log: List[Tuple[float, int, int, int, int]] = []
    counters = {"batches": 0, "samples": 0, "bytes": 0}

    def gpu_proc(gpu: int, target: int):
        world = num_gpus
        for _ in range(target):
            batch = yield from loader.get_batch(gpu)
            if batch is None:
                return
            step = workload.model.step_time(
                batch.size, hardware.gpu_type, world_size=world
            )
            yield from ctx.train_step(gpu, step)
            now = env.now
            ctx.meter.record(now, batch.nbytes)
            counters["batches"] += 1
            counters["samples"] += batch.size
            counters["bytes"] += batch.nbytes
            if keep_batch_log:
                batch_log.append((now, gpu, batch.size, batch.nbytes, batch.slow_count))

    procs = [env.process(gpu_proc(g, steps[g])) for g in range(num_gpus)]
    run_until(env, AllOf(env, procs), lambda: [(loader_name, loader)])
    duration = env.now

    bucket = series_bucket
    if bucket is None:
        bucket = max(1.0, duration / 200.0)
    result = SimResult(
        loader=loader_name,
        workload=workload.name,
        hardware=hardware.name,
        num_gpus=num_gpus,
        training_time=duration,
        batches=counters["batches"],
        samples=counters["samples"],
        trained_bytes=counters["bytes"],
        gpu_utilization=[
            rec.utilization(0.0, duration, tag="train") for rec in ctx.gpu_recorders
        ],
        gpu_total_utilization=[
            rec.utilization(0.0, duration) for rec in ctx.gpu_recorders
        ],
        cpu_utilization=ctx.cpu_recorder.utilization(
            0.0, duration, capacity=hardware.cpu_cores
        ),
        record=RunRecord(
            ctx.gpu_recorders, ctx.cpu_recorder, ctx.meter, ctx.disk.transfers,
            duration, bucket, hardware.cpu_cores,
        ),
        batch_log=batch_log,
        # the always-on scalar total (a stream counts from int 0; the
        # result reports a float, as the digests hash its repr)
        bytes_from_disk=float(ctx.disk.total_bytes),
        cache_hit_rate=ctx.cache.hit_rate,
    )
    if hasattr(loader, "worker_history"):
        result.extras["worker_history"] = list(loader.worker_history)
    if hasattr(loader, "profiler"):
        result.extras["profiler"] = loader.profiler.snapshot()
    if hasattr(loader, "auto_order_permutation"):
        result.extras["auto_order_permutation"] = loader.auto_order_permutation
    return result
