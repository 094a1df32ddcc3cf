"""Workload and hardware specifications for paper-scale simulations.

Workloads bind the paper's datasets, preprocessing pipelines, training
configurations (Table 3) and step-time models; hardware configs mirror the
paper's two testbeds (§3):

* **Config A** -- 2x 64-core AMD EPYC (128 cores), 512 GB RAM, 4x A100,
  shared Lustre over 200 Gb/s;
* **Config B** -- 2x 40-core Intel Xeon (80 cores), 512 GB RAM, 8x V100,
  local 7 TB NVMe.

Iteration-based workloads (object detection, speech; Table 3) fix the total
number of steps *across* GPUs, i.e. a fixed sample budget, so adding GPUs
shortens the run when the loader can keep up.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..contracts import count, fraction, interval, nonnegative, positive
from ..data.dataset import Dataset
from ..data.storage import LUSTRE, NVME, StorageSpec
from ..data.synthetic import (
    SyntheticCOCO,
    SyntheticKiTS19,
    SyntheticLibriSpeech,
)
from ..engine.models import MODELS, StepTimeModel
from ..errors import ConfigurationError
from ..transforms import detection_pipeline, segmentation_pipeline, speech_pipeline
from ..transforms.base import Pipeline

__all__ = [
    "HardwareConfig",
    "WorkloadSpec",
    "CONFIG_A",
    "CONFIG_B",
    "make_workload",
    "WORKLOAD_NAMES",
]

GB = 1024**3


@dataclass(frozen=True)
class HardwareConfig:
    """One of the paper's testbeds (§3)."""

    name: str
    cpu_cores: int
    max_gpus: int
    gpu_type: str
    storage: StorageSpec
    memory_bytes: float
    #: intra-node GPU interconnect (NVLink class): what a hierarchical
    #: collective topology uses between a node's own GPUs
    intra_node_bandwidth: float = 300e9  # 300 GB/s NVLink-class
    intra_node_latency: float = 3e-6
    #: default GPUs per node for distributed runs (None: the runner's
    #: ``gpus_per_node`` argument decides, defaulting to 1)
    gpus_per_node: Optional[int] = None
    #: per-node page-cache fraction override (None: the runner's
    #: ``cache_fraction`` argument applies) -- heterogeneous-memory nodes
    cache_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        count("cpu_cores", self.cpu_cores)
        count("max_gpus", self.max_gpus)
        nonnegative("memory_bytes", self.memory_bytes)
        positive("intra_node_bandwidth", self.intra_node_bandwidth)
        nonnegative("intra_node_latency", self.intra_node_latency)
        if self.gpus_per_node is not None:
            count("gpus_per_node", self.gpus_per_node)
        if self.cache_fraction is not None:
            fraction("cache_fraction", self.cache_fraction)

    def with_memory_limit(self, limit_bytes: float) -> "HardwareConfig":
        """cgroup-style memory cap (paper §5.5)."""
        return replace(self, memory_bytes=limit_bytes)

    def with_cache_fraction(self, fraction: float) -> "HardwareConfig":
        """Pin this node's page-cache size to ``fraction`` of its memory."""
        return replace(self, cache_fraction=fraction)


CONFIG_A = HardwareConfig(
    name="config_a",
    cpu_cores=128,
    max_gpus=4,
    gpu_type="a100",
    storage=LUSTRE,
    memory_bytes=512 * GB,
)

CONFIG_B = HardwareConfig(
    name="config_b",
    cpu_cores=80,
    max_gpus=8,
    gpu_type="v100",
    storage=NVME,
    memory_bytes=512 * GB,
)


@dataclass(frozen=True)
class WorkloadSpec:
    """A training workload: dataset + pipeline + model + Table 3 config."""

    name: str
    dataset: Dataset
    pipeline: Pipeline
    model: StepTimeModel
    batch_size: int
    #: epoch-based workloads (image segmentation): epochs is set
    epochs: Optional[int] = None
    #: iteration-based workloads: total training steps across all GPUs
    iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.epochs is None) == (self.iterations is None):
            raise ConfigurationError(
                "exactly one of epochs / iterations must be set"
            )
        for name in ("batch_size", "epochs", "iterations"):
            if getattr(self, name) is not None:
                count(name, getattr(self, name))

    def total_batches(self, num_gpus: int) -> int:
        """Per-run batch total given the GPU count."""
        if self.epochs is not None:
            n = len(self.dataset) * self.epochs
            return (n + self.batch_size - 1) // self.batch_size
        return self.iterations

    def batches_per_gpu(self, num_gpus: int) -> int:
        total = self.total_batches(num_gpus)
        return (total + num_gpus - 1) // num_gpus

    def scaled(self, fraction: float) -> "WorkloadSpec":
        """Shrink the run length (epochs/iterations) for fast benchmarks."""
        interval("fraction", fraction, 0, 1, "right")
        if self.epochs is not None:
            return replace(self, epochs=max(1, round(self.epochs * fraction)))
        return replace(self, iterations=max(1, round(self.iterations * fraction)))


WORKLOAD_NAMES = (
    "image_segmentation",
    "object_detection",
    "speech_3s",
    "speech_10s",
)


def make_workload(
    name: str,
    seed: int = 0,
    heavy_fraction: Optional[float] = None,
    dataset_size: Optional[int] = None,
) -> WorkloadSpec:
    """Build one of the paper's four workloads (Table 1 + Table 3).

    ``heavy_fraction`` overrides the speech workloads' every-5th-sample
    HeavyStep schedule (the Fig. 12 sweep); ``dataset_size`` overrides the
    default synthetic dataset size.
    """
    if name == "image_segmentation":
        dataset = SyntheticKiTS19(n_samples=dataset_size or 210, seed=seed)
        return WorkloadSpec(
            name=name,
            dataset=dataset,
            pipeline=segmentation_pipeline(),
            model=MODELS["unet3d"],
            batch_size=3,
            epochs=50,
        )
    if name == "object_detection":
        dataset = SyntheticCOCO(n_samples=dataset_size or 5000, seed=seed)
        return WorkloadSpec(
            name=name,
            dataset=dataset,
            pipeline=detection_pipeline(),
            model=MODELS["maskrcnn"],
            batch_size=48,
            iterations=1000,
        )
    if name in ("speech_3s", "speech_10s"):
        heavy_seconds = 3.0 if name == "speech_3s" else 10.0
        dataset = SyntheticLibriSpeech(
            n_samples=dataset_size or 2000, seed=seed, heavy_fraction=heavy_fraction
        )
        return WorkloadSpec(
            name=name,
            dataset=dataset,
            pipeline=speech_pipeline(heavy_seconds=heavy_seconds),
            model=MODELS["rnnt"],
            batch_size=24,
            iterations=1000,
        )
    raise ConfigurationError(
        f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
    )
