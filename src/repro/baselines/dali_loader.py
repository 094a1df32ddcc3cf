"""DALI-style baseline: GPU-offloaded preprocessing (paper §2.1, §3.5).

Pipeline semantics modelled after NVIDIA DALI with ``exec_pipelined`` and
``exec_async``:

* one pipeline per GPU over a sharded sampler (DALI shards the dataset);
* CPU-side loading threads fetch raw samples ahead of time;
* preprocessing executes **on the GPU** for the whole batch at a 10x cost
  discount (the paper measured DALI's GPU transforms ~10x faster and scaled
  its injected steps accordingly, §5.1), while *holding the device* -- so it
  contends with training steps on the same GPU, the trade-off of §3.5;
* ``prefetch_queue_depth`` buffers batches between the stages.

Pass the trainer's devices so preprocessing and training contend; without
devices the loader still works (no contention), which is useful in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..clock import Clock
from ..core.batching import Batch
from ..core.loader import BaseConcurrentLoader
from ..data.dataset import Dataset
from ..data.samplers import ShardedSampler
from ..data.storage import StorageModel
from ..engine.device import SimulatedGPU
from ..errors import ConfigurationError
from ..transforms.base import Pipeline

__all__ = ["DALIConfig", "DALIStyleLoader"]


@dataclass
class DALIConfig:
    """Knobs mirroring a DALI pipeline (paper §5.1 defaults)."""

    batch_size: int = 4
    #: CPU loading threads per GPU (DALI default: CPU core count)
    num_threads: int = 4
    prefetch_queue_depth: int = 2
    #: GPU preprocessing speed-up over one CPU core (paper: 10x)
    gpu_speedup: float = 10.0
    num_gpus: int = 1
    drop_last: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {self.num_threads}")
        if self.prefetch_queue_depth < 1:
            raise ConfigurationError(
                f"prefetch_queue_depth must be >= 1, got {self.prefetch_queue_depth}"
            )
        if self.gpu_speedup <= 0:
            raise ConfigurationError(f"gpu_speedup must be positive, got {self.gpu_speedup}")


class DALIStyleLoader(BaseConcurrentLoader):
    """Concurrent model of a per-GPU DALI pipeline."""

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        config: Optional[DALIConfig] = None,
        epochs: int = 1,
        clock: Optional[Clock] = None,
        storage: Optional[StorageModel] = None,
        devices: Optional[List[SimulatedGPU]] = None,
    ) -> None:
        self.config = config if config is not None else DALIConfig()
        cfg = self.config
        super().__init__(
            dataset=dataset,
            pipeline=pipeline,
            batch_size=cfg.batch_size,
            num_gpus=cfg.num_gpus,
            # DALI buffers prefetch_queue_depth batches between stages.
            queue_capacity=cfg.prefetch_queue_depth,
            drop_last=cfg.drop_last,
            epochs=epochs,
            clock=clock,
            storage=storage,
            seed=cfg.seed,
        )
        if devices is not None and len(devices) != cfg.num_gpus:
            raise ConfigurationError(
                f"got {len(devices)} devices for {cfg.num_gpus} GPUs"
            )
        self.devices = devices
        raw_capacity = cfg.prefetch_queue_depth * cfg.batch_size
        self._raw_queues = [
            self._new_queue(f"dali-raw-{g}", raw_capacity) for g in range(cfg.num_gpus)
        ]
        self._shards = [
            ShardedSampler(len(dataset), rank=g, world_size=cfg.num_gpus, seed=cfg.seed)
            for g in range(cfg.num_gpus)
        ]

    # -- orchestration ------------------------------------------------------------

    def _launch(self) -> None:
        cfg = self.config
        for gpu in range(cfg.num_gpus):
            self._spawn(lambda g=gpu: self._load_stage(g), f"dali-load-{gpu}")
            self._spawn(lambda g=gpu: self._gpu_stage(g), f"dali-gpu-{gpu}")

    def _shard_stream(self, gpu: int):
        for epoch in range(self.epochs):
            for index in self._shards[gpu].epoch(epoch):
                yield epoch, index

    def _load_stage(self, gpu: int) -> None:
        """CPU stage: fetch raw samples from storage ahead of the GPU, and
        close the raw queue at the end of the shard: that is how the GPU
        stage learns of it.  (A failure leaves it open: stopping the loader
        aborts it, so no short last batch goes out.)"""
        for epoch, index in self._shard_stream(gpu):
            if self._stop.is_set():
                return
            sample = self.dataset.load(index)
            if self.storage is not None:
                io_seconds = self.storage.read_seconds(sample.spec)
                self.clock.advance(io_seconds)
                self._count(io_seconds=io_seconds)
            if not self._raw_queues[gpu].put((epoch, sample)):
                return
        self._raw_queues[gpu].close()

    def _gpu_stage(self, gpu: int) -> None:
        """GPU stage: batch-level preprocessing at the 10x discount."""
        cfg = self.config
        raw = self._raw_queues[gpu]
        try:
            while not self._stop.is_set():
                entries = []
                while len(entries) < cfg.batch_size:
                    item = raw.get()
                    if item is None:  # drained and closed, or stopped
                        break
                    entries.append(item)
                if not entries or self._stop.is_set():
                    return
                if self.drop_last and len(entries) < cfg.batch_size:
                    return
                samples = []
                gpu_cost = 0.0
                for epoch, sample in entries:
                    # Run the numpy work uncharged; the modelled cost executes
                    # on the device below at the GPU discount.
                    _, ctx = self._begin_sample(epoch, sample=sample, cost_scale=0.0)
                    gpu_cost += self.pipeline.total_cost(sample.spec) / cfg.gpu_speedup
                    self.pipeline.apply_all(sample, ctx)
                    ctx.settle()
                    samples.append(sample)
                    self._count(samples_preprocessed=1)
                if self.devices is not None:
                    self.devices[gpu].execute(gpu_cost, tag="preprocess")
                else:
                    self.clock.advance(gpu_cost)
                self._count(busy_seconds=gpu_cost)
                batch = Batch(
                    samples=samples, gpu_index=gpu, built_at=self.clock.now()
                )
                self._count(batches_built=1)
                if not self._batch_queues[gpu].put(batch):
                    return
        finally:
            self._batch_queues[gpu].close()
