"""PyTorch-DataLoader-semantics baseline (paper §2.1).

Faithfully re-implements the scheduling behaviour the paper analyses:

* the sampler pre-determines batch membership *before* preprocessing;
* index batches are assigned to workers round-robin; each worker processes
  its batch's samples **sequentially**, so a batch's service time is the sum
  of its samples' costs;
* at most ``prefetch_factor`` batches are in flight per worker;
* completed batches are delivered **strictly in order** -- the reordering
  buffer holds finished later batches while an earlier slow batch is still
  preprocessing.  This is the head-of-line blocking of paper §3.3;
* batch collation / pin-memory runs single-threaded in the main process
  (charged at ``pin_memory_bandwidth``);
* with ``persistent_workers=False`` (the default, as in PyTorch) the worker
  pool restarts every epoch, draining the pipeline at each epoch boundary --
  the stall visible in the paper's Fig. 1b trace.

A single loader instance feeds all GPUs round-robin, matching the paper's
single-process multi-GPU setup (Fig. 1a shows one pipeline feeding "GPU").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..clock import Clock
from ..core.batching import Batch
from ..core.loader import BaseConcurrentLoader
from ..data.dataset import Dataset
from ..data.samplers import BatchSampler, RandomSampler
from ..data.storage import StorageModel
from ..contracts import count, positive
from ..policy import ReorderBuffer
from ..transforms.base import Pipeline

__all__ = ["TorchLoaderConfig", "TorchStyleLoader"]

GB = 1024**3


@dataclass
class TorchLoaderConfig:
    """Knobs mirroring ``torch.utils.data.DataLoader`` (paper §5.1 defaults)."""

    batch_size: int = 4
    num_workers: int = 12
    prefetch_factor: int = 2
    num_gpus: int = 1
    queue_capacity: int = 100
    drop_last: bool = False
    persistent_workers: bool = False
    #: single-threaded collate/pin-memory copy bandwidth; None disables
    pin_memory_bandwidth: Optional[float] = 2.0 * GB
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "batch_size", "num_workers", "prefetch_factor", "num_gpus",
            "queue_capacity",
        ):
            count(name, getattr(self, name))
        count("seed", self.seed, lo=0)
        if self.pin_memory_bandwidth is not None:
            positive("pin_memory_bandwidth", self.pin_memory_bandwidth)


class TorchStyleLoader(BaseConcurrentLoader):
    """Concurrent re-implementation of the PyTorch DataLoader pipeline."""

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        config: Optional[TorchLoaderConfig] = None,
        epochs: int = 1,
        clock: Optional[Clock] = None,
        storage: Optional[StorageModel] = None,
        sampler: Optional[RandomSampler] = None,
    ) -> None:
        self.config = config if config is not None else TorchLoaderConfig()
        super().__init__(
            dataset=dataset,
            pipeline=pipeline,
            batch_size=self.config.batch_size,
            num_gpus=self.config.num_gpus,
            queue_capacity=self.config.queue_capacity,
            drop_last=self.config.drop_last,
            epochs=epochs,
            clock=clock,
            storage=storage,
            sampler=sampler,
            seed=self.config.seed,
        )
        #: strictly in-order delivery (paper §3.3's head-of-line blocking)
        #: through the same reorder buffer the strict-order Minato mode uses
        self._results: ReorderBuffer = ReorderBuffer(lock_factory=threading.Lock)
        #: the collator parks here; every finished batch rings it
        self._finished = self._new_doorbell()
        #: a slot per batch worker w built that is not delivered yet, at
        #: most ``prefetch_factor``: the worker parks in ``put`` on a full
        #: queue, and stopping the loader aborts it
        self._in_flight = [
            self._new_queue(f"torch-in-flight-{w}", self.config.prefetch_factor)
            for w in range(self.config.num_workers)
        ]

    # -- orchestration -----------------------------------------------------------

    def _launch(self) -> None:
        self._spawn(self._orchestrator, "torch-orchestrator")

    def _epoch_batches(self, epoch: int) -> List[List[int]]:
        return BatchSampler(self.sampler, self.batch_size, self.drop_last).epoch(epoch)

    def _orchestrator(self) -> None:
        cfg = self.config
        try:
            if cfg.persistent_workers:
                # One worker pool across all epochs: batches of every epoch
                # are concatenated and delivered in one global order.
                all_batches: List[List[int]] = []
                for epoch in range(self.epochs):
                    all_batches.extend(self._epoch_batches(epoch))
                self._run_round(all_batches, epoch_hint=0)
            else:
                # PyTorch default: the pool restarts per epoch, draining the
                # pipeline at every boundary.
                for epoch in range(self.epochs):
                    if self._stop.is_set():
                        return
                    self._run_round(self._epoch_batches(epoch), epoch_hint=epoch)
        finally:
            for queue in self._batch_queues:
                queue.close()

    def _run_round(self, batches: List[List[int]], epoch_hint: int) -> None:
        cfg = self.config
        workers = min(cfg.num_workers, max(1, len(batches)))
        # fresh buffer per round: batch sequence numbers restart at zero
        self._results = results = ReorderBuffer(lock_factory=threading.Lock)
        threads = [
            self._spawn(
                self._worker,
                f"torch-worker-{w}",
                w,
                [(seq, batches[seq]) for seq in range(w, len(batches), workers)],
                epoch_hint,
            )
            for w in range(workers)
        ]

        # In-order delivery with single-threaded collation: the reorder
        # buffer releases finished batches only in sequence order, so a slow
        # earlier batch holds back completed later ones (head-of-line
        # blocking).
        delivered_count = 0
        while delivered_count < len(batches) and not self._stop.is_set():
            seq = results.next_sequence
            entry = results.try_next()
            if entry is None:
                self._finished.wait(results.ready)
                continue
            producer, batch = entry
            if cfg.pin_memory_bandwidth is not None:
                collate = batch.nbytes / cfg.pin_memory_bandwidth
                self.clock.advance(collate)
                self._count(collate_seconds=collate)
            gpu = seq % self.num_gpus
            batch.gpu_index = gpu
            batch.sequence = seq
            batch.epoch_hint = epoch_hint
            self._count(batches_built=1)
            delivered = self._batch_queues[gpu].put(batch)
            self._in_flight[producer].try_get()
            if not delivered:
                break
            delivered_count += 1
        for thread in threads:
            thread.join()

    # -- workers --------------------------------------------------------------------

    def _worker(
        self,
        worker_id: int,
        assigned: List[Tuple[int, List[int]]],
        epoch_hint: int,
    ) -> None:
        for seq, indices in assigned:
            if not self._in_flight[worker_id].put(seq) or self._stop.is_set():
                return
            samples = []
            for index in indices:
                sample, ctx = self._begin_sample(epoch_hint, index=index)
                self.pipeline.apply_all(sample, ctx)
                ctx.settle()
                self._count(
                    samples_preprocessed=1, busy_seconds=ctx.charged_seconds
                )
                samples.append(sample)
            batch = Batch(samples=samples, built_at=self.clock.now())
            self._results.put(seq, (worker_id, batch))
            self._finished.ring()
