"""The image-size heuristic load balancer of paper §3.2 (Fig. 3a).

The paper extends the PyTorch DataLoader with a custom balancer that
*predicts* slow samples from their raw size instead of measuring elapsed
time.  This works for image segmentation (cost correlates with volume size)
but fails for object detection, where size does not predict cost -- the
mispredictions let slow samples stall the fast path and GPU usage
fluctuates.

:class:`SizeHeuristicLoader` reuses the MinatoLoader machinery but replaces
the timeout classification with the shared
:class:`~repro.policy.routing.SizeRouter` (the same predictor the
discrete-event model's ``classifier='size'`` mode uses): samples whose raw
size exceeds a threshold (default: the dataset's P75 size) are routed to
the background path *before* preprocessing; everything else is processed
inline with no timeout.
"""

from __future__ import annotations

import math
from typing import Optional

from ..clock import Clock
from ..core.config import MinatoConfig
from ..core.loader import MinatoLoader
from ..data.dataset import Dataset
from ..data.samplers import RandomSampler
from ..data.storage import StorageModel
from ..policy import SizeRouter
from ..transforms.base import Pipeline

__all__ = ["SizeHeuristicLoader"]


class SizeHeuristicLoader(MinatoLoader):
    """MinatoLoader variant classifying by raw sample size, not elapsed time."""

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        config: Optional[MinatoConfig] = None,
        epochs: int = 1,
        clock: Optional[Clock] = None,
        storage: Optional[StorageModel] = None,
        sampler: Optional[RandomSampler] = None,
        size_threshold_bytes: Optional[float] = None,
        size_percentile: float = 75.0,
    ) -> None:
        super().__init__(
            dataset=dataset,
            pipeline=pipeline,
            config=config,
            epochs=epochs,
            clock=clock,
            storage=storage,
            sampler=sampler,
        )
        if size_threshold_bytes is not None:
            self.size_router = SizeRouter(size_threshold_bytes)
        else:
            self.size_router = SizeRouter.from_dataset(dataset, size_percentile)

    @property
    def size_threshold_bytes(self) -> float:
        return self.size_router.threshold_bytes

    def _process_one(self, epoch: int, seq: int, index: int) -> None:
        sample, ctx = self._begin_sample(epoch, index=index)
        if self.size_router.is_slow(sample.spec.raw_nbytes):
            ctx.settle()
            # Predicted slow: defer the *entire* pipeline to the background.
            self._count(samples_timed_out=1)
            self._temp_queue.put((sample, 0, epoch, seq))
            return

        # Predicted fast: process inline, no timeout -- a misprediction
        # (small-but-slow sample) stalls this worker's fast path.
        outcome = self.balancer.process(sample, ctx, math.inf)
        ctx.settle()
        self.profiler.record(outcome.elapsed_seconds, flagged_slow=False)
        self._count(
            busy_seconds=ctx.charged_seconds, samples_fast=1, samples_preprocessed=1
        )
        self._route_ready(outcome.sample, seq, slow=False)
