"""Configuration for MinatoLoader (paper §4, §5.1 defaults)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..contracts import count, interval, positive
from ..errors import ConfigurationError
from .scheduler import WorkerScheduler

__all__ = ["MinatoConfig"]


@dataclass
class MinatoConfig:
    """Tuning knobs of MinatoLoader.

    Defaults follow the paper's evaluation setup (§5.1): 12 CPU loading
    workers per GPU, queue capacities of 100, the timeout at the 75th
    percentile of observed preprocessing times with a fallback to the 90th,
    and Algorithm 1's 10 ms poll interval for idle stages.
    """

    batch_size: int = 4
    #: initial data-loading workers per GPU (paper: 12)
    num_workers: int = 12
    num_gpus: int = 1
    #: background workers that finish timed-out samples off the critical path
    slow_workers: int = 2
    #: batch-construction threads per GPU
    batch_builders: int = 1
    #: maximum size of every internal queue (paper: 100)
    queue_capacity: int = 100
    #: percentile of preprocessing times used as the slow-sample timeout
    timeout_percentile: float = 75.0
    #: fallback percentile when too many samples get flagged slow
    fallback_percentile: float = 90.0
    #: fraction of recent samples flagged slow that triggers the fallback
    max_slow_fraction: float = 0.40
    #: samples observed before the timeout activates (optimistic warm-up)
    warmup_samples: int = 64
    #: fixed timeout in seconds; None means "derive from the profiler"
    timeout_override: Optional[float] = None
    #: enable the adaptive worker scheduler (Formulas 1-2)
    adaptive_workers: bool = True
    #: hard cap on loading workers (paper: the machine's core count)
    max_workers: int = 128
    min_workers: int = 1
    #: seconds between scheduler adjustments
    scheduler_interval: float = 1.0
    #: Formula 2 coefficients
    alpha: float = 2.0
    beta: float = 2.0
    cpu_threshold: float = 0.7
    delta_clip: int = 2
    #: Algorithm 1's polling sleep when queues are empty (paper: 10 ms): an
    #: idle builder or slow-task worker parks until work arrives, then, on a
    #: shared-timeline clock, sleeps to the tick of this grid its poll loop
    #: would have found the work at
    poll_interval: float = 0.010
    drop_last: bool = False
    #: False restores strict sample order (curriculum mode, paper §6)
    reorder: bool = True
    #: transient sample-load failures tolerated per sample before the
    #: loader aborts (I/O hiccups on shared filesystems are routine)
    load_retries: int = 0
    #: classify samples by charged model cost ("charged", deterministic) or
    #: wall-clock elapsed ("wall", faithful but noisy)
    timing: str = "charged"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "batch_size", "num_workers", "num_gpus", "slow_workers",
            "batch_builders", "queue_capacity", "warmup_samples",
        ):
            count(name, getattr(self, name))
        count("load_retries", self.load_retries, lo=0)
        count("seed", self.seed, lo=0)
        interval("timeout_percentile", self.timeout_percentile, 0, 100, "right")
        if not self.timeout_percentile <= self.fallback_percentile <= 100:
            raise ConfigurationError(
                "fallback_percentile must be in [timeout_percentile, 100], "
                f"got {self.fallback_percentile}"
            )
        interval("max_slow_fraction", self.max_slow_fraction, 0, 1, "right")
        if self.timeout_override is not None:
            # inf: no sample ever times out
            interval("timeout_override", self.timeout_override, 0, math.inf, "right")
        # the scheduler's constructor holds the contract of its six knobs
        WorkerScheduler(
            self.alpha,
            self.beta,
            self.cpu_threshold,
            self.delta_clip,
            self.min_workers,
            self.max_workers,
        )
        positive("poll_interval", self.poll_interval)
        positive("scheduler_interval", self.scheduler_interval)
        if self.timing not in ("charged", "wall"):
            raise ConfigurationError(
                f"timing must be 'charged' or 'wall', got {self.timing!r}"
            )

    @property
    def total_initial_workers(self) -> int:
        """Initial loading workers across all GPUs (paper: 12 per GPU)."""
        return min(self.num_workers * self.num_gpus, self.max_workers)
