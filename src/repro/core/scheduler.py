"""Adaptive CPU-worker scheduler (paper §4.3, Formulas 1-2).

The number of loading workers follows::

    workers = min(max_workers, max(min_workers, workers' + delta))      (1)
    delta   = alpha * (1 - Q_size / Q_max) + beta * (C_usage - theta_c) (2)

with ``delta`` clipped to a small integer range (the paper uses [-2, +2]).
Intuition: near-empty batch queues and/or high CPU utilization indicate a
CPU-side bottleneck -> add workers; full queues with idle CPUs indicate
over-provisioning -> remove workers.

:class:`WorkerScheduler` is the pure decision function (unit-testable in
isolation); the loader owns the monitoring thread that feeds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import count, finite, interval
from ..errors import ConfigurationError

__all__ = ["WorkerScheduler", "SchedulerDecision"]


@dataclass(frozen=True)
class SchedulerDecision:
    """One scheduler step: inputs, raw delta and the resulting worker count."""

    previous_workers: int
    queue_fill: float
    cpu_usage: float
    raw_delta: float
    clipped_delta: int
    new_workers: int


class WorkerScheduler:
    """Pure implementation of Formulas 1-2."""

    def __init__(
        self,
        alpha: float = 2.0,
        beta: float = 2.0,
        cpu_threshold: float = 0.7,
        delta_clip: int = 2,
        min_workers: int = 1,
        max_workers: int = 128,
    ) -> None:
        count("delta_clip", delta_clip)
        finite("alpha", alpha)
        finite("beta", beta)
        interval("cpu_threshold", cpu_threshold, 0, 1, "neither")
        count("min_workers", min_workers)
        count("max_workers", max_workers)
        if not min_workers <= max_workers:
            raise ConfigurationError(
                f"need 1 <= min_workers <= max_workers, got {min_workers}..{max_workers}"
            )
        self.alpha = alpha
        self.beta = beta
        self.cpu_threshold = cpu_threshold
        self.delta_clip = delta_clip
        self.min_workers = min_workers
        self.max_workers = max_workers

    def decide(
        self, workers: int, queue_fill: float, cpu_usage: float
    ) -> SchedulerDecision:
        """Compute the next worker count.

        ``queue_fill`` is the moving-average batch-queue occupancy normalized
        to [0, 1] (``Q_size / Q_max``); ``cpu_usage`` is normalized CPU
        utilization in [0, 1].
        """
        queue_fill = min(max(queue_fill, 0.0), 1.0)
        cpu_usage = min(max(cpu_usage, 0.0), 1.0)
        raw_delta = self.alpha * (1.0 - queue_fill) + self.beta * (
            cpu_usage - self.cpu_threshold
        )
        clipped = int(round(raw_delta))
        clipped = max(-self.delta_clip, min(self.delta_clip, clipped))
        new_workers = min(self.max_workers, max(self.min_workers, workers + clipped))
        return SchedulerDecision(
            previous_workers=workers,
            queue_fill=queue_fill,
            cpu_usage=cpu_usage,
            raw_delta=raw_delta,
            clipped_delta=clipped,
            new_workers=new_workers,
        )
