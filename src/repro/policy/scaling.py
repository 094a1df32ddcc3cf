"""Substrate-neutral worker-pool control loop (paper §4.2-§4.3).

:class:`ScalingPolicy` owns Formulas 1-2 and nothing else, so the threaded
engine and the discrete-event simulator run the identical control law around
the :class:`~repro.core.scheduler.WorkerScheduler`: CPU-usage is derived
from busy-second deltas, decisions are appended to :attr:`history`, and
(when ``split_background`` is on) the new total is split between loading
workers and background slow-task workers by each path's observed share of
CPU work over the last interval, so heavy slow paths (e.g. Speech-10s) get a
proportionally larger background pool.

The substrate supplies only clock readings and counter values; everything
that constitutes a *decision* lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.scheduler import SchedulerDecision, WorkerScheduler

__all__ = ["ScalingPolicy", "ScalingAction"]


@dataclass(frozen=True)
class ScalingAction:
    """One control-loop step: the Formula 1-2 decision plus the pool split."""

    decision: SchedulerDecision
    total_workers: int
    loading_target: int
    #: None when the substrate keeps a fixed background pool
    background_target: Optional[int]


class ScalingPolicy:
    """Interval-driven wrapper around the worker scheduler."""

    def __init__(
        self,
        scheduler: WorkerScheduler,
        split_background: bool = False,
        min_background: int = 2,
        default_background_share: float = 0.25,
    ) -> None:
        self.scheduler = scheduler
        self.split_background = split_background
        self.min_background = min_background
        self.default_background_share = default_background_share
        self.history: List[SchedulerDecision] = []
        self._prev_busy = 0.0
        self._prev_background_busy = 0.0
        self._prev_time: Optional[float] = None

    # -- control loop -----------------------------------------------------------

    def reset(self, now: float) -> None:
        """Anchor the first observation interval at ``now``."""
        self._prev_time = now
        self._prev_busy = 0.0
        self._prev_background_busy = 0.0

    def observe(
        self,
        now: float,
        busy_seconds: float,
        queue_fill: float,
        workers: int,
        background_busy_seconds: float = 0.0,
        draining: bool = False,
    ) -> Optional[ScalingAction]:
        """Run one control-loop step.

        ``busy_seconds`` is the cumulative CPU-busy counter (all paths);
        ``workers`` the current pool size fed to Formula 1; ``draining``
        signals that only background work remains, in which case the split
        hands the whole budget to the background pool.  Returns None when no
        virtual time elapsed since the previous observation.
        """
        if self._prev_time is None:
            self.reset(now)
            return None
        interval = now - self._prev_time
        if interval <= 0:
            return None
        pool = max(1, workers)
        cpu_usage = min(1.0, (busy_seconds - self._prev_busy) / (pool * interval))
        decision = self.scheduler.decide(workers, queue_fill, cpu_usage)
        self.history.append(decision)
        total = decision.new_workers

        if not self.split_background:
            action = ScalingAction(
                decision=decision,
                total_workers=total,
                loading_target=total,
                background_target=None,
            )
        else:
            delta_busy = busy_seconds - self._prev_busy
            delta_background = background_busy_seconds - self._prev_background_busy
            share = (
                delta_background / delta_busy
                if delta_busy > 0
                else self.default_background_share
            )
            share = min(0.9, max(0.1, share))
            if draining:
                # only background work remains: give it the whole budget
                background, loading = total, 0
            else:
                # clamp *after* applying the floor: min_background may not
                # starve the loading path while loading work remains (at
                # total <= min_background the old order produced a negative
                # loading target), and neither path may lose its last
                # worker -- a hand-off blocked on a full temp queue waits
                # for a background worker forever.  The two floors meet at
                # total == 1, the one place the pools sum to total + 1.
                background = max(self.min_background, round(total * share))
                background = max(1, min(background, total - 1))
                loading = max(1, total - background)
            action = ScalingAction(
                decision=decision,
                total_workers=total,
                loading_target=loading,
                background_target=background,
            )

        self._prev_busy = busy_seconds
        self._prev_background_busy = background_busy_seconds
        self._prev_time = now
        return action
