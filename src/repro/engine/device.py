"""Simulated GPU devices for the concurrent engine.

A :class:`SimulatedGPU` serializes work through a lock and charges execution
time on the engine clock -- from the loader's perspective that is exactly
what a CUDA device is.  (The contention of GPU-offloaded preprocessing
with training, paper §3.5, is modelled by the simulator's DALI loader.)

Every execution is recorded as a tagged busy interval into an
:class:`~repro.engine.metrics.IntervalRecorder`, the columns the simulator's
holds fill too, from which exact utilization numbers and time series are
derived (no sampling noise).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..clock import Clock, RealClock
from .metrics import BusyInterval, IntervalRecorder

__all__ = ["SimulatedGPU"]


class SimulatedGPU:
    """A serially-executing accelerator with busy-interval accounting."""

    def __init__(self, index: int = 0, clock: Optional[Clock] = None, name: str = "") -> None:
        self.index = index
        self.clock = clock if clock is not None else RealClock()
        self.name = name or f"gpu{index}"
        self._lock = threading.Lock()
        #: the recorder takes no lock of its own; this one guards it
        self._intervals_lock = threading.Lock()
        self._recorder = IntervalRecorder(self.name)

    def execute(self, seconds: float, tag: str = "train") -> Tuple[float, float]:
        """Run ``seconds`` of work on the device (exclusive).

        Returns the (start, end) busy interval in clock time.  Callers queue
        on the device lock, so concurrent training and preprocessing work
        serializes exactly as on a real GPU stream.
        """
        if seconds < 0:
            raise ValueError(f"negative execution time: {seconds!r}")
        with self._lock:
            start = self.clock.now()
            self.clock.advance(seconds)
            end = self.clock.now()
        with self._intervals_lock:
            self._recorder.record(start, end, tag)
        return start, end

    @property
    def intervals(self) -> List[BusyInterval]:
        with self._intervals_lock:
            return self._recorder.intervals

    def busy_seconds(self, tag: Optional[str] = None) -> float:
        with self._intervals_lock:
            return self._recorder.busy_seconds(tag)

    def utilization(self, start: float, end: float, tag: Optional[str] = None) -> float:
        """Fraction of [start, end] the device spent busy."""
        with self._intervals_lock:
            return self._recorder.utilization(start, end, tag=tag)
