"""Warm-up and online profiling of per-sample preprocessing times (paper §4.2).

MinatoLoader starts optimistic -- every sample is assumed fast -- while the
profiler gathers per-sample total preprocessing times.  After
``warmup_samples`` observations the timeout activates at the configured
percentile (P75 by default: "moving only the 25% slowest samples to the temp
queue").  Profiling continues in the background over a sliding window, so the
threshold tracks workload drift; if too many recent samples get flagged slow
(a skewed distribution), the profiler automatically falls back to the higher
percentile (P90 by default).

The window's order statistics are kept incrementally: beside the arrival-order
deque the same durations live in a sorted list (``insort`` on record,
``bisect_left`` + ``del`` on eviction) with a running count of slow flags, so
recomputing the timeout reads two neighbours and interpolates.  The value is
pinned to ``numpy.percentile(window, q)`` bit for bit -- :func:`_percentile` is
numpy's own ``linear`` method, carried by its ``method=`` API since 1.22 --
because :mod:`repro.sim.loaders` runs this class too and every simulated
digest depends on the timeout sequence (``tests/test_profiler_exactness.py``
holds the numpy-calling body as the specification).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..contracts import count, interval

__all__ = ["TimeoutProfiler", "ProfilerSnapshot"]


@dataclass(frozen=True)
class ProfilerSnapshot:
    """Point-in-time view of the profiler state."""

    observations: int
    in_warmup: bool
    timeout: float
    active_percentile: float
    recent_slow_fraction: float
    mean_seconds: float
    p75_seconds: float
    p90_seconds: float


def _percentile(ordered: List[float], q: float) -> float:
    """``numpy.percentile(ordered, q)`` of an ascending, non-empty list: numpy's
    ``linear`` method, operation for operation."""
    last = len(ordered) - 1
    virtual_index = last * (q / 100)
    below = math.floor(virtual_index)
    if below >= last:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = virtual_index - below
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


class TimeoutProfiler:
    """Thread-safe percentile tracker deciding the fast/slow timeout."""

    def __init__(
        self,
        percentile: float = 75.0,
        fallback_percentile: float = 90.0,
        warmup_samples: int = 64,
        window: int = 1024,
        max_slow_fraction: float = 0.40,
        override: Optional[float] = None,
    ) -> None:
        interval("percentile", percentile, 0, 100, "right")
        interval("fallback_percentile", fallback_percentile, percentile, 100)
        count("warmup_samples", warmup_samples)
        count("window", window, lo=8)
        interval("max_slow_fraction", max_slow_fraction, 0, 1, "right")
        if override is not None:  # inf: no sample ever times out
            interval("override", override, 0, math.inf, "right")
        self._percentile = percentile
        self._fallback = fallback_percentile
        self._warmup_samples = warmup_samples
        self._max_slow_fraction = max_slow_fraction
        self._override = override
        self._times: deque = deque(maxlen=window)
        self._flags: deque = deque(maxlen=window)
        #: the durations in ``_times``, ascending; slow flags set in ``_flags``
        self._ordered: List[float] = []
        self._slow_count = 0
        self._count = 0
        self._lock = threading.Lock()
        self._cached_timeout = math.inf
        self._dirty = True
        self._using_fallback = False
        #: recompute the percentile at most every this many new records
        #: (a percentile over a 1024-deep window moves negligibly per sample)
        self._recompute_every = 16
        self._records_since_recompute = 0

    @property
    def observations(self) -> int:
        return self._count

    @property
    def in_warmup(self) -> bool:
        return self._count < self._warmup_samples

    @property
    def active_percentile(self) -> float:
        return self._fallback if self._using_fallback else self._percentile

    def record(self, seconds: float, flagged_slow: bool = False) -> None:
        """Record one completed sample's total preprocessing time."""
        # a NaN would break the sorted window's ordering, an inf its interpolation
        if not 0 <= seconds < math.inf:
            raise ValueError(f"negative or non-finite duration: {seconds!r}")
        seconds = float(seconds)
        flagged_slow = bool(flagged_slow)
        with self._lock:
            times, ordered = self._times, self._ordered
            if len(times) == times.maxlen:  # full: the appends below evict
                del ordered[bisect_left(ordered, times[0])]
                self._slow_count -= self._flags[0]
            times.append(seconds)
            self._flags.append(flagged_slow)
            insort(ordered, seconds)
            self._slow_count += flagged_slow
            self._count += 1
            self._records_since_recompute += 1
            if (
                self._records_since_recompute >= self._recompute_every
                or self._cached_timeout is math.inf
            ):
                self._dirty = True

    def recent_slow_fraction(self) -> float:
        with self._lock:
            return self._slow_fraction_locked()

    def _slow_fraction_locked(self) -> float:
        return self._slow_count / len(self._flags) if self._flags else 0.0

    def timeout(self) -> float:
        """Current slow-sample timeout in seconds (inf during warm-up)."""
        if self._override is not None:
            return self._override
        with self._lock:
            if self._count < self._warmup_samples:
                return math.inf
            if self._dirty:
                self._recompute_locked()
            return self._cached_timeout

    def _recompute_locked(self) -> None:
        slow_fraction = self._slow_fraction_locked()
        # Fall back to the higher percentile if the current threshold is
        # flagging too much of the stream as slow (paper §4.2); recover once
        # the flagged fraction drops well below the limit.
        if slow_fraction > self._max_slow_fraction:
            self._using_fallback = True
        elif slow_fraction < self._max_slow_fraction / 2:
            self._using_fallback = False
        percentile = self._fallback if self._using_fallback else self._percentile
        self._cached_timeout = _percentile(self._ordered, percentile)
        self._dirty = False
        self._records_since_recompute = 0

    def snapshot(self) -> ProfilerSnapshot:
        with self._lock:
            times = np.fromiter(self._times, dtype=float) if self._times else None
            slow_fraction = self._slow_fraction_locked()
            in_warmup = self._count < self._warmup_samples
            if times is None or in_warmup and self._override is None:
                timeout = self._override if self._override is not None else math.inf
            else:
                if self._dirty:
                    self._recompute_locked()
                timeout = (
                    self._override if self._override is not None else self._cached_timeout
                )
            return ProfilerSnapshot(
                observations=self._count,
                in_warmup=in_warmup,
                timeout=timeout,
                active_percentile=self.active_percentile,
                recent_slow_fraction=slow_fraction,
                mean_seconds=float(times.mean()) if times is not None and times.size else 0.0,
                p75_seconds=float(np.percentile(times, 75)) if times is not None and times.size else 0.0,
                p90_seconds=float(np.percentile(times, 90)) if times is not None and times.size else 0.0,
            )
