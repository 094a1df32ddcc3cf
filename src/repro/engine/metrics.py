"""Exact (interval-accounting) utilization and throughput metrics.

The paper samples ``nvidia-smi`` and ``dstat``; this reproduction records
busy intervals and aggregates them, which yields the same averages and time
series without sampling noise.

A simulated run records tens of thousands of holds and reads few or none of
them back, so :class:`IntervalRecorder` keeps its intervals as three columns
(starts, ends, tags) rather than one object each: recording is three
appends, :meth:`IntervalRecorder.utilization` reads the columns in place,
and :class:`BusyInterval` objects are built only when someone asks for
:attr:`IntervalRecorder.intervals`.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter, eq
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "BusyInterval",
    "ExactSum",
    "ExactSums",
    "IntervalRecorder",
    "utilization_series",
    "average_utilization",
    "ThroughputMeter",
]


#: one unit of :class:`ExactSum`: 2**-1074, the spacing of the subnormals,
#: of which every finite double is a whole number
_UNITS_PER_ONE = 1 << 1074


class ExactSum:
    """A sum of floats that does not depend on the order of its addends,
    as one summed in callback order does on how same-instant ties broke.

    It is an int counted in units of 2**-1074, so every add is exact, and
    ``float()`` reads it with one correctly rounded division: the value
    ``math.fsum`` gives for the same addends (Shewchuk 1997), in any
    order.  A non-finite addend is refused (``as_integer_ratio`` raises).
    """

    __slots__ = ("_units",)

    def __init__(self) -> None:
        self._units = 0

    def add(self, x: float, times: int = 1) -> None:
        """Add ``x`` ``times`` times: exactly ``times`` calls of ``add(x)``."""
        numerator, denominator = x.as_integer_ratio()
        self._units += numerator * times << (1075 - denominator.bit_length())

    def __float__(self) -> float:
        return self._units / _UNITS_PER_ONE


class ExactSums(Mapping):
    """One :class:`ExactSum` per key, read as a mapping of floats: a
    ``{traffic class: seconds}`` wait sink, say."""

    __slots__ = ("_sums",)

    def __init__(self) -> None:
        self._sums: Dict[Hashable, ExactSum] = {}

    def add(self, key: Hashable, x: float, times: int = 1) -> None:
        total = self._sums.get(key)
        if total is None:
            total = self._sums[key] = ExactSum()
        total.add(x, times)

    def __getitem__(self, key: Hashable) -> float:
        return float(self._sums[key])

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._sums)

    def __len__(self) -> int:
        return len(self._sums)


@dataclass(frozen=True)
class BusyInterval:
    start: float
    end: float
    tag: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class IntervalRecorder:
    """Busy-interval columns for one resource (CPU cores, a GPU).

    Not thread-safe, and it takes no lock: the single-threaded event kernel
    records the simulator's core and GPU holds into it, and the threaded
    engine's :class:`~repro.engine.device.SimulatedGPU` records under a lock
    of its own.
    """

    __slots__ = ("name", "_starts", "_ends", "_tags")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._starts = array("d")
        self._ends = array("d")
        self._tags: List[str] = []

    def record(self, start: float, end: float, tag: str = "busy") -> None:
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self._starts.append(start)
        self._ends.append(end)
        self._tags.append(tag)

    @property
    def intervals(self) -> List[BusyInterval]:
        """The recorded intervals in record order, built on demand."""
        return [
            BusyInterval(start=s, end=e, tag=t)
            for s, e, t in zip(self._starts, self._ends, self._tags)
        ]

    def busy_seconds(self, tag: Optional[str] = None) -> float:
        """Summed length of the intervals recorded as ``tag`` (all of them
        when None)."""
        return sum(e - s for s, e in self._spans(tag))

    def utilization(
        self,
        start: float,
        end: float,
        capacity: float = 1.0,
        tag: Optional[str] = None,
    ) -> float:
        """:func:`average_utilization` of the intervals recorded as ``tag``
        (all of them when None), read off the columns in record order."""
        return _clipped_utilization(self._spans(tag), start, end, capacity)

    def _spans(self, tag: Optional[str]) -> Iterable[Tuple[float, float]]:
        """``(start, end)`` of the intervals recorded as ``tag`` (all of them
        when None), in record order."""
        spans = zip(self._starts, self._ends)
        if tag is not None:
            spans = compress(spans, map(eq, self._tags, repeat(tag)))
        return spans


def _clipped_utilization(
    spans: Iterable[Tuple[float, float]],
    start: float,
    end: float,
    capacity: float,
) -> float:
    """The one copy of the clipping arithmetic: ``(lo, hi)`` spans clipped
    to [start, end] and summed in order, over ``capacity`` units."""
    if end <= start or capacity <= 0:
        return 0.0
    busy = 0.0
    for lo, hi in spans:
        lo = max(start, lo)
        hi = min(end, hi)
        if hi > lo:
            busy += hi - lo
    return min(1.0, busy / ((end - start) * capacity))


def average_utilization(
    intervals: Iterable[BusyInterval],
    start: float,
    end: float,
    capacity: float = 1.0,
) -> float:
    """Mean busy fraction over [start, end] for a resource of ``capacity``
    parallel units (e.g. CPU cores)."""
    return _clipped_utilization(
        map(attrgetter("start", "end"), intervals), start, end, capacity
    )


def utilization_series(
    intervals: Iterable[BusyInterval],
    start: float,
    end: float,
    bucket: float = 1.0,
    capacity: float = 1.0,
) -> List[Tuple[float, float]]:
    """Per-bucket busy fraction: the data behind the paper's usage plots."""
    if bucket <= 0:
        raise ValueError(f"bucket must be positive, got {bucket!r}")
    if end <= start:
        return []
    n = int((end - start) / bucket) + 1
    busy = [0.0] * n
    for interval in intervals:
        lo = max(start, interval.start)
        hi = min(end, interval.end)
        if hi <= lo:
            continue
        first = int((lo - start) / bucket)
        last = min(n - 1, int((hi - start) / bucket))
        for i in range(first, last + 1):
            b_lo = max(lo, start + i * bucket)
            b_hi = min(hi, start + (i + 1) * bucket)
            if b_hi > b_lo:
                busy[i] += b_hi - b_lo
    return [
        (start + i * bucket, min(1.0, b / (bucket * capacity))) for i, b in enumerate(busy)
    ]


@dataclass
class ThroughputMeter:
    """Cumulative trained-bytes meter (the paper's MB/s model throughput)."""

    events: List[Tuple[float, int]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, t: float, nbytes: int) -> None:
        with self._lock:
            self.events.append((t, nbytes))

    def total_bytes(self) -> int:
        with self._lock:
            return sum(n for _t, n in self.events)

    def series(self, bucket: float = 1.0) -> List[Tuple[float, float]]:
        """(t, bytes/s) aggregated in buckets."""
        if bucket <= 0:
            raise ValueError(f"bucket must be positive, got {bucket!r}")
        with self._lock:
            events = sorted(self.events)
        if not events:
            return []
        horizon = events[-1][0]
        n = int(horizon / bucket) + 1
        volume = [0.0] * n
        for t, nbytes in events:
            volume[min(n - 1, int(t / bucket))] += nbytes
        return [(i * bucket, v / bucket) for i, v in enumerate(volume)]

    def average_rate(self, start: float, end: float) -> float:
        """Mean bytes/s over [start, end]."""
        if end <= start:
            return 0.0
        with self._lock:
            total = sum(n for t, n in self.events if start <= t <= end)
        return total / (end - start)
