"""Host-speed calibration: reference-speed seconds instead of raw ones.

The sandbox this benchmark runs in is a small VM on a shared host whose
effective speed drifts by up to 1.7x over minutes (measured: the same
simulation took 4.7 s, then 7.4 s half an hour later, CPU time and wall time
alike).  Raw host times from two sets of runs twenty minutes apart then differ
by more than any bound, on identical code.

So one fixed slice of interpreter work -- heap pushes and pops, dict stores,
generator resumption and attribute reads over a working set of a few MB, the
simulator's own diet, but none of this repository's code -- runs before the
warm-up and after every repetition.  Host-bound times of a run are multiplied
by ``REFERENCE_S / median(slices)``: seconds as they would read with the
host at the speed it had when the baseline was recorded.  A change to the
repository cannot move the slice, so the scaled metric moves only with the
code under test; over a 16-minute drift this cut the spread between runs
from 19 % to 10 % and the range of ten-run medians from 24 % to 10 %.
The record keeps every raw time and every slice.
"""

from __future__ import annotations

import statistics
import time
from heapq import heappop, heappush
from typing import List

__all__ = ["Calibration"]


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = float(key)


class Calibration:
    #: loop iterations of one slice
    ITERATIONS = 250_000
    #: duration of one slice on the sandbox at its usual (undisturbed) speed,
    #: when the baseline was recorded; slow spells read 0.5 to 0.6 s.  It fixes
    #: the unit and nothing else
    REFERENCE_S = 0.32

    def __init__(self) -> None:
        self._nodes = [_Node(i) for i in range(100_000)]
        self.slices: List[float] = []

    def slice(self) -> None:
        """Time one slice of fixed work."""
        nodes, count = self._nodes, len(self._nodes)
        heap: list = []
        table: dict = {}

        def accumulate():
            total = 0.0
            while True:
                node = yield total
                total += node.value

        sink = accumulate()
        next(sink)
        start = time.perf_counter()
        for i in range(self.ITERATIONS):
            node = nodes[(i * 7919) % count]
            heappush(heap, (node.key % 10007, i))
            if len(heap) > 512:
                heappop(heap)
            table[i & 65535] = node
            sink.send(node)
        self.slices.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Factor that turns this run's host seconds into reference seconds."""
        return self.REFERENCE_S / statistics.median(self.slices)
