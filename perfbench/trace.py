"""Per-layer attribution from outside the program, plus coarse harness spans.

The tracer uses the interpreter's profile hook: one ``cProfile.Profile`` on
the calling thread and one more per thread started while it is active
(installed through ``threading.setprofile``).  Profile entries are bucketed
by defining module into this repository's layers:

* ``calls``  -- calls into the layer's Python functions;
* ``self_s`` -- time in the layer's own frames plus the built-ins they call
  directly (children excluded), so a layer that spends its time in
  ``heappush`` is charged for it;
* ``wait_s`` -- time blocked in ``time.sleep`` and lock / condition / queue
  waits entered from the layer; never part of ``self_s``.

Code outside the layers lands in ``other`` (Python frames: stdlib, numpy, the
harness itself) and ``builtin`` (built-ins called from such frames).  On a
single-threaded run the ``self_s`` of all buckets sums to the traced wall
time.  With threads, a frame's time includes its waits for the interpreter
lock, so the buckets sum to thread-seconds, not to wall time.

Tracing costs a multiple of the untraced run (see ``perfbench.trace_overhead_x``);
end-to-end numbers are never taken from a traced repetition.
"""

from __future__ import annotations

import cProfile
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["LAYERS", "WAIT_LAYERS", "BUCKETS", "LayerTracer", "Spans", "layer_of"]

#: the system (threaded loader and what it is built from) ...
SYSTEM_LAYERS = (
    "core.loader", "core.queues", "core.balancer", "core.profiler",
    "core.scheduler", "policy.construction", "policy.routing",
    "policy.scaling", "policy.stats", "clock", "engine.trainer",
    "data.dataset", "data.samplers", "data.storage", "transforms",
)
#: ... and the instrument (the simulator and its statistics)
INSTRUMENT_LAYERS = (
    "sim.kernel", "sim.stores", "sim.resources", "sim.links", "sim.topology",
    "sim.fabric", "sim.cluster", "sim.distributed", "sim.scenarios",
    "sim.checkpoint", "sim.loaders", "sim.runner", "engine.metrics",
)
LAYERS = SYSTEM_LAYERS + INSTRUMENT_LAYERS
#: layers whose blocking time is reported
WAIT_LAYERS = ("clock", "core.queues", "core.loader", "engine.trainer")
BUCKETS = LAYERS + ("builtin", "other")

#: repro modules that no layer is named after, folded into the layer they serve
_FOLDED = {
    "core.batching": "core.loader",
    "core.config": "core.loader",
    "policy.substrate": "core.loader",
    "data.sample": "data.dataset",
    "data.synthetic": "data.dataset",
    "engine.device": "engine.trainer",
    "engine.models": "engine.trainer",
    "sim.workloads": "sim.runner",
}

_BLOCKING_BUILTINS = (
    "<built-in method time.sleep>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<method '__enter__' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<method '__enter__' of '_thread.RLock' objects>",
)
#: stdlib Python functions that exist to block: (file name, function name)
_BLOCKING_FUNCTIONS = {
    ("threading.py", "wait"),
    ("threading.py", "join"),
    ("queue.py", "get"),
    ("queue.py", "put"),
}


def layer_of(filename: str) -> str:
    """The bucket a Python source file belongs to."""
    at = filename.rfind("/repro/")
    if at < 0 or not filename.endswith(".py"):
        return "other"
    module = filename[at + len("/repro/"):-len(".py")].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    if module.startswith("transforms"):
        return "transforms"
    module = _FOLDED.get(module, module)
    return module if module in LAYERS else "other"


def _is_blocking(code) -> bool:
    if isinstance(code, str):
        return code in _BLOCKING_BUILTINS
    filename = code.co_filename.rsplit("/", 1)[-1]
    return (filename, code.co_name) in _BLOCKING_FUNCTIONS


class LayerTracer:
    """Context manager: profile every thread, then bucket by layer."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self.wall_s = 0.0

    def _profile_thread(self, frame, event, arg) -> None:
        # first profile event of a new thread: swap this Python hook for a
        # C profiler owned by the thread
        profile = cProfile.Profile()
        with self._lock:
            self._threads.append(profile)
        profile.enable()

    def __enter__(self) -> "LayerTracer":
        threading.setprofile(self._profile_thread)
        self._start = time.perf_counter()
        self._main.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._main.disable()
        self.wall_s = time.perf_counter() - self._start
        threading.setprofile(None)

    def _entries(self) -> Iterator:
        """Profile entries of every thread.

        Use after the traced threads have ended: ``disable()`` closes the
        frames a thread left open, which is not safe while it still runs.
        """
        for profile in [self._main] + self._threads:
            profile.disable()
            yield from profile.getstats()

    def calls_to(self, file_suffix: str, function: str) -> int:
        """Calls of one Python function, over every thread."""
        return sum(
            entry.callcount
            for entry in self._entries()
            if not isinstance(entry.code, str)
            and entry.code.co_name == function
            and entry.code.co_filename.endswith(file_suffix)
        )

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{bucket: {"calls", "self_s", "wait_s"}}`` over every thread."""
        table = {b: {"calls": 0, "self_s": 0.0, "wait_s": 0.0} for b in BUCKETS}
        cache: Dict[str, str] = {}
        for entry in self._entries():
            code = entry.code
            if isinstance(code, str):
                # built-ins are charged to their caller below; one with
                # no caller ran at the top of the profile
                continue
            bucket = cache.get(code.co_filename)
            if bucket is None:
                bucket = cache[code.co_filename] = layer_of(code.co_filename)
            row = table[bucket]
            row["calls"] += entry.callcount
            row["self_s"] += entry.inlinetime
            for sub in entry.calls or ():
                if _is_blocking(sub.code):
                    row["wait_s"] += sub.totaltime
                elif isinstance(sub.code, str):
                    target = table["builtin"] if bucket == "other" else row
                    target["self_s"] += sub.inlinetime
        return table


class Spans:
    """Coarse spans the harness brackets itself: name, start, end, parent.

    Kept in memory; :meth:`write_chrome_trace` dumps them for
    ``chrome://tracing`` / Perfetto when the benchmark ends.
    """

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._open: List[int] = []
        self._lock = threading.Lock()

    def current(self) -> Optional[int]:
        """Id of the innermost span open on the harness thread."""
        return self._open[-1] if self._open else None

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> int:
        """Record a finished span (safe from any thread)."""
        with self._lock:
            self.rows.append(
                {"name": name, "start": start, "end": end, "parent": parent,
                 "thread": threading.current_thread().name}
            )
            return len(self.rows) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a region on the harness thread; nests."""
        with self._lock:
            self.rows.append(
                {"name": name, "start": time.perf_counter(), "end": None,
                 "parent": self.current(), "thread": threading.current_thread().name}
            )
            index = len(self.rows) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.rows[index]["end"] = time.perf_counter()

    def write_chrome_trace(self, path: str) -> None:
        origin = min((r["start"] for r in self.rows), default=0.0)
        threads = {name: i for i, name in enumerate(sorted({r["thread"] for r in self.rows}))}
        events = [
            {
                "name": r["name"], "ph": "X", "pid": 1, "tid": threads[r["thread"]],
                "ts": (r["start"] - origin) * 1e6,
                "dur": ((r["end"] or r["start"]) - r["start"]) * 1e6,
                "args": {"id": i, "parent": r["parent"]},
            }
            for i, r in enumerate(self.rows)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
