"""The one stats record every loader reports (`LoaderStats`).

Every loader -- the threaded engine, the discrete-event models and the
baselines -- counts the same family of things, so there is one record for
all of them; each loader uses the fields it needs.  The record itself takes
no lock: the threaded chassis
(:class:`repro.core.loader.BaseConcurrentLoader`) keeps its live instance
behind one lock and hands out copies, and the simulator (single-threaded by
construction) updates a plain instance in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # annotations only: repro.core imports this package
    from ..core.profiler import ProfilerSnapshot
    from ..core.scheduler import SchedulerDecision

__all__ = ["LoaderStats"]


@dataclass
class LoaderStats:
    """Counters and scheduler/profiler state exposed for experiments and tests."""

    samples_fast: int = 0
    samples_timed_out: int = 0
    samples_preprocessed: int = 0
    batches_built: int = 0
    busy_seconds: float = 0.0
    background_busy_seconds: float = 0.0
    io_seconds: float = 0.0
    collate_seconds: float = 0.0
    load_retries: int = 0
    profiler: Optional[ProfilerSnapshot] = None
    worker_history: List[SchedulerDecision] = field(default_factory=list)
    current_workers: int = 0

    def add(self, **deltas: float) -> None:
        """Add each delta to its counter; an unknown name raises before any
        counter moves."""
        counters = vars(self)
        if not deltas.keys() <= counters.keys():
            raise ValueError(
                f"unknown counter(s): {sorted(deltas.keys() - counters.keys())}"
            )
        for name, delta in deltas.items():
            counters[name] += delta

    @property
    def slow_fraction(self) -> float:
        done = self.samples_preprocessed
        return self.samples_timed_out / done if done else 0.0
