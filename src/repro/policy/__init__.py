"""Substrate-neutral loader policies (Algorithm 1, Formulas 1-2, §4).

This package is the single home of the paper's *decision logic*, shared by
every execution substrate -- the threaded engine (:mod:`repro.core.loader`),
the discrete-event models (:mod:`repro.sim.loaders`) and the baselines
(:mod:`repro.baselines`):

* :class:`RoutingPolicy` -- the per-sample fast/slow/handoff decision,
  covering both cooperative (transform-boundary) and preemptive
  (mid-transform, paper-faithful) timeout accounting;
* :class:`BatchConstructionPolicy` -- Algorithm 1's fast-preferring,
  slow-draining construction loop plus the strict-order
  :class:`ReorderBuffer` (paper §6);
* :class:`ScalingPolicy` -- the Formula 1-2 worker control loop around
  :class:`~repro.core.scheduler.WorkerScheduler`;
* :class:`LoaderStats` -- the one stats record every loader reports.

Everything here is deterministic and free of I/O, threads and virtual-time
machinery, which is what makes "one policy change, both substrates agree"
an invariant (see tests/test_cross_substrate.py) rather than a convention.
What a policy needs from its caller -- the time, a lock factory, put/get
callbacks -- it takes as a plain argument; starting threads or processes is
the loaders' business (:class:`repro.core.loader.BaseConcurrentLoader`,
``env.process``).
"""

from .construction import (
    FAST_KEY,
    SLOW_KEY,
    BatchConstructionPolicy,
    ReorderBuffer,
    deal_batch_plan,
    deal_quota,
    first_tick,
    index_stream,
)
from .routing import (
    CONTINUE,
    FINISH_FAST,
    FINISH_SLOW,
    HANDOFF,
    RoutingDecision,
    RoutingPolicy,
    SizeRouter,
)
from .scaling import ScalingAction, ScalingPolicy
from .stats import LoaderStats

__all__ = [
    "BatchConstructionPolicy",
    "ReorderBuffer",
    "deal_batch_plan",
    "deal_quota",
    "first_tick",
    "index_stream",
    "FAST_KEY",
    "SLOW_KEY",
    "RoutingPolicy",
    "RoutingDecision",
    "SizeRouter",
    "CONTINUE",
    "FINISH_FAST",
    "FINISH_SLOW",
    "HANDOFF",
    "ScalingPolicy",
    "ScalingAction",
    "LoaderStats",
]
