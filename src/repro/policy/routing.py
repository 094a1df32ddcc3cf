"""Substrate-neutral fast/slow routing (paper §4.2, Algorithm 1).

This module is the single home of the classification rule that decides, per
sample, whether preprocessing stays on the critical path (*fast*), finishes
inline but still counts as slow (*slow-complete*), or is handed off to a
background slow-task worker (*handoff*).  Both execution substrates consult
it:

* the threaded engine's :class:`~repro.core.balancer.LoadBalancer` calls
  :meth:`RoutingPolicy.after_stage` after every transform it applies
  (cooperative accounting: a Python thread cannot be preempted, so the
  in-flight transform always runs to completion and the handoff happens at
  the next transform boundary);
* the discrete-event :class:`~repro.sim.loaders.SimMinatoLoader` calls
  :meth:`RoutingPolicy.plan` on a sample's cost profile up front (preemptive
  accounting: the paper's timeout fires mid-transform, the partial work is
  discarded and the transform re-executes fully in the background, with a
  small grace window in which finishing inline is cheaper than re-running).

Both modes share one boundary rule (``elapsed <= budget`` stays fast), so a
sample is *flagged* slow under cooperative accounting exactly when it is
flagged under preemptive accounting -- the substrates agree on routing
decisions by construction, and :meth:`plan` differs only in how much of the
work is charged inline.

:class:`SizeRouter` is the paper §3.2 baseline heuristic that *predicts*
slow samples from raw size instead of measuring elapsed time (Fig. 3a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence, Tuple

from ..contracts import nonnegative

__all__ = [
    "RoutingPolicy",
    "RoutingDecision",
    "SizeRouter",
    "CONTINUE",
    "FINISH_FAST",
    "FINISH_SLOW",
    "HANDOFF",
]

#: verdicts of :meth:`RoutingPolicy.after_stage`
CONTINUE = "continue"
FINISH_FAST = "fast"
FINISH_SLOW = "slow_complete"
HANDOFF = "handoff"


@dataclass(frozen=True)
class RoutingDecision:
    """Full routing plan for one sample's cost profile.

    ``inline_chunks`` are the CPU charges to execute on the critical path, in
    order (under preemptive accounting the last chunk may be the partial
    slack of a discarded transform).  ``handoff_index`` is the transform at
    which the background worker (re)starts, or ``None`` when the sample
    completed inline.
    """

    status: str  # FINISH_FAST | FINISH_SLOW | HANDOFF
    flagged_slow: bool
    handoff_index: Optional[int]
    inline_chunks: Tuple[float, ...]
    total_seconds: float

    @property
    def inline_seconds(self) -> float:
        return sum(self.inline_chunks)

    @property
    def background_seconds(self) -> float:
        """CPU the background worker will charge (0 when not handed off)."""
        return 0.0 if self.status != HANDOFF else self.total_seconds - sum(
            self.inline_chunks[: self.handoff_index or 0]
        )


class RoutingPolicy:
    """Algorithm 1's per-sample fast/slow decision rule.

    ``preemptive=False`` models cooperative (transform-boundary) accounting;
    ``preemptive=True`` models the paper's mid-transform preemption with a
    grace window of ``max(grace_abs, grace_rel * stage_cost)`` seconds within
    which the in-flight transform is allowed to finish inline.
    """

    def __init__(
        self,
        preemptive: bool = False,
        grace_abs: float = 0.0,
        grace_rel: float = 0.0,
    ) -> None:
        self.preemptive = preemptive
        self.grace_abs = nonnegative("grace_abs", grace_abs)
        self.grace_rel = nonnegative("grace_rel", grace_rel)

    # -- incremental interface (threaded substrate) ---------------------------

    @staticmethod
    def after_stage(
        elapsed: float, index: int, n_stages: int, budget: float
    ) -> str:
        """Verdict after stage ``index`` of ``n_stages`` completed.

        The boundary rule: a sample whose elapsed time is *within* the budget
        (``elapsed <= budget``, boundary inclusive) keeps its fast status.
        Once over budget it is flagged slow -- handed off if transforms
        remain, or delivered slow-complete after the final transform.
        """
        if elapsed <= budget:
            return CONTINUE if index < n_stages - 1 else FINISH_FAST
        return HANDOFF if index < n_stages - 1 else FINISH_SLOW

    # -- plan interface (simulation substrate) --------------------------------

    def plan(self, profile: Sequence[float], budget: float) -> RoutingDecision:
        """Route one sample given its per-transform cost profile.

        Costs are ``>= 0`` (:meth:`~repro.transforms.base.Pipeline.walk`
        refuses any other), so no prefix of the profile exceeds its total:
        a sample whose total is within budget finishes fast at every stage,
        and is routed without the stage loop.  The total compared is the
        loop's own left-to-right sum (``sum`` of floats is compensated from
        Python 3.12 and may differ in the last bit)."""
        total = float(sum(profile))
        if total != total:  # every `<= budget` below is false for a NaN cost
            raise ValueError(f"NaN cost in profile {list(profile)!r}")
        if reduce(add, profile, 0.0) <= budget:
            return RoutingDecision(
                status=FINISH_FAST,
                flagged_slow=False,
                handoff_index=None,
                inline_chunks=tuple(profile),
                total_seconds=total,
            )
        if self.preemptive:
            return self._plan_preemptive(profile, budget, total)
        return self._plan_cooperative(profile, budget, total)

    def _plan_cooperative(
        self, profile: Sequence[float], budget: float, total: float
    ) -> RoutingDecision:
        elapsed = 0.0
        n = len(profile)
        for i, cost in enumerate(profile):
            elapsed += cost
            verdict = self.after_stage(elapsed, i, n, budget)
            if verdict == CONTINUE:
                continue
            if verdict == HANDOFF:
                return RoutingDecision(
                    status=HANDOFF,
                    flagged_slow=True,
                    handoff_index=i + 1,
                    inline_chunks=tuple(profile[: i + 1]),
                    total_seconds=total,
                )
            return RoutingDecision(
                status=verdict,
                flagged_slow=verdict == FINISH_SLOW,
                handoff_index=None,
                inline_chunks=tuple(profile),
                total_seconds=total,
            )
        # empty profile: trivially fast
        return RoutingDecision(
            status=FINISH_FAST,
            flagged_slow=False,
            handoff_index=None,
            inline_chunks=(),
            total_seconds=total,
        )

    def _plan_preemptive(
        self, profile: Sequence[float], budget: float, total: float
    ) -> RoutingDecision:
        elapsed = 0.0
        chunks = []
        for i, cost in enumerate(profile):
            overshoot = elapsed + cost - budget
            if overshoot <= 0:
                chunks.append(cost)
                elapsed += cost
                continue
            grace = max(self.grace_abs, self.grace_rel * cost)
            if overshoot <= grace:
                # Within the monitoring granularity: finishing the in-flight
                # transform is cheaper than re-executing it in the
                # background.  The sample is still flagged slow; remaining
                # transforms (if any) run off the critical path.
                chunks.append(cost)
                if i + 1 < len(profile):
                    return RoutingDecision(
                        status=HANDOFF,
                        flagged_slow=True,
                        handoff_index=i + 1,
                        inline_chunks=tuple(chunks),
                        total_seconds=total,
                    )
                return RoutingDecision(
                    status=FINISH_SLOW,
                    flagged_slow=True,
                    handoff_index=None,
                    inline_chunks=tuple(chunks),
                    total_seconds=total,
                )
            # The timeout fires mid-transform: consume the remaining budget,
            # discard the partial work, and hand the sample over at transform
            # ``i`` -- it re-executes fully in the background (the paper's
            # preemptive accounting).
            slack = max(0.0, budget - elapsed)
            if slack > 0:
                chunks.append(slack)
            return RoutingDecision(
                status=HANDOFF,
                flagged_slow=True,
                handoff_index=i,
                inline_chunks=tuple(chunks),
                total_seconds=total,
            )
        return RoutingDecision(
            status=FINISH_FAST,
            flagged_slow=False,
            handoff_index=None,
            inline_chunks=tuple(chunks),
            total_seconds=total,
        )


class SizeRouter:
    """Paper §3.2's image-size heuristic: predict slow from raw bytes.

    Samples whose raw size exceeds the threshold are deferred to the
    background *before* preprocessing; everything else runs inline with no
    timeout, so a misprediction (small-but-slow sample) stalls the fast
    path -- the failure mode Fig. 3a demonstrates.
    """

    def __init__(self, threshold_bytes: float) -> None:
        self.threshold_bytes = float(threshold_bytes)

    @classmethod
    def from_dataset(cls, dataset, percentile: float = 75.0) -> "SizeRouter":
        """Threshold at the dataset's size percentile (default P75)."""
        import numpy as np

        sizes = [dataset.spec(i).raw_nbytes for i in range(len(dataset))]
        return cls(float(np.percentile(sizes, percentile)))

    def is_slow(self, raw_nbytes: float) -> bool:
        return raw_nbytes > self.threshold_bytes

    def plan(self, profile: Sequence[float], raw_nbytes: float) -> RoutingDecision:
        """Route one sample from its raw size alone: predicted slow, the
        whole pipeline is handed off before any of it runs; predicted fast,
        all of it runs inline with no timeout."""
        slow = self.is_slow(raw_nbytes)
        return RoutingDecision(
            status=HANDOFF if slow else FINISH_FAST,
            flagged_slow=slow,
            handoff_index=0 if slow else None,
            inline_chunks=() if slow else tuple(profile),
            total_seconds=float(sum(profile)),
        )
