"""The sample-aware load balancer (paper §4.2, Algorithm 1).

Given a sample and the transform pipeline, the balancer applies transforms
sequentially while watching the elapsed preprocessing time.  Within budget:
the sample goes to the *fast* path.  Budget exceeded: preprocessing stops at
the current transform boundary and the partially-processed sample is handed
to the *temp* path together with its resume index, to be finished by a
background slow-task worker and enqueued on the *slow* path.

The decision rule itself lives in the substrate-neutral
:class:`~repro.policy.routing.RoutingPolicy`; this class is the *threaded
executor* that applies real transforms and consults the policy after every
stage.

Fidelity note: the paper interrupts the transformation mid-flight and
re-executes it in the background.  Python threads cannot be preempted, so
this substrate runs the policy in cooperative mode -- the budget is checked
*between* transforms and the partially applied state is therefore always
valid, with the resume index pointing at the next transform.  (The
discrete-event model in :mod:`repro.sim.loaders` runs the same policy in
preemptive mode, discarding in-flight work.)  Which samples get *flagged*
slow is identical under both modes; see DESIGN.md.

Timing source: ``timing='charged'`` measures a sample's elapsed time as the
sum of modelled transform costs (deterministic, independent of Python
overhead); ``timing='wall'`` uses the clock, as the real system would.
Under charged timing nothing here reads the clock, so a context with an open
run (:meth:`~repro.transforms.base.WorkContext.open_run`) keeps holding its
charges and the caller settles the whole run at once; under wall timing the
balancer settles the run before its first clock read, so every stage's
charge is on the clock before the read that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clock import Clock
from ..data.sample import Sample
from ..policy.routing import FINISH_FAST, FINISH_SLOW, HANDOFF, RoutingPolicy
from ..transforms.base import Pipeline, WorkContext

__all__ = ["BalanceOutcome", "LoadBalancer"]

FAST = "fast"
TIMEOUT = "timeout"


@dataclass
class BalanceOutcome:
    """Result of pushing one sample through the balancer."""

    status: str  # FAST or TIMEOUT
    sample: Sample
    elapsed_seconds: float
    resume_index: Optional[int] = None  # set when status == TIMEOUT

    @property
    def timed_out(self) -> bool:
        return self.status == TIMEOUT


class LoadBalancer:
    """Threaded executor of Algorithm 1's per-sample classification loop."""

    def __init__(
        self,
        pipeline: Pipeline,
        clock: Clock,
        timing: str = "charged",
        routing: Optional[RoutingPolicy] = None,
    ) -> None:
        if timing not in ("charged", "wall"):
            raise ValueError(f"timing must be 'charged' or 'wall', got {timing!r}")
        self.pipeline = pipeline
        self.clock = clock
        self.timing = timing
        self.routing = routing if routing is not None else RoutingPolicy()

    def process(
        self, sample: Sample, ctx: WorkContext, timeout_seconds: float
    ) -> BalanceOutcome:
        """Apply transforms until done or the timeout budget is exceeded."""
        wall = self.timing == "wall"
        if wall:
            ctx.settle()
            start = self.clock.now()
        else:
            start = ctx.charged_seconds
        pipeline = self.pipeline
        state = pipeline.initial_state(sample.spec)
        n = len(pipeline)
        elapsed = 0.0
        for i in range(n):
            sample = pipeline[i].apply(sample, ctx, state)
            if wall:
                elapsed = self.clock.now() - start
            else:
                elapsed = ctx.charged_seconds - start
            verdict = self.routing.after_stage(elapsed, i, n, timeout_seconds)
            if verdict == HANDOFF:
                return BalanceOutcome(
                    status=TIMEOUT,
                    sample=sample,
                    elapsed_seconds=elapsed,
                    resume_index=i + 1,
                )
            if verdict == FINISH_SLOW:
                # The final transform pushed the sample over budget: it is
                # complete but still accounted as slow (it reaches batches via
                # the slow queue, matching Algorithm 1's routing).
                return BalanceOutcome(
                    status=TIMEOUT,
                    sample=sample,
                    elapsed_seconds=elapsed,
                    resume_index=n,
                )
            if verdict == FINISH_FAST:
                return BalanceOutcome(
                    status=FAST, sample=sample, elapsed_seconds=elapsed
                )
        # empty pipeline: trivially fast
        return BalanceOutcome(status=FAST, sample=sample, elapsed_seconds=elapsed)

    def resume(self, sample: Sample, resume_index: int, ctx: WorkContext) -> Sample:
        """Finish a timed-out sample from its recorded transform index."""
        if resume_index < len(self.pipeline):
            sample = self.pipeline.apply_all(sample, ctx, start=resume_index)
        sample.flagged_slow = True
        return sample
