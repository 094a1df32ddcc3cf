"""Transform framework: timed, cost-modelled preprocessing steps.

Each :class:`Transform` does two things:

1. ``apply(sample, ctx)`` -- performs the *real* numpy operation on the
   sample payload (scaled-down arrays so tests stay fast) and charges the
   transform's modelled compute cost to the context's clock.
2. ``cost(spec, state)`` -- returns the modelled cost in seconds as a pure
   function of the sample spec and the pipeline size-state.  The simulator
   calls this directly; the concurrent engine charges the same number, so the
   two substrates agree sample-by-sample.

Costs are deterministic per (sample, transform): randomness is drawn from the
sample's seed, never from global state.  :attr:`WorkContext.rng`, the
augmentation generator, is lazy: a loader hands each sample's context a
*seed*, and the ``Generator`` is built when a transform first reads it --
same seed, same stream, and a pipeline that never draws never pays for one.

The ``size_effect`` classification (inflationary / deflationary / varies) is
what Pecan's AutoOrder policy consumes (paper §2.1), and ``barrier`` marks
reorder barriers.
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clock import Clock, ThreadLocalClock
from ..contracts import nonnegative
from ..data.dataset import Dataset
from ..data.sample import Sample, SampleSpec
from ..errors import ConfigurationError

__all__ = [
    "SizeEffect",
    "WorkContext",
    "Transform",
    "Pipeline",
    "PipelineState",
    "CostRecord",
]

#: one sample's walk: ``(cost profile, total cost, output bytes)``
CostRecord = Tuple[Tuple[float, ...], float, int]

#: dataset -> transform sequence (a tuple) -> sample index -> its walk.
#: Weak in the dataset: a workload's table lives exactly as long as it.
_COST_TABLES = weakref.WeakKeyDictionary()


class SizeEffect:
    """How a transform changes the sample's in-memory footprint."""

    INFLATIONARY = "inflationary"
    DEFLATIONARY = "deflationary"
    NEUTRAL = "neutral"
    VARIES = "varies"


class WorkContext:
    """Execution context handed to transforms by a loader worker.

    Carries the clock used to charge modelled compute and an RNG for
    content-level randomness (augmentation draws that do not affect cost):
    ``rng`` if one is passed, else ``np.random.default_rng(seed)`` built on
    first use.

    A charge reaches the clock at once, unless the context is in a *run*
    (:meth:`open_run`): then the charges wait, and :meth:`settle` puts
    them on the clock as one ``advance``.  A loader runs a sample's storage
    read and transforms as one run when nothing reads the clock in between,
    so a thread sleeps once per run where it slept once per charge.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> None:
        self.clock = clock if clock is not None else ThreadLocalClock()
        self._rng = rng
        self._seed = seed
        self.charged_seconds = 0.0
        #: charges of the open run not yet on the clock; None: no run open
        self._owed: Optional[float] = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    def charge(self, seconds: float) -> None:
        """Consume ``seconds`` of modelled compute on the clock -- now, or
        at :meth:`settle` while a run is open.  ``charged_seconds`` counts
        every charge when it is made."""
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds!r}")
        self.charged_seconds += seconds
        if self._owed is None:
            self.clock.advance(seconds)
        else:
            self._owed += seconds

    def open_run(self) -> None:
        """Hold the charges from here back from the clock until :meth:`settle`."""
        self._owed = 0.0

    def settle(self) -> None:
        """Close the open run (if any): its charges reach the clock as one
        ``advance``, and later charges reach it at once again.  Call it
        before anything reads the clock for the run's work."""
        owed, self._owed = self._owed, None
        if owed:
            self.clock.advance(owed)


@dataclass
class PipelineState:
    """Size state threaded through cost evaluation.

    ``nbytes`` is the sample's in-memory footprint *entering* the next
    transform.  Cost models may scale with it, which is how Pecan's
    transformation reordering changes pipeline cost mechanically.
    """

    nbytes: float
    #: a per-sample draw that several transforms' cost models share,
    #: drawn once per walk (None until the first of them draws it)
    base_cost: Optional[float] = None

    def copy(self) -> "PipelineState":
        return PipelineState(nbytes=self.nbytes)


class Transform(ABC):
    """A single preprocessing step."""

    #: classification consumed by Pecan AutoOrder
    size_effect: str = SizeEffect.NEUTRAL
    #: AutoOrder never moves a transform across a barrier
    barrier: bool = False

    @property
    def name(self) -> str:
        return type(self).__name__

    # -- cost model ---------------------------------------------------------

    @abstractmethod
    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        """Modelled compute seconds for this sample at this pipeline point."""

    @abstractmethod
    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        """Footprint in bytes after this transform runs."""

    # -- real execution ------------------------------------------------------

    @abstractmethod
    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        """Perform the actual numpy operation; return the new payload."""

    def apply(self, sample: Sample, ctx: WorkContext, state: PipelineState) -> Sample:
        """Run the transform for real: numpy work + modelled cost charge."""
        seconds = self.cost(sample.spec, state)
        new_data = self._operate(sample, ctx)
        ctx.charge(seconds)
        sample.data = new_data
        sample.nbytes = int(self.output_nbytes(sample.spec, state))
        sample.applied.append(self.name)
        sample.preprocess_seconds += seconds
        state.nbytes = sample.nbytes
        return sample

    def __repr__(self) -> str:
        return f"{self.name}()"


class Pipeline:
    """An ordered sequence of transforms with cost introspection.

    Loaders drive transforms one at a time (so a load balancer can check its
    timeout budget between steps); the simulator only reads :meth:`walk`.
    """

    def __init__(self, transforms: Sequence[Transform]) -> None:
        if not transforms:
            raise ConfigurationError("a pipeline needs at least one transform")
        self.transforms: List[Transform] = list(transforms)

    def __len__(self) -> int:
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)

    def __getitem__(self, i: int) -> Transform:
        return self.transforms[i]

    @property
    def names(self) -> List[str]:
        return [t.name for t in self.transforms]

    def initial_state(self, spec: SampleSpec) -> PipelineState:
        return PipelineState(nbytes=float(spec.raw_nbytes))

    def walk(self, spec: SampleSpec) -> Tuple[List[float], int]:
        """One pass over the transforms: the per-transform modelled costs
        (seconds) and the footprint of the fully preprocessed sample.

        A cost or an output size that is not a real number ``>= 0`` (NaN,
        negative, infinite) is a :class:`ConfigurationError` naming the
        transform and the sample: every model prices a sample from this
        walk, and routing relies on no prefix of a profile exceeding its
        total."""
        state = self.initial_state(spec)
        profile = []
        for transform in self.transforms:
            cost = transform.cost(spec, state)
            nbytes = transform.output_nbytes(spec, state)
            if not (0.0 <= cost < math.inf and 0.0 <= nbytes < math.inf):
                where = f"{transform.name} on sample {spec.index}"
                nonnegative(f"the cost of {where}", cost)
                nonnegative(f"the output size of {where}", nbytes)
            profile.append(cost)
            state.nbytes = nbytes
        return profile, int(state.nbytes)

    def cost_table(self, dataset: Dataset) -> Dict[int, CostRecord]:
        """``dataset``'s walks under this transform sequence, by sample
        index: a :data:`CostRecord` the caller stores on a first visit.

        There is one table per (dataset, transform sequence): every loader,
        run and rank over the workload reads the record the first visit
        wrote, a reordering that comes back unchanged included, and the
        table is collected with its dataset.  A transform's cost model is
        its own for life: a changed model is a new transform."""
        tables = _COST_TABLES.get(dataset)
        if tables is None:
            tables = _COST_TABLES[dataset] = {}
        return tables.setdefault(tuple(self.transforms), {})

    def cost_profile(self, spec: SampleSpec) -> List[float]:
        """Per-transform modelled costs (seconds) for one sample."""
        return self.walk(spec)[0]

    def total_cost(self, spec: SampleSpec) -> float:
        return float(sum(self.cost_profile(spec)))

    def output_nbytes(self, spec: SampleSpec) -> int:
        """Footprint of the fully preprocessed sample."""
        return self.walk(spec)[1]

    def size_trace(self, spec: SampleSpec) -> List[float]:
        """Footprint after each transform (used by Pecan's classifier)."""
        state = self.initial_state(spec)
        trace = []
        for transform in self.transforms:
            state.nbytes = transform.output_nbytes(spec, state)
            trace.append(state.nbytes)
        return trace

    def apply_all(
        self,
        sample: Sample,
        ctx: WorkContext,
        start: int = 0,
        state: Optional[PipelineState] = None,
    ) -> Sample:
        """Apply transforms ``start..end`` to a sample (no budget checks)."""
        if state is None:
            state = self._state_at(sample, start)
        for i in range(start, len(self.transforms)):
            sample = self.transforms[i].apply(sample, ctx, state)
        return sample

    def _state_at(self, sample: Sample, position: int) -> PipelineState:
        """Reconstruct the size state entering transform ``position``."""
        state = self.initial_state(sample.spec)
        for transform in self.transforms[:position]:
            state.nbytes = transform.output_nbytes(sample.spec, state)
        return state

    def reordered(self, order: Sequence[int]) -> "Pipeline":
        """A new pipeline with transforms permuted by ``order``."""
        if sorted(order) != list(range(len(self.transforms))):
            raise ConfigurationError(f"invalid permutation: {order!r}")
        return Pipeline([self.transforms[i] for i in order])
