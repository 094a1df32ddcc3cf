"""Substrate-neutral batch construction (paper §4, Algorithm 1).

Algorithm 1's construction loop prefers *fast* samples but drains *slow*
ones as they appear; in strict-order mode (paper §6) it instead releases
samples in exact sampler order through a reorder buffer.  Both execution
substrates route every decision through this module:

* the threaded engine pulls with :meth:`BatchConstructionPolicy.next_ready`
  over its fast/slow :class:`~repro.core.queues.WorkQueue` pair, parking
  when both are empty and polling again on Algorithm 1's 10 ms grid;
* the discrete-event model encodes the same preference as retrieval keys
  (:meth:`BatchConstructionPolicy.priority_key`) on a priority store, which
  expresses fast-before-slow in virtual time without polling.

The module also owns the sample-stream plumbing both substrates share:
:func:`index_stream` (the ``(epoch, seq, index)`` stream the loading
workers of both substrates draw from) and
:func:`deal_batch_plan` / :func:`deal_quota` (round-robin dealing of the
stream to GPUs in batch-size chunks, so every GPU gets a near-equal share of
batches regardless of how fast individual builders run).

Algorithm 1's idle rule -- a stage that finds nothing sleeps one poll
interval and looks again -- is :func:`first_tick`: the instants at which a
stage *would* poll are a grid anchored at its last empty poll, and a waiter
that sleeps through the empty ones must still resume on that grid.  Both
substrates park idle Minato stages and resume them by it: the simulator's
parked stages at their tick's event, the threaded stages with one clock
sleep to the tick after the ring that woke them.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "BatchConstructionPolicy",
    "ReorderBuffer",
    "deal_batch_plan",
    "deal_quota",
    "index_stream",
    "first_tick",
    "FAST_KEY",
    "SLOW_KEY",
]

#: priority-store keys: fast samples retrieve before slow ones
FAST_KEY = 0
SLOW_KEY = 1


class ReorderBuffer:
    """Reorder buffer for the strict-order mode (paper §6).

    Items arrive keyed by their stream sequence number and are released only
    in sequence order; a gap (an in-flight earlier sample) blocks release of
    everything behind it.  The lock is pluggable so the threaded engine can
    pass ``threading.Lock`` while the single-threaded simulator pays no
    synchronisation cost.
    """

    def __init__(self, lock_factory: Optional[Callable[[], Any]] = None) -> None:
        self._lock = lock_factory() if lock_factory is not None else nullcontext()
        self._items: Dict[int, Any] = {}
        self._next = 0

    @property
    def next_sequence(self) -> int:
        return self._next

    def put(self, seq: int, item: Any) -> None:
        with self._lock:
            self._items[seq] = item

    def ready(self) -> bool:
        """True when :meth:`try_next` would release an item (no lock: a
        waiter's re-check, see :class:`repro.core.queues.Doorbell`)."""
        return self._next in self._items

    def try_next(self) -> Optional[Any]:
        """Release the next in-sequence item, or None while it is missing."""
        with self._lock:
            item = self._items.pop(self._next, None)
            if item is not None:
                self._next += 1
            return item

    def __len__(self) -> int:
        return len(self._items)


class BatchConstructionPolicy:
    """Algorithm 1's sample-selection rule for batch builders.

    ``strict_order=False`` (the default) is the paper's reordering mode:
    prefer fast samples, drain slow ones as they appear.  ``strict_order=
    True`` restores exact sampler order through a :class:`ReorderBuffer`
    (curriculum mode, paper §6).
    """

    def __init__(
        self,
        strict_order: bool = False,
        lock_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.strict_order = strict_order
        self.buffer = ReorderBuffer(lock_factory) if strict_order else None

    @staticmethod
    def priority_key(flagged_slow: bool) -> int:
        """Retrieval key encoding the fast-before-slow preference."""
        return SLOW_KEY if flagged_slow else FAST_KEY

    def route_ready(
        self,
        seq: int,
        item: Any,
        flagged_slow: bool,
        put_fast: Callable[[Any], Any],
        put_slow: Callable[[Any], Any],
    ) -> Any:
        """Route one preprocessed sample to where builders will find it.

        Returns whatever the chosen ``put_*`` callback returns (substrates
        with event-based puts yield on it); strict-order mode buffers the
        item instead and returns None.
        """
        if self.strict_order:
            self.buffer.put(seq, item)
            return None
        return put_slow(item) if flagged_slow else put_fast(item)

    def next_ready(
        self,
        try_fast: Callable[[], Optional[Any]],
        try_slow: Callable[[], Optional[Any]],
    ) -> Optional[Any]:
        """Non-blocking pull of the next sample a builder should take.

        Reordering mode prefers the fast queue and falls back to the slow
        queue (Algorithm 1); strict-order mode releases from the reorder
        buffer.  Returns None when nothing is ready (the caller polls).
        """
        if self.strict_order:
            return self.buffer.try_next()
        item = try_fast()
        if item is None:
            item = try_slow()
        return item


def first_tick(
    last_poll: float, interval: float, now: float
) -> Tuple[float, float]:
    """The first poll instant at or after ``now`` of a stage whose poll at
    ``last_poll`` found nothing and that polls every ``interval`` since,
    and the poll before it: ``(tick, previous)``.

    The grid is built the way a sleeping poller builds it, by repeated
    addition ``t = t + interval`` -- never ``last_poll + k * interval``,
    which rounds differently in the last bit and would move a pick-up off
    the instant the poll loop picks it up at.  ``previous`` is when the
    sleeping poller would have gone to sleep for ``tick``: of two stages
    due at the same ``tick``, the one with the earlier ``previous`` polls
    first (grids anchored an exact multiple of ``interval`` apart differ in
    their last bits until a rounding merges them).

    Both substrates use it: the simulator wakes a parked stage at ``tick``
    (:class:`repro.sim.loaders._IdleSite`), and a threaded Minato stage
    woken by its doorbell at ``now`` sleeps until ``tick`` before it polls.
    """
    if not interval > 0:
        raise ValueError(f"poll interval must be positive, got {interval!r}")
    previous, tick = last_poll, last_poll + interval
    while tick < now:
        previous, tick = tick, tick + interval
    return tick, previous


def deal_batch_plan(
    total_samples: int, batch_size: int, num_gpus: int
) -> List[List[int]]:
    """Per-GPU list of batch sizes, dealing batch-size chunks round-robin.

    Guarantees every GPU a near-equal share of batches regardless of how
    fast individual builders run (a single global counter would let one
    GPU's builder claim the whole stream during a burst).
    """
    plan: List[List[int]] = [[] for _ in range(num_gpus)]
    gpu = 0
    remaining = total_samples
    while remaining > 0:
        take = min(batch_size, remaining)
        plan[gpu].append(take)
        remaining -= take
        gpu = (gpu + 1) % num_gpus
    return plan


def deal_quota(total_samples: int, batch_size: int, num_gpus: int) -> List[int]:
    """Per-GPU sample quotas (the row sums of :func:`deal_batch_plan`)."""
    return [sum(sizes) for sizes in deal_batch_plan(total_samples, batch_size, num_gpus)]


def index_stream(
    sampler, epochs: Optional[int] = None
) -> Iterator[Tuple[int, int, int]]:
    """The ``(epoch, seq, index)`` stream over shuffled epochs.

    ``seq`` increases globally across epochs (it keys the strict-order
    reorder buffer).  ``epochs=None`` cycles forever (the simulator's
    iteration-budgeted workloads); otherwise the stream is bounded.
    """
    seq = 0
    epoch = 0
    while epochs is None or epoch < epochs:
        for index in sampler.epoch(epoch):
            yield epoch, seq, index
            seq += 1
        epoch += 1
