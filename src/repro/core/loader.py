"""The threaded chassis and MinatoLoader, the paper's sample-aware loader (§4).

:class:`BaseConcurrentLoader` is the one chassis every threaded loader
(MinatoLoader here, the PyTorch model in :mod:`repro.baselines`) is built
on.  It owns what they both need and neither should write twice:
start/shutdown lifecycle, the guarded thread spawn,
error surfacing to the consumer, the doorbells idle stages park on, the
per-sample prologue (load, rng, storage charge) and the consumption API
(:class:`~repro.engine.trainer.BatchSource`: ``next_batch`` / ``batches`` /
``__iter__``).  A subclass supplies ``_launch`` and its own stages.

:class:`MinatoLoader`'s stages (paper Fig. 5), as real threads:

* a dynamic pool of **loading workers** draws the next shuffled sample index
  from the one index stream (identical sampling semantics to the PyTorch
  DataLoader), fetches the sample from storage, runs the transform pipeline
  under the :class:`~repro.core.balancer.LoadBalancer` timeout, and routes
  the result to the *fast* queue or -- partially processed -- to the *temp*
  queue;
* **slow-task workers** finish temp-queue samples off the critical path and
  enqueue them on the *slow* queue;
* per-GPU **batch builders** assemble batches preferring fast samples but
  draining slow ones as they appear (Algorithm 1's construction loop; see
  :meth:`MinatoLoader._park` for its 10 ms polling sleep);
* per-GPU bounded **batch queues** feed the GPUs;
* a **worker scheduler** thread adjusts the loading-worker count from batch
  queue occupancy and CPU usage (Formulas 1-2);
* a **profiler** learns the fast/slow timeout (P75, fallback P90) during an
  optimistic warm-up and keeps adjusting it online.

Every scheduling decision -- fast/slow routing, batch construction order,
strict-order release, worker-pool scaling -- is delegated to the
substrate-neutral components in :mod:`repro.policy`, which the
discrete-event model in :mod:`repro.sim.loaders` drives identically (see
DESIGN.md).

Deviation from the paper noted in DESIGN.md: queues are shared MPMC rather
than per-worker, and `threading` replaces `torch.multiprocessing` (modelled
compute is charged through the Clock abstraction, so the GIL does not
serialize it).
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Callable, Iterator, List, Optional, Tuple

from ..clock import Clock, ThreadLocalClock
from ..data.dataset import Dataset
from ..data.sample import Sample
from ..data.samplers import RandomSampler
from ..data.storage import StorageModel
from ..errors import LoaderStateError
from ..policy import (
    BatchConstructionPolicy,
    LoaderStats,
    ScalingPolicy,
    deal_quota,
    first_tick,
    index_stream,
)
from ..transforms.base import Pipeline, WorkContext
from .balancer import LoadBalancer
from .batching import Batch
from .config import MinatoConfig
from .profiler import TimeoutProfiler
from .queues import Doorbell, WorkQueue
from .scheduler import WorkerScheduler

__all__ = ["BaseConcurrentLoader", "MinatoLoader", "LoaderStats"]


class BaseConcurrentLoader:
    """Lifecycle, guarded threads and consumption API of every threaded loader.

    Subclasses implement :meth:`_launch` (start their stages with
    :meth:`_spawn`), fill ``self._batch_queues`` and create every queue and
    doorbell of their own with :meth:`_new_queue` / :meth:`_new_doorbell`,
    so that :meth:`_halt` reaches it.
    """

    #: transient ``dataset.load`` failures tolerated per sample
    load_retries = 0

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        batch_size: int,
        num_gpus: int,
        queue_capacity: int,
        drop_last: bool,
        epochs: int = 1,
        clock: Optional[Clock] = None,
        storage: Optional[StorageModel] = None,
        sampler: Optional[RandomSampler] = None,
        seed: int = 0,
    ) -> None:
        if epochs < 1:
            raise LoaderStateError(f"epochs must be >= 1, got {epochs!r}")
        if batch_size < 1:
            raise LoaderStateError(f"batch_size must be >= 1, got {batch_size!r}")
        if num_gpus < 1:
            raise LoaderStateError(f"num_gpus must be >= 1, got {num_gpus!r}")
        self.dataset = dataset
        self.pipeline = pipeline
        self.batch_size = batch_size
        self.num_gpus = num_gpus
        self.drop_last = drop_last
        self.epochs = epochs
        self.clock = clock if clock is not None else ThreadLocalClock()
        self.storage = storage
        self.sampler = sampler if sampler is not None else RandomSampler(len(dataset), seed=seed)
        # sampler-derived, not dataset-derived: a sharded sampler yields only
        # its rank's slice, and quotas sized from the dataset would leave the
        # consumer waiting forever on samples that never come
        self.total_samples = epochs * len(self.sampler)

        self._stop = threading.Event()
        #: every queue and doorbell a stage or the consumer can block on
        #: (see ``_halt``)
        self._queues: List[WorkQueue] = []
        self._doorbells: List[Doorbell] = []
        self._batch_queues = [
            self._new_queue(f"batch-{g}", queue_capacity) for g in range(num_gpus)
        ]
        self._stats = LoaderStats()
        self._stats_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()
        self._started = False
        self._start_lock = threading.Lock()
        self._shut_down = False
        self._epochs_consumed = 0
        self._delivered_to_user = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the background machinery (idempotent)."""
        with self._start_lock:
            if self._shut_down:
                raise LoaderStateError("loader was shut down; create a new instance")
            if self._started:
                return
            self._started = True
        self._launch()

    def _launch(self) -> None:
        raise NotImplementedError

    def _new_queue(
        self,
        name: str,
        capacity: int,
        low_water: Optional[int] = None,
        doorbell: Optional[Doorbell] = None,
    ) -> WorkQueue:
        """A queue that :meth:`_halt` will abort (call from ``__init__``)."""
        queue = WorkQueue(capacity, name=name, low_water=low_water, doorbell=doorbell)
        self._queues.append(queue)
        return queue

    def _new_doorbell(self) -> Doorbell:
        """A doorbell that :meth:`_halt` will close (call from ``__init__``)."""
        doorbell = Doorbell()
        self._doorbells.append(doorbell)
        return doorbell

    def _halt(self) -> None:
        """Stop every stage and release every caller blocked on a queue or
        parked on a doorbell (:meth:`WorkQueue.abort` and :class:`Doorbell`
        say why those wake-ups cannot be lost)."""
        self._stop.set()
        for queue in self._queues:
            queue.abort()
        for doorbell in self._doorbells:
            doorbell.close()

    def _spawn(self, target: Callable[..., None], name: str, *args) -> threading.Thread:
        """Start ``target(*args)`` on a daemon thread whose failure stops the
        loader and reaches the consumer (:meth:`_raise_errors`)."""

        def run() -> None:
            try:
                target(*args)
            except BaseException as exc:
                # SystemExit too (a stray sys.exit() in user code): threading
                # swallows it, and the consumer would wait forever on a stage
                # that is gone.  Nothing is above this frame to re-raise to.
                self._record_error(exc)

        thread = threading.Thread(target=run, name=name, daemon=True)
        # stages spawn while shutdown() joins (the scheduler resizing the pool)
        with self._threads_lock:
            self._threads.append(thread)
        thread.start()
        return thread

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop all threads and release resources (idempotent); waits at most
        ``timeout`` seconds in total."""
        if self._shut_down:
            return
        self._shut_down = True
        self._halt()
        deadline = time.monotonic() + timeout
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def _record_error(self, exc: BaseException) -> None:
        with self._errors_lock:
            self._errors.append(exc)
        self._halt()

    def _raise_errors(self) -> None:
        with self._errors_lock:
            if self._errors:
                raise LoaderStateError(
                    f"loader thread failed: {self._errors[0]!r}"
                ) from self._errors[0]

    def _count(self, **deltas: float) -> None:
        """Add ``deltas`` to the live stats record, under its one lock."""
        with self._stats_lock:
            self._stats.add(**deltas)

    # -- per-sample prologue ----------------------------------------------------

    def _begin_sample(
        self,
        epoch: int,
        index: Optional[int] = None,
        sample: Optional[Sample] = None,
    ) -> Tuple[Sample, WorkContext]:
        """A sample and the context its transforms run in.

        Pass ``index`` to fetch the sample here (tolerating ``load_retries``
        transient failures, its storage read charged to the context), or
        ``sample`` when an earlier stage already fetched it.  The rng seed
        derives from (sample seed, epoch) alone, so every stage that touches
        the sample -- inline, resumed in the background, on any loader --
        draws the same augmentations, and fresh ones each epoch.

        The context comes with a run open (:meth:`WorkContext.open_run`):
        the storage read and the transforms after it reach the clock as one
        ``advance`` when the caller calls ``ctx.settle()``, which it does
        before the sample moves on or is counted.
        """
        if sample is None:
            for attempt in range(self.load_retries + 1):
                try:
                    sample = self.dataset.load(index)
                    break
                except Exception:
                    self._count(load_retries=1)
                    if attempt == self.load_retries:
                        raise
        ctx = WorkContext(
            clock=self.clock,
            seed=(sample.spec.seed + 7_919 * epoch) & 0x7FFFFFFF,
        )
        ctx.open_run()
        if index is not None and self.storage is not None:
            io_seconds = self.storage.read_seconds(sample.spec)
            ctx.charge(io_seconds)
            self._count(io_seconds=io_seconds)
        return sample, ctx

    # -- stats ------------------------------------------------------------------

    def stats(self) -> LoaderStats:
        """A copy of the stats record; changing it does not touch the loader."""
        with self._stats_lock:
            return copy.deepcopy(self._stats)

    # -- consumption API ----------------------------------------------------------

    def next_batch(self, gpu: int = 0) -> Optional[Batch]:
        """Blocking fetch of the next batch for one GPU (None at stream end)."""
        if not 0 <= gpu < self.num_gpus:
            raise LoaderStateError(f"gpu {gpu} out of range")
        self.start()
        self._raise_errors()
        batch = self._batch_queues[gpu].get()
        self._raise_errors()
        return batch

    def batches(self, gpu: int = 0) -> Iterator[Batch]:
        """Iterate all batches destined for one GPU."""
        while True:
            batch = self.next_batch(gpu)
            if batch is None:
                return
            yield batch

    def __iter__(self) -> Iterator[Batch]:
        """Iterate one epoch's worth of batches (single-GPU convenience)."""
        if self.num_gpus != 1:
            raise LoaderStateError(
                "__iter__ supports num_gpus=1; multi-GPU trainers should use "
                "next_batch(gpu)/batches(gpu)"
            )
        self.start()
        epoch = self._epochs_consumed
        self._epochs_consumed += 1
        target = min((epoch + 1) * len(self.sampler), self.total_samples)
        while self._delivered_to_user < target:
            batch = self.next_batch(0)
            if batch is None:
                return
            self._delivered_to_user += len(batch)
            yield batch

    def __len__(self) -> int:
        """Total number of batches across all epochs."""
        if self.drop_last:
            return self.total_samples // self.batch_size
        return (self.total_samples + self.batch_size - 1) // self.batch_size


class _WorkerPool:
    """Dynamic pool of loading-worker threads."""

    def __init__(self, loader: "MinatoLoader") -> None:
        self._loader = loader
        self._lock = threading.Lock()
        self._next_id = 0
        self._active = 0
        self._retire_tokens = 0

    @property
    def active_count(self) -> int:
        with self._lock:
            return self._active

    def spawn(self, n: int) -> None:
        for _ in range(n):
            with self._lock:
                worker_id = self._next_id
                self._next_id += 1
                self._active += 1
            self._loader._spawn(self._run, f"minato-worker-{worker_id}", worker_id)

    def _run(self, worker_id: int) -> None:
        try:
            self._loader._worker_loop(worker_id)
        finally:
            with self._lock:
                self._active -= 1

    def resize(self, target: int) -> None:
        with self._lock:
            current = self._active - self._retire_tokens
            diff = target - current
        if diff > 0:
            with self._lock:
                absorbed = min(diff, self._retire_tokens)
                self._retire_tokens -= absorbed
                diff -= absorbed
            if diff > 0:
                self.spawn(diff)
        elif diff < 0:
            with self._lock:
                self._retire_tokens += -diff

    def should_retire(self) -> bool:
        with self._lock:
            if self._retire_tokens > 0:
                self._retire_tokens -= 1
                return True
            return False


class MinatoLoader(BaseConcurrentLoader):
    """Drop-in, sample-aware replacement for the PyTorch DataLoader.

    Example::

        loader = MinatoLoader(dataset, pipeline, MinatoConfig(batch_size=4))
        for batch in loader:          # one epoch
            train_step(batch)
        loader.shutdown()

    Multi-GPU trainers pull per-GPU streams with :meth:`next_batch` /
    :meth:`batches` instead of ``__iter__``.
    """

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        config: Optional[MinatoConfig] = None,
        epochs: int = 1,
        clock: Optional[Clock] = None,
        storage: Optional[StorageModel] = None,
        sampler: Optional[RandomSampler] = None,
    ) -> None:
        self.config = cfg = config if config is not None else MinatoConfig()
        super().__init__(
            dataset=dataset,
            pipeline=pipeline,
            batch_size=cfg.batch_size,
            num_gpus=cfg.num_gpus,
            queue_capacity=cfg.queue_capacity,
            drop_last=cfg.drop_last,
            epochs=epochs,
            clock=clock,
            storage=storage,
            sampler=sampler,
            seed=cfg.seed,
        )
        self.load_retries = cfg.load_retries

        self.profiler = TimeoutProfiler(
            percentile=cfg.timeout_percentile,
            fallback_percentile=cfg.fallback_percentile,
            warmup_samples=cfg.warmup_samples,
            max_slow_fraction=cfg.max_slow_fraction,
            override=cfg.timeout_override,
        )
        self.balancer = LoadBalancer(pipeline, self.clock, timing=cfg.timing)
        self.scaling = ScalingPolicy(
            scheduler=WorkerScheduler(
                alpha=cfg.alpha,
                beta=cfg.beta,
                cpu_threshold=cfg.cpu_threshold,
                delta_clip=cfg.delta_clip,
                min_workers=cfg.min_workers,
                max_workers=cfg.max_workers,
            )
        )
        self.construction = BatchConstructionPolicy(
            strict_order=not cfg.reorder, lock_factory=threading.Lock
        )

        #: the one ``(epoch, seq, index)`` stream every loading worker draws from
        self._indices = index_stream(self.sampler, self.epochs)
        self._indices_lock = threading.Lock()
        # Nothing reads the sample queues' occupancy, so they release parked
        # producers half-way down: a worker that ran ahead of the builders
        # wakes to refill half a queue, not one slot.  The batch queues keep
        # the default (release on every get): their fill is Formula 2's input.
        low_water = cfg.queue_capacity // 2
        #: builders park here; a fast, slow or reorder-buffer put rings it
        self._builder_bell = self._new_doorbell()
        #: slow-task workers park here; a temp put rings it, and the sample
        #: that completes the stream closes it
        self._slow_bell = self._new_doorbell()
        self._fast_queue = self._new_queue(
            "fast", cfg.queue_capacity, low_water, self._builder_bell
        )
        self._slow_queue = self._new_queue(
            "slow", cfg.queue_capacity, low_water, self._builder_bell
        )
        self._temp_queue = self._new_queue(
            "temp", cfg.queue_capacity, low_water, self._slow_bell
        )

        self._remaining_per_gpu = deal_quota(
            self.total_samples, cfg.batch_size, cfg.num_gpus
        )
        self._claim_lock = threading.Lock()
        self._batch_seq = 0
        self._builders_active = [0] * cfg.num_gpus
        self._builders_lock = threading.Lock()
        self._pool = _WorkerPool(self)

    def _launch(self) -> None:
        cfg = self.config
        self._pool.spawn(cfg.total_initial_workers)
        for i in range(cfg.slow_workers):
            self._spawn(self._slow_worker_loop, f"minato-slow-{i}")
        for gpu in range(cfg.num_gpus):
            with self._builders_lock:
                self._builders_active[gpu] = cfg.batch_builders
            for b in range(cfg.batch_builders):
                self._spawn(self._builder_loop, f"minato-builder-{gpu}-{b}", gpu)
        if cfg.adaptive_workers and self.clock.shared_timeline:
            self._spawn(self._scheduler_loop, "minato-scheduler")

    # -- idle stages -----------------------------------------------------------------

    def _park(self, doorbell: Doorbell, has_work: Callable[[], bool]) -> bool:
        """Wait, after a poll that found nothing, until ``doorbell`` rings
        (or ``has_work()`` already holds); False when it closed instead.

        Algorithm 1 sleeps ``poll_interval`` between polls.  Only the poll
        that finds work is behaviour; the empty ones are not, so the stage
        parks through them.  On a shared timeline it then sleeps, with one
        ``clock.sleep``, to the instant its poll loop would have found the
        work at: its first tick since the empty poll
        (:func:`~repro.policy.first_tick`, the rule the simulated stages
        follow).  A logical clock has no such instant: the stage polls at
        once.
        """
        clock = self.clock
        if not clock.shared_timeline:
            return doorbell.wait(has_work)
        last_poll = clock.now()
        if not doorbell.wait(has_work):
            return False
        now = clock.now()
        clock.sleep(first_tick(last_poll, self.config.poll_interval, now)[0] - now)
        return True

    def _count(self, **deltas: float) -> None:
        with self._stats_lock:
            self._stats.add(**deltas)
            finished = self._stats.samples_preprocessed == self.total_samples
        if finished:
            # nothing can reach the temp queue any more (see _slow_worker_loop)
            self._slow_bell.close()

    # -- loading workers ---------------------------------------------------------

    def _next_index(self) -> Optional[Tuple[int, int, int]]:
        """The next ``(epoch, seq, index)`` to load; None once the stream is
        exhausted."""
        with self._indices_lock:
            return next(self._indices, None)

    def _worker_loop(self, worker_id: int) -> None:
        while not self._stop.is_set():
            if self._pool.should_retire():
                return
            item = self._next_index()
            if item is None:
                return
            self._process_one(*item)

    def _process_one(self, epoch: int, seq: int, index: int) -> None:
        sample, ctx = self._begin_sample(epoch, index=index)
        outcome = self.balancer.process(sample, ctx, self.profiler.timeout())
        ctx.settle()
        if outcome.timed_out:
            self._count(busy_seconds=ctx.charged_seconds, samples_timed_out=1)
            self._temp_queue.put((outcome.sample, outcome.resume_index, epoch, seq))
        else:
            self.profiler.record(outcome.elapsed_seconds, flagged_slow=False)
            self._count(
                busy_seconds=ctx.charged_seconds, samples_fast=1, samples_preprocessed=1
            )
            self._route_ready(outcome.sample, seq, slow=False)

    def _route_ready(self, sample: Sample, seq: int, slow: bool) -> None:
        self.construction.route_ready(
            seq, sample, flagged_slow=slow,
            put_fast=self._fast_queue.put, put_slow=self._slow_queue.put,
        )
        if self.construction.strict_order:
            self._builder_bell.ring()  # the queues ring it themselves

    # -- slow-task workers ---------------------------------------------------------

    def _slow_worker_loop(self) -> None:
        temp = self._temp_queue
        while not self._stop.is_set():
            item = temp.try_get()
            if item is None:
                # a sample is counted only once fully transformed, so at
                # equality none is left that could still reach the temp
                # queue; the count that reaches it closes the bell
                if self._stats.samples_preprocessed == self.total_samples:
                    return
                if not self._park(self._slow_bell, temp.__len__):
                    return
                continue
            sample, resume_index, epoch, seq = item
            sample, ctx = self._begin_sample(epoch, sample=sample)
            sample = self.balancer.resume(sample, resume_index, ctx)
            ctx.settle()
            self.profiler.record(sample.preprocess_seconds, flagged_slow=True)
            self._count(
                busy_seconds=ctx.charged_seconds,
                background_busy_seconds=ctx.charged_seconds,
                samples_preprocessed=1,
            )
            self._route_ready(sample, seq, slow=True)

    # -- batch builders ----------------------------------------------------------

    def _claim(self, gpu: int) -> Optional[Tuple[int, int]]:
        """``(size, sequence number)`` of the next batch to build for
        ``gpu``; None when its quota is used up."""
        batch_size = self.config.batch_size
        with self._claim_lock:
            remaining = self._remaining_per_gpu[gpu]
            if remaining <= 0:
                return None
            if self.config.drop_last and remaining < batch_size:
                self._remaining_per_gpu[gpu] = 0
                return None
            take = min(batch_size, remaining)
            self._remaining_per_gpu[gpu] = remaining - take
            seq = self._batch_seq
            self._batch_seq += 1
            return take, seq

    def _stream_finished(self) -> bool:
        with self._claim_lock:
            return all(r <= 0 for r in self._remaining_per_gpu)

    def _has_ready(self) -> bool:
        """What a parked builder re-checks (reordering mode)."""
        return len(self._fast_queue) > 0 or len(self._slow_queue) > 0

    def _builder_loop(self, gpu: int) -> None:
        if self.construction.strict_order:
            has_work = self.construction.buffer.ready
        else:
            has_work = self._has_ready
        try:
            while not self._stop.is_set():
                claim = self._claim(gpu)
                if claim is None:
                    return
                take, seq = claim
                samples = []
                while len(samples) < take:
                    sample = self.construction.next_ready(
                        self._fast_queue.try_get, self._slow_queue.try_get
                    )
                    if sample is not None:
                        samples.append(sample)
                    elif not self._park(self._builder_bell, has_work):
                        return  # stopped mid-collection
                batch = Batch(
                    samples=samples,
                    gpu_index=gpu,
                    built_at=self.clock.now(),
                    sequence=seq,
                )
                self._count(batches_built=1)
                if not self._batch_queues[gpu].put(batch):
                    return
        finally:
            close_queue = False
            with self._builders_lock:
                self._builders_active[gpu] -= 1
                if self._builders_active[gpu] == 0:
                    close_queue = True
            if close_queue:
                self._batch_queues[gpu].close()

    # -- worker scheduler ----------------------------------------------------------

    def _scheduler_loop(self) -> None:
        cfg = self.config
        self.scaling.reset(self.clock.now())
        # waits on the stop event, in clock seconds: shutdown() does not sit
        # out the rest of an interval
        while not self.clock.wait(self._stop, cfg.scheduler_interval):
            if self._stream_finished():
                return
            queue_fill = sum(q.fill_fraction() for q in self._batch_queues) / len(
                self._batch_queues
            )
            action = self.scaling.observe(
                now=self.clock.now(),
                busy_seconds=self._stats.busy_seconds,
                queue_fill=queue_fill,
                workers=self._pool.active_count,
            )
            if action is None:
                continue
            if action.total_workers != action.decision.previous_workers:
                self._pool.resize(action.total_workers)

    # -- stats ----------------------------------------------------------------------

    def stats(self) -> LoaderStats:
        stats = super().stats()
        stats.profiler = self.profiler.snapshot()
        stats.worker_history = list(self.scaling.history)
        stats.current_workers = self._pool.active_count
        return stats
