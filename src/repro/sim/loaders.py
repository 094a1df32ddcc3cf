"""Discrete-event models of the four data loaders (paper §2.1, §4).

Each model reproduces its loader's *scheduling semantics* in virtual time;
per-sample preprocessing costs come from the same calibrated cost models the
concurrent engine charges (Table 2), so the two substrates agree
sample-by-sample.

* :class:`SimTorchLoader` -- one loader instance (the paper's single-process
  multi-GPU setup) with 12 workers, whole-batch-per-worker processing,
  ``prefetch_factor`` in-flight batches per worker, strictly in-order
  delivery, single-threaded collation, and a worker-pool restart at every
  epoch boundary.  Head-of-line blocking emerges, it is not hard-coded.
* :class:`SimPecanLoader` -- Torch semantics over the AutoOrder-reordered
  pipeline (paper §5.1).
* :class:`SimDALILoader` -- one pipeline per GPU; CPU threads load raw
  samples ahead; preprocessing executes per batch **on the GPU resource** at
  a 10x discount, contending with training (§3.5); ``prefetch_queue_depth``
  buffers between stages.
* :class:`SimMinatoLoader` -- Algorithm 1 with the paper's *preemptive*
  accounting: when the timeout fires mid-transform, the in-flight transform's
  partial work is discarded and it re-executes fully in a background
  slow-task worker.  A sample's run of transforms, inline or background, is
  one core hold, as in the other models (DESIGN.md, "One hold per run"; the
  per-transform walk it replaced is ``tests/helpers.PerChunkMinatoLoader``).
  Fast/slow routing uses a priority store (fast first),
  per-GPU batch queues, warm-up profiling with P75/P90 thresholds, and the
  Formula 1-2 worker scheduler resizing the loading-worker pool.

The Minato model is the *discrete-event substrate* of the paper's loader:
it runs the four roles the threaded engine in :mod:`repro.core.loader` runs
(Fig. 5: loading workers drawing from the sampler, slow-task workers, batch
builders, the worker scheduler), and every scheduling decision -- fast/slow
routing (preemptive accounting), batch construction order, strict-order
release, worker-pool scaling -- is delegated to the same substrate-neutral
components in :mod:`repro.policy` (see DESIGN.md).

Its loading workers, slow-task workers and batch builders are not
processes: each is a small slotted state object whose transitions the
completions of its read, core grant, hold timer and store events call
directly -- drawn, read, core granted, run done, routed, batched
(:class:`_LoadingWorker`, :class:`_SlowWorker`, :class:`_Builder`).  The
read and the hold have one definition each (:meth:`SimContext.fetch` and
:class:`_Hold`), run as processes by the other models and chained by these
stages.  A sample routed to a ready store, or handed off to a temp store,
that has room costs no event; a builder still takes it at its get event's
delivery.  The generator process per stage they replaced is the referee,
``tests/helpers.GeneratorMinatoLoader`` (DESIGN.md, "A simulated sample is
a chain of callbacks").

Every model runs as one data-parallel rank (paper §6): ``start(ctx)`` begins
with :meth:`BaseSimLoader.bind`, which makes a loader nobody rebound onto a
shard a world of one over the workload's own budget.  The Torch and Minato
constructors run the threaded configs' checks over the knobs the two
substrates share; the Pecan model inherits Torch's, and the DALI model,
which has no threaded twin, checks its own knobs.

No stage polls, and idle is free.  Algorithm 1's 10 ms sleep decides *when*
an idle stage notices new work -- on its own poll tick -- and the model
keeps exactly that: a slow-task worker or strict-order builder that finds
nothing parks (:class:`_IdleSite`) and is woken on the tick its poll loop
would have found the change at, with no kernel event in between.  Likewise
a core or GPU that is free is taken without an event (:meth:`_Hold.claim`).
The poll loop itself lives on as the specification in
``tests/helpers.PollingMinatoLoader``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from functools import cmp_to_key
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..baselines import TorchLoaderConfig
from ..contracts import count, fraction, interval, nonnegative, positive
from ..core.config import MinatoConfig
from ..core.profiler import TimeoutProfiler
from ..core.scheduler import SchedulerDecision, WorkerScheduler
from ..data.sample import SampleSpec
from ..data.samplers import BatchSampler, ShardedSampler
from ..data.storage import DRAM_BANDWIDTH
from ..engine.metrics import IntervalRecorder, ThroughputMeter
from ..errors import ConfigurationError, EmptySchedule, SimulationError
from ..policy import (
    FAST_KEY,
    SLOW_KEY,
    BatchConstructionPolicy,
    LoaderStats,
    RoutingPolicy,
    ScalingPolicy,
    SizeRouter,
    deal_batch_plan,
    first_tick,
    index_stream,
)
from ..transforms.base import CostRecord, Pipeline
from .cluster import NodeSite
from .kernel import AllOf, Environment, Event, _Initialize
from .links import Stream
from .resources import Request, Resource
from .stores import PriorityStore, Store
from .workloads import HardwareConfig, WorkloadSpec

__all__ = [
    "SimContext",
    "SimBatch",
    "SimTorchLoader",
    "SimPecanLoader",
    "SimDALILoader",
    "SimMinatoLoader",
    "END",
    "run_until",
]

#: end-of-stream sentinel on batch stores
END = object()


@dataclass
class SimBatch:
    """A preprocessed batch in the simulator."""

    specs: List[SampleSpec]
    nbytes: int
    built_at: float
    slow_count: int = 0
    gpu: int = 0
    #: per-sample slow flags (populated by the Minato model; aligns with
    #: ``specs``), used by the cross-substrate agreement tests
    slow_flags: List[bool] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.specs)


class SimContext:
    """Shared run infrastructure: devices, storage, recorders, counters."""

    def __init__(
        self,
        env: Environment,
        workload: WorkloadSpec,
        hardware: HardwareConfig,
        num_gpus: int,
        cache_fraction: float = 0.8,
        record_transfers: bool = True,
        site=None,
        nic=None,
        cache_namespace=None,
    ) -> None:
        count("num_gpus", num_gpus)
        if not num_gpus <= hardware.max_gpus:
            raise ConfigurationError(
                f"{hardware.name} has at most {hardware.max_gpus} GPUs, "
                f"got {num_gpus}"
            )
        fraction("cache_fraction", cache_fraction)
        self.env = env
        self.workload = workload
        self.hardware = hardware
        self.num_gpus = num_gpus
        if site is None:
            # a private single-node site.  record_transfers=False keeps the
            # disk stream's per-transfer log off (the multi-node runner only
            # consumes aggregate totals; at benchmark scale the log is
            # millions of tuples)
            site = NodeSite(env, hardware, cache_fraction, record_transfers)
        # the node's storage pipe, page cache and physical CPU cores: every
        # job on the node contends here (all CPU-side work queues on the
        # cores, so no loader can use more parallelism than the machine has)
        self.disk = site.disk
        self.cache = site.cache
        self.cores = site.cores
        #: remote-storage NIC pipe (Cluster.storage_over_nic): cache-miss
        #: reads also traverse it, queueing with collective traffic
        self.nic = nic
        #: per-job cache key namespace on a shared cache: two tenants'
        #: sample index 0 are different bytes and must not alias
        self.cache_namespace = cache_namespace
        #: per-tenant data-path counters (this context's own traffic, exact
        #: even when the cache/disk are shared with other jobs)
        self.cache_hit_bytes = 0
        self.cache_miss_bytes = 0
        self.storage_wait_seconds = 0.0
        self.gpus = [Resource(env, capacity=1) for _ in range(num_gpus)]
        self.gpu_recorders = [IntervalRecorder(f"gpu{g}") for g in range(num_gpus)]
        self.cpu_recorder = IntervalRecorder("cpu")
        self.meter = ThroughputMeter()
        #: the stats record (same class the threaded engine reports; the
        #: event kernel is single-threaded, so it is updated in place)
        self.stats = LoaderStats()

    # -- storage -----------------------------------------------------------------

    def cache_key(self, index: int):
        """The page-cache key for a sample index (namespaced per job on
        shared caches)."""
        if self.cache_namespace is None:
            return index
        return (self.cache_namespace, index)

    def fetch(self, spec: SampleSpec) -> Tuple[Event, bool]:
        """Start reading a sample: a page-cache hit is a DRAM copy, a miss a
        disk transfer.  Returns that hop's event and whether a NIC hop
        (:meth:`nic_hop`) follows it -- a miss on remote storage."""
        nbytes = spec.raw_nbytes
        if self.cache.access(self.cache_key(spec.index), nbytes):
            self.cache_hit_bytes += nbytes
            return self.env.timeout(nbytes / DRAM_BANDWIDTH), False
        self.cache_miss_bytes += nbytes
        return self._miss_hop(self.disk, nbytes), self.nic is not None

    def nic_hop(self, nbytes: int) -> Event:
        """A cache miss's bytes crossing the remote-storage NIC."""
        return self._miss_hop(self.nic, nbytes)

    def _miss_hop(self, stream: Stream, nbytes: int) -> Event:
        """A cache miss's transfer on ``stream``; once it completes, the
        time it queued before starting is added to ``storage_wait_seconds``
        (a zero-byte hop is a free timer, with no queue)."""
        hop = stream.transfer(nbytes)
        if nbytes > 0:
            hop.callbacks.append(self._waited)
        return hop

    def _waited(self, hop) -> None:
        self.storage_wait_seconds += hop.start - hop.submitted

    def read_sample(self, spec: SampleSpec) -> Generator:
        """Fetch a sample, as a process: :meth:`fetch`, then its NIC hop."""
        landed, remote = self.fetch(spec)
        yield landed
        if remote:
            yield self.nic_hop(spec.raw_nbytes)

    # -- CPU accounting -------------------------------------------------------------

    def _occupy(self, hold: "_Hold") -> Generator:
        """Run ``hold`` as a process: yield its request when it queued, then
        its timer.  A failure on the way gives the slot back."""
        queued = hold.claim()
        try:
            if queued is not None:
                yield queued
            yield hold.run()
        except BaseException:
            hold.resource.release(hold.request)
            raise
        hold.end()

    def cpu_hold(self, seconds: float, tag: str = "preprocess") -> Optional["_Hold"]:
        """A core held for ``seconds`` of CPU, charged to ``stats`` when it
        ends; None when there is nothing to charge."""
        if seconds <= 0:
            return None
        return _Hold(self.cores, seconds, self.cpu_recorder, tag, self.stats)

    def cpu_busy(self, seconds: float, tag: str = "preprocess") -> Generator:
        """Consume CPU time on one core (queueing if all cores are busy)."""
        hold = self.cpu_hold(seconds, tag)
        if hold is not None:
            yield from self._occupy(hold)

    # -- training-side hooks ------------------------------------------------------------

    def train_step(self, gpu: int, seconds: float) -> Generator:
        """Execute one training step on a GPU (contends with DALI preprocess)."""
        return self._occupy(
            _Hold(self.gpus[gpu], seconds, self.gpu_recorders[gpu], "train")
        )

    def gpu_preprocess(self, gpu: int, seconds: float) -> Generator:
        return self._occupy(
            _Hold(self.gpus[gpu], seconds, self.gpu_recorders[gpu], "preprocess")
        )


class _Hold:
    """One slot of ``resource`` held for ``seconds`` and recorded as ``tag``
    (CPU seconds also charged to ``stats``) -- the one definition of a hold.

    A free slot is taken on the spot; the request is a kernel event only
    when it actually queued.  :meth:`SimContext._occupy` runs a hold as a
    process; :meth:`chain` runs it from completion callbacks.
    """

    __slots__ = ("resource", "seconds", "recorder", "tag", "stats", "request", "start", "then")

    def __init__(
        self,
        resource: Resource,
        seconds: float,
        recorder: IntervalRecorder,
        tag: str,
        stats: Optional[LoaderStats] = None,
    ) -> None:
        self.resource = resource
        self.seconds = seconds
        self.recorder = recorder
        self.tag = tag
        self.stats = stats

    def claim(self) -> Optional[Request]:
        """Take a slot: None when one was free, else the queued request,
        granted when it fires."""
        request = self.resource.try_request()
        if request is not None:
            self.request = request
            return None
        self.request = self.resource.request()
        return self.request

    def run(self) -> Event:
        """The slot is ours: hold it ``seconds``."""
        env = self.resource.env
        self.start = env.now
        return env.timeout(self.seconds)

    def end(self) -> None:
        self.recorder.record(self.start, self.resource.env.now, self.tag)
        self.resource.release(self.request)
        if self.stats is not None:
            self.stats.busy_seconds += self.seconds

    def chain(self, then: Callable[[], None]) -> None:
        """Run the hold from its events' callbacks; ``then()`` once it ended."""
        self.then = then
        queued = self.claim()
        if queued is None:
            self._granted()
        else:
            queued.callbacks.append(self._granted)

    def _granted(self, _event: Optional[Event] = None) -> None:
        self.run().callbacks.append(self._ended)

    def _ended(self, _event: Event) -> None:
        self.end()
        self.then()


class BaseSimLoader:
    """Common surface: batch stores + per-GPU consumption generators.

    A loader runs as one data-parallel rank.  :meth:`rebind_shard` clones
    it onto a rank's :class:`~repro.data.samplers.ShardedSampler` (the
    elastic executor does so at every epoch boundary) and pins the
    delivered-batch budget that keeps lockstep ranks in agreement; what it
    was not rebound with, :meth:`bind` takes from the workload as a world
    of one.  :meth:`halt` retires a failed node's stages.
    """

    name = "base"
    #: True for loaders that subdivide their node shard into fixed per-GPU
    #: streams of full batches (DALI): an elastic epoch budget must then be
    #: dealt equally per GPU (rounded up, wrap-around spill) because a
    #: round-robin batch deal would starve the tail of some GPU's stream
    per_gpu_sharding = False
    #: the transforms to run instead of the workload's (Pecan's AutoOrder)
    pipeline_override: Optional[Pipeline] = None

    def __init__(self) -> None:
        self.batch_stores: List[Store] = []
        self.ctx: Optional[SimContext] = None
        #: this rank's shard and delivered-batch budget (rebind_shard sets
        #: them, bind fills what it left None; the sampler carries layout,
        #: seed and elastic epoch offsets)
        self.sampler: Optional[ShardedSampler] = None
        self.total_batches: Optional[int] = None
        #: exact sample budget for sample-granular loaders (Minato); lets a
        #: one-epoch elastic round end after precisely one shard pass
        #: instead of rounding up to whole batches
        self.total_samples: Optional[int] = None
        self._halted = False

    def _check_shared_knobs(self, config_cls) -> None:
        """Refuse what the threaded loader refuses, by its own checks: build
        its config from the keywords the two share.  A ``None`` here means
        "derive from the machine" (or "off") and is left out."""
        shared = {f.name: getattr(self, f.name, None) for f in fields(config_cls)}
        config_cls(**{k: v for k, v in shared.items() if v is not None})

    def start(self, ctx: SimContext) -> None:
        raise NotImplementedError

    def bind(self, ctx: SimContext) -> None:
        """Attach to ``ctx`` as one rank: the shard and budgets this loader
        was not rebound with are the workload's own, a world of one --
        ``ShardedSampler(n, 0, 1, seed)`` is the full seeded shuffle.  The
        pipeline's cost table for the workload's dataset prices every
        sample (:meth:`~repro.transforms.base.Pipeline.cost_table`)."""
        self.ctx = ctx
        workload = ctx.workload
        self.pipeline = (
            workload.pipeline
            if self.pipeline_override is None
            else self.pipeline_override
        )
        self._costs = self.pipeline.cost_table(workload.dataset)
        n = len(workload.dataset)
        if self.sampler is None:
            self.sampler = ShardedSampler(n, rank=0, world_size=1, seed=self.seed)
        elif self.sampler.dataset_size != n:
            raise ConfigurationError(
                f"rebound sampler covers {self.sampler.dataset_size} "
                f"samples but the workload's dataset has {n}"
            )
        if self.total_batches is None:
            self.total_batches = workload.total_batches(ctx.num_gpus)
            if self.total_samples is None and workload.epochs is not None:
                # sampler length, not dataset length: a sharded rank feeds
                # only its (padded) slice per epoch
                self.total_samples = workload.epochs * len(self.sampler)
        if self.total_samples is None:
            self.total_samples = self.total_batches * workload.batch_size

    def halt(self) -> None:
        """Retire this loader's stages (elastic node failure).

        Blocked producers/consumers park on untriggered events and cost the
        kernel nothing, and so do Minato's idle stages -- but those owe the
        model a last poll: ``halt()`` kicks them, each retires at its own
        next poll tick, and a busy one retires when it next reaches its
        loop top.  A loader that has not started has nothing to retire, and
        one already halted stays halted: both calls are no-ops.
        """
        if self.ctx is not None:
            self._halted = True

    @property
    def stranded(self) -> Dict[str, int]:
        """Idle site -> stages parked behind a non-empty watched store,
        i.e. stranded by a state change that did not kick them (see
        :func:`run_until`).  Only Minato parks stages."""
        return {}

    def rebind_shard(
        self,
        sampler: ShardedSampler,
        total_batches_override: Optional[int] = None,
        total_samples_override: Optional[int] = None,
    ) -> "BaseSimLoader":
        """A fresh, not-yet-started clone of this loader bound to ``sampler``.

        Elastic training re-shards at epoch boundaries by re-deriving every
        surviving node's :class:`~repro.data.samplers.ShardedSampler`
        (``sampler.reshard(...)``) and re-creating the node's loader on the
        new shard -- DistributedSampler semantics: a sampler's rank/world are
        fixed at construction.  All run state is rebuilt by ``start()``.
        """
        clone = copy.copy(self)
        clone.ctx = None
        clone.batch_stores = []
        clone._halted = False
        clone.sampler = sampler
        clone.total_batches = total_batches_override
        clone.total_samples = total_samples_override
        return clone

    def _record(self, spec: SampleSpec) -> CostRecord:
        """``(cost profile, total cost, output bytes)``: the first visit to
        a sample, by any loader over this workload, walks it."""
        record = self._costs.get(spec.index)
        if record is None:
            profile, nbytes = self.pipeline.walk(spec)
            record = (tuple(profile), float(sum(profile)), nbytes)
            self._costs[spec.index] = record
        return record

    def total_cost(self, spec: SampleSpec) -> float:
        return self._record(spec)[1]

    def output_nbytes(self, spec: SampleSpec) -> int:
        return self._record(spec)[2]

    def cost_profile(self, spec: SampleSpec) -> Tuple[float, ...]:
        return self._record(spec)[0]

    def get_batch(self, gpu: int) -> Generator:
        """Process-style fetch; returns a SimBatch or None at end."""
        item = yield self.batch_stores[gpu].get()
        if item is END:
            return None
        return item


# ---------------------------------------------------------------------------
# PyTorch DataLoader semantics
# ---------------------------------------------------------------------------


class SimTorchLoader(BaseSimLoader):
    """Single-instance PyTorch-DataLoader model feeding all GPUs in order."""

    name = "pytorch"

    def __init__(
        self,
        num_workers: int = 12,
        prefetch_factor: int = 2,
        persistent_workers: bool = False,
        pin_memory_bandwidth: Optional[float] = 2.0 * 1024**3,
        worker_startup_seconds: float = 0.5,
        queue_capacity: int = 100,
        pipeline_override=None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_workers = num_workers
        self.prefetch_factor = prefetch_factor
        self.persistent_workers = persistent_workers
        self.pin_memory_bandwidth = pin_memory_bandwidth
        self.worker_startup_seconds = worker_startup_seconds
        self.queue_capacity = queue_capacity
        self.pipeline_override = pipeline_override
        self.seed = seed
        self._check_shared_knobs(TorchLoaderConfig)
        # inf is refused: a restarted worker that never starts stalls the run
        nonnegative("worker_startup_seconds", worker_startup_seconds)

    def start(self, ctx: SimContext) -> None:
        self.bind(ctx)
        env = ctx.env
        self.batch_stores = [
            Store(env, capacity=self.queue_capacity) for _ in range(ctx.num_gpus)
        ]
        env.process(self._orchestrator())

    def _orchestrator(self) -> Generator:
        ctx = self.ctx
        env = ctx.env
        sampler = self.sampler
        delivered = 0
        epoch = 0
        started_persistent = False
        # iteration-based workloads (Table 3) train on full batches only
        drop_last = ctx.workload.iterations is not None
        while delivered < self.total_batches:
            batches = BatchSampler(
                sampler, ctx.workload.batch_size, drop_last=drop_last
            ).epoch(epoch)
            if not batches:
                # an empty epoch can never advance `delivered`: without this
                # guard a shard smaller than one full batch (drop_last) spins
                # here forever instead of surfacing the unsatisfiable budget
                raise ConfigurationError(
                    f"sampler yields {len(sampler)} samples per epoch, not "
                    f"enough for one batch (batch_size="
                    f"{ctx.workload.batch_size}, drop_last={drop_last}); "
                    f"cannot deliver {self.total_batches} batches"
                )
            batches = batches[: self.total_batches - delivered]
            restart = not self.persistent_workers or not started_persistent
            if restart and self.worker_startup_seconds > 0:
                # worker pool (re)spawn: the pipeline is empty while workers
                # initialize -- the paper's epoch-boundary stall
                yield env.timeout(self.worker_startup_seconds)
            started_persistent = True
            events = [env.event() for _ in batches]
            workers = min(self.num_workers, max(1, len(batches)))
            permits = [Store(env) for _ in range(workers)]
            for w in range(workers):
                for _ in range(self.prefetch_factor):
                    permits[w].try_put(1)
            procs = []
            for w in range(workers):
                assigned = [(s, batches[s]) for s in range(w, len(batches), workers)]
                procs.append(env.process(self._worker(assigned, permits[w], events, epoch)))
            # in-order delivery with single-threaded collation
            for seq in range(len(batches)):
                batch: SimBatch = yield events[seq]
                if self.pin_memory_bandwidth is not None:
                    yield from ctx.cpu_busy(
                        batch.nbytes / self.pin_memory_bandwidth, tag="collate"
                    )
                gpu = delivered % ctx.num_gpus
                batch.gpu = gpu
                ctx.stats.batches_built += 1
                yield self.batch_stores[gpu].put(batch)
                permits[seq % workers].try_put(1)
                delivered += 1
            yield AllOf(env, procs)
            epoch += 1
        for store in self.batch_stores:
            yield store.put(END)

    def _worker(self, assigned, permit_store, events, epoch) -> Generator:
        ctx = self.ctx
        for seq, indices in assigned:
            yield permit_store.get()
            specs = [ctx.workload.dataset.spec(i) for i in indices]
            nbytes = 0
            for spec in specs:
                yield from ctx.read_sample(spec)
                cost = self.total_cost(spec)
                yield from ctx.cpu_busy(cost)
                nbytes += self.output_nbytes(spec)
                ctx.stats.samples_preprocessed += 1
            events[seq].succeed(
                SimBatch(specs=specs, nbytes=nbytes, built_at=ctx.env.now)
            )


class SimPecanLoader(SimTorchLoader):
    """Torch semantics over the AutoOrder-reordered pipeline (paper §5.1)."""

    name = "pecan"

    def start(self, ctx: SimContext) -> None:
        from ..transforms.classify import auto_order

        dataset = ctx.workload.dataset
        specs = [dataset.spec(i) for i in range(min(64, len(dataset)))]
        reordered, order = auto_order(ctx.workload.pipeline, specs)
        self.auto_order_permutation = order
        self.pipeline_override = reordered
        super().start(ctx)


# ---------------------------------------------------------------------------
# DALI semantics
# ---------------------------------------------------------------------------


class SimDALILoader(BaseSimLoader):
    """Per-GPU DALI pipeline: CPU loading + GPU batch preprocessing."""

    name = "dali"
    per_gpu_sharding = True

    def __init__(
        self,
        num_threads_per_gpu: int = 4,
        prefetch_queue_depth: int = 2,
        gpu_speedup: float = 10.0,
        cpu_decode_bandwidth: float = 2.0 * 1024**3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_threads_per_gpu = num_threads_per_gpu
        self.prefetch_queue_depth = prefetch_queue_depth
        self.gpu_speedup = gpu_speedup
        self.cpu_decode_bandwidth = cpu_decode_bandwidth
        self.seed = seed
        count("num_threads_per_gpu", num_threads_per_gpu)
        count("prefetch_queue_depth", prefetch_queue_depth)
        count("seed", seed, lo=0)
        positive("gpu_speedup", gpu_speedup)
        # inf is refused, as for every other bandwidth in the model
        positive("cpu_decode_bandwidth", cpu_decode_bandwidth)

    def start(self, ctx: SimContext) -> None:
        self.bind(ctx)
        env = ctx.env
        depth = self.prefetch_queue_depth
        batch = ctx.workload.batch_size
        self.batch_stores = [Store(env, capacity=depth) for _ in range(ctx.num_gpus)]
        self._raw_stores = [
            Store(env, capacity=depth * batch) for _ in range(ctx.num_gpus)
        ]
        per_gpu = (self.total_batches + ctx.num_gpus - 1) // ctx.num_gpus
        for gpu in range(ctx.num_gpus):
            needed = per_gpu * batch
            per_thread = needed // self.num_threads_per_gpu
            extra = needed - per_thread * self.num_threads_per_gpu
            stream = self._shard_stream(gpu)
            for t in range(self.num_threads_per_gpu):
                count = per_thread + (1 if t < extra else 0)
                env.process(self._load_stage(gpu, stream, count))
            env.process(self._gpu_stage(gpu, per_gpu))

    def _shard_stream(self, gpu: int) -> Iterator[int]:
        # DALI always shards per GPU: the node-level shard is subdivided
        # into one flat (node, gpu) rank space, keeping its seed / layout /
        # tail policy / elastic epoch offset
        sampler = self.sampler.reshard(
            world_size=self.sampler.world_size * self.ctx.num_gpus,
            rank=self.sampler.rank * self.ctx.num_gpus + gpu,
        )
        epoch = 0
        while True:
            for index in sampler.epoch(epoch):
                yield index
            epoch += 1

    def _load_stage(self, gpu: int, stream: Iterator[int], count: int) -> Generator:
        ctx = self.ctx
        for _ in range(count):
            index = next(stream)
            spec = ctx.workload.dataset.spec(index)
            yield from ctx.read_sample(spec)
            # host-side read/decode work before the GPU stage
            yield from ctx.cpu_busy(
                spec.raw_nbytes / self.cpu_decode_bandwidth, tag="decode"
            )
            yield self._raw_stores[gpu].put(spec)

    def _gpu_stage(self, gpu: int, target_batches: int) -> Generator:
        ctx = self.ctx
        batch_size = ctx.workload.batch_size
        for _ in range(target_batches):
            specs = []
            for _ in range(batch_size):
                spec = yield self._raw_stores[gpu].get()
                specs.append(spec)
            gpu_cost = sum(self.total_cost(s) for s in specs) / self.gpu_speedup
            yield from ctx.gpu_preprocess(gpu, gpu_cost)
            nbytes = sum(self.output_nbytes(s) for s in specs)
            ctx.stats.samples_preprocessed += len(specs)
            ctx.stats.batches_built += 1
            yield self.batch_stores[gpu].put(
                SimBatch(specs=specs, nbytes=nbytes, built_at=ctx.env.now, gpu=gpu)
            )
        yield self.batch_stores[gpu].put(END)


# ---------------------------------------------------------------------------
# MinatoLoader semantics
# ---------------------------------------------------------------------------


class _IdleSite:
    """The stages of one kind whose poll found nothing: parked, not polling.

    Algorithm 1 sleeps ``interval`` when a stage finds nothing to do and
    looks again.  Only the poll that finally *finds* something is model
    behaviour; the empty ones in between are not, so a stage that polls and
    finds nothing parks here on a plain event, remembering the instant of
    that empty poll, and costs the kernel nothing until somebody *kicks*
    the site.  A kick schedules every parked stage at **its own first poll
    tick at or after now** (:func:`repro.policy.first_tick`: the grid the
    sleeping poller would have walked, built by the same repeated
    addition), where it re-runs its loop top exactly as the poll would have
    -- retire, pick up, exit, or park again from that tick.

    Stages whose polls came up empty at the same instant walk the same grid
    from then on, so they share one wake event and resume from it in park
    order.  Every kick wakes *all* of the site, so they re-park together and
    keep their order; groups that meet on a tick for the first time wake in
    the order of their previous polls (:meth:`_armed_first`).  Either way
    stages poll in the order their poll timeouts would have been armed in.

    The contract: **every state change a stage's poll could observe kicks
    its site** (:meth:`SimMinatoLoader.start` lists them).  A kick too many
    is harmless -- the woken stage polls at an instant the poll loop polled
    at anyway; a kick too few strands work behind parked stages, which
    :func:`run_until` turns into a typed error.

    The tie rule: a stage kicked exactly *on* its tick polls at that
    instant, **after** the kicking event (the poll timeout that decided it
    by event id no longer exists).  That is right whenever the kicking
    event was armed more than a tick ago -- a scheduler tick, a failure,
    the end of a long transform; ``ties`` counts the uses, and the
    benchmark-shaped runs pin the count to zero.
    """

    def __init__(self, env: Environment, interval: float, watched) -> None:
        self.env = env
        self.interval = interval
        #: what the stages poll; ``len(watched) > 0`` with stages parked is
        #: a lost wake-up
        self.watched = watched
        #: (wake event, instant of its stages' empty polls), in park order
        self.parked: List[Tuple[Event, float]] = []
        self.ties = 0

    def __len__(self) -> int:
        """Stages parked here."""
        return sum(len(wake.callbacks) for wake, _at in self.parked)

    def park(self) -> Event:
        """The event to yield after a poll that found nothing: it fires at
        the caller's first tick after the next kick."""
        now = self.env.now
        if self.parked and self.parked[-1][1] == now:
            return self.parked[-1][0]
        wake = Event(self.env)
        self.parked.append((wake, now))
        return wake

    def kick(self) -> None:
        """Something these stages poll for changed."""
        if not self.parked:
            return
        env = self.env
        now = env.now
        parked, self.parked = self.parked, []
        due = [first_tick(at, self.interval, now)[0] for _wake, at in parked]
        self.ties += due.count(now)

        def by_arming(i: int, j: int) -> int:
            if due[i] != due[j]:
                return -1 if due[i] < due[j] else 1
            older, newer = min(i, j), max(i, j)
            first = self._armed_first(parked[older][1], parked[newer][1], due[i])
            return -1 if (i == older) == first else 1

        for i in sorted(range(len(due)), key=cmp_to_key(by_arming)):
            env.succeed_at(parked[i][0], due[i])

    def _armed_first(self, older: float, newer: float, tick: float) -> bool:
        """Two groups, parked at ``older`` and (after it) at ``newer``, are
        due at the same ``tick``: would the poll timeout of the older one
        have been armed first?  By their previous polls -- and where those
        coincide too, the ones before, back to the newer group's park,
        where the older group polled on its tick first."""
        while True:
            before_older = first_tick(older, self.interval, tick)[1]
            before_newer = first_tick(newer, self.interval, tick)[1]
            if before_older != before_newer or before_newer == newer:
                return before_older <= before_newer
            tick = before_older


def run_until(
    env: Environment,
    done: Event,
    loaders: Callable[[], Iterable[Tuple[str, "BaseSimLoader"]]],
) -> Any:
    """``env.run(until=done)`` for a driver.  A schedule that drains first
    is an :class:`EmptySchedule` as ever -- unless one of the ``(label,
    loader)`` pairs ``loaders()`` names has stages parked behind a
    non-empty store: then the run did not deadlock, a state change failed
    to kick them, and the error says where."""
    try:
        return env.run(until=done)
    except EmptySchedule:
        lost = [
            f"{label}: {loader.stranded}"
            for label, loader in loaders()
            if loader.stranded
        ]
        if not lost:
            raise
        raise SimulationError(
            "lost wake-up: stages still parked behind a non-empty store "
            f"(idle site -> parked stages) -- {'; '.join(lost)}"
        ) from None


class _LoadingWorker:
    """A loading worker: Algorithm 1's inline path as transitions fired by
    completion callbacks -- drawn, read, core granted, run done, routed (to
    the ready store, or handed off to the temp store) -- and drawn again.
    It starts the way a process does, on an urgent zero-delay event."""

    __slots__ = ("loader", "seq", "spec", "remote", "profile", "decision")

    def __init__(self, loader: "SimMinatoLoader") -> None:
        self.loader = loader
        _Initialize(loader.ctx.env, self._draw)

    def _draw(self, _event: Optional[Event] = None) -> None:
        loader = self.loader
        if loader._halted or loader._active_workers > loader._loading_target:
            return self._exit()
        item = loader._next_index()
        if item is None:
            return self._exit()
        _epoch, self.seq, index = item
        ctx = loader.ctx
        self.spec = ctx.workload.dataset.spec(index)
        landed, self.remote = ctx.fetch(self.spec)
        landed.callbacks.append(self._read)

    def _read(self, _event: Event) -> None:
        loader = self.loader
        spec = self.spec
        if self.remote:
            self.remote = False
            loader.ctx.nic_hop(spec.raw_nbytes).callbacks.append(self._read)
            return
        profile = self.profile = loader.cost_profile(spec)
        if loader.size_router is not None:
            # §3.2 heuristic: predict from raw size, no measurement
            decision = loader.size_router.plan(profile, spec.raw_nbytes)
        else:
            decision = loader.routing.plan(profile, loader.profiler.timeout())
        self.decision = decision
        # one hold per run: the core is kept across transform boundaries
        hold = loader.ctx.cpu_hold(decision.inline_seconds)
        if hold is None:
            self._ran()
        else:
            hold.chain(self._ran)

    def _ran(self) -> None:
        loader = self.loader
        decision = self.decision
        stats = loader.ctx.stats
        if decision.handoff_index is not None:
            stats.samples_timed_out += 1
            handoff = (self.spec, decision.handoff_index, self.profile, self.seq)
            # a temp store with room takes it at once on a settled instant:
            # draw again, no event (see SimMinatoLoader._put_ready)
            if loader.ctx.env.settled() and loader._temp_store.try_put(handoff):
                return self._draw()
            loader._temp_store.put(handoff).callbacks.append(self._draw)
            return
        loader.profiler.record(decision.total_seconds, flagged_slow=decision.flagged_slow)
        if decision.flagged_slow:
            stats.samples_timed_out += 1
        stats.samples_preprocessed += 1
        loader._emit_ready(self.seq, self.spec, decision.flagged_slow, self._draw)

    def _exit(self) -> None:
        self.loader._active_workers -= 1
        self.loader._kick("slow")


class _SlowWorker:
    """A slow-task worker: looks at the temp store -- picks a hand-off up,
    runs its background remainder on one core hold and routes it as slow --
    or parks on its idle site until a kick, and looks again."""

    __slots__ = ("loader", "item", "background")

    def __init__(self, loader: "SimMinatoLoader") -> None:
        self.loader = loader
        _Initialize(loader.ctx.env, self._look)

    def _look(self, _event: Optional[Event] = None) -> None:
        loader = self.loader
        if loader._halted or loader._active_slow > loader._slow_target:
            return self._exit()
        item = loader._temp_store.try_get()
        if item is None:
            if loader._background_exhausted():
                return self._exit()
            loader._idle["slow"].park().callbacks.append(self._look)
            return
        self.item = item
        _spec, resume_at, profile, _seq = item
        self.background = sum(profile[resume_at:])
        hold = loader.ctx.cpu_hold(self.background, tag="slow")
        if hold is None:
            self._ran()
        else:
            hold.chain(self._ran)

    def _ran(self) -> None:
        loader = self.loader
        spec, _resume_at, profile, seq = self.item
        stats = loader.ctx.stats
        stats.background_busy_seconds += self.background
        loader.profiler.record(sum(profile), flagged_slow=True)
        stats.samples_preprocessed += 1
        loader._emit_ready(seq, spec, True, self._look)

    def _exit(self) -> None:
        self.loader._active_slow -= 1


class _Builder:
    """One GPU's batch builder: fills each batch of its plan from the ready
    store -- taking a sample at its get event's delivery -- or, in strict
    order, from the reorder buffer (parking when the next one is not
    there), then puts the batch and starts the next."""

    __slots__ = ("loader", "gpu", "sizes", "take", "specs", "slow_flags", "nbytes")

    def __init__(self, loader: "SimMinatoLoader", gpu: int, batch_sizes: List[int]) -> None:
        self.loader = loader
        self.gpu = gpu
        self.sizes = iter(batch_sizes)
        _Initialize(loader.ctx.env, self._begin)

    def _begin(self, _event: Optional[Event] = None) -> None:
        loader = self.loader
        take = next(self.sizes, None)
        if take is None:
            loader._builders_done += 1
            store = loader.batch_stores[self.gpu]
            if not store.try_put(END):
                store.put(END)
            return
        self.take = take
        self.specs = []
        self.slow_flags = []
        self.nbytes = 0
        self._fill()

    def _fill(self, _event: Optional[Event] = None) -> None:
        loader = self.loader
        construction = loader.construction
        while len(self.specs) < self.take:
            if not construction.strict_order:
                loader._ready_store.get().callbacks.append(self._took)
                return
            got = construction.buffer.try_next()
            if got is None:
                if not loader._halted:  # else a dead node: its last poll
                    loader._idle["builder"].park().callbacks.append(self._fill)
                return
            # a release: the next sequence number may be buffered
            loader._kick("builder")
            self._add(got)
        loader.ctx.stats.batches_built += 1
        loader.batch_stores[self.gpu].put(
            SimBatch(
                specs=self.specs,
                nbytes=self.nbytes,
                built_at=loader.ctx.env.now,
                slow_count=sum(self.slow_flags),
                gpu=self.gpu,
                slow_flags=self.slow_flags,
            )
        ).callbacks.append(self._begin)

    def _took(self, event: Event) -> None:
        _key, item = event.value
        self._add(item)
        self._fill()

    def _add(self, item) -> None:
        spec, was_slow = item
        self.specs.append(spec)
        self.slow_flags.append(bool(was_slow))
        self.nbytes += self.loader.output_nbytes(spec)


class SimMinatoLoader(BaseSimLoader):
    """Algorithm 1 + adaptive worker scheduling, with preemptive accounting;
    an idle stage parks on its :class:`_IdleSite` instead of polling."""

    name = "minato"

    def __init__(
        self,
        workers_per_gpu: int = 12,
        slow_workers: Optional[int] = None,
        queue_capacity: int = 100,
        poll_interval: float = 0.010,
        timeout_percentile: float = 75.0,
        fallback_percentile: float = 90.0,
        warmup_samples: int = 64,
        timeout_override: Optional[float] = None,
        adaptive_workers: bool = True,
        max_workers: Optional[int] = None,
        min_workers: int = 1,
        scheduler_interval: float = 1.0,
        alpha: float = 2.0,
        beta: float = 2.0,
        cpu_threshold: float = 0.7,
        delta_clip: int = 2,
        preempt_grace_abs: float = 0.1,
        preempt_grace_rel: float = 0.2,
        classifier: str = "timeout",
        size_percentile: float = 75.0,
        reorder: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if classifier not in ("timeout", "size"):
            raise ConfigurationError(
                f"classifier must be 'timeout' or 'size', got {classifier!r}"
            )
        count("workers_per_gpu", workers_per_gpu)
        # inf is refused: an infinite grace times a zero stage cost is NaN
        # (a large finite grace is the cooperative spelling)
        nonnegative("preempt_grace_abs", preempt_grace_abs)
        nonnegative("preempt_grace_rel", preempt_grace_rel)
        interval("size_percentile", size_percentile, 0, 100)
        self.workers_per_gpu = workers_per_gpu
        #: None -> scale with the loading pool (a third), min 2
        self.slow_workers = slow_workers
        self.preempt_grace_abs = preempt_grace_abs
        self.preempt_grace_rel = preempt_grace_rel
        #: 'timeout' = Algorithm 1 (measure); 'size' = paper §3.2's image-size
        #: heuristic (predict slow from raw bytes) -- used for Fig. 3a
        self.classifier = classifier
        self.size_percentile = size_percentile
        #: False restores strict sample order (curriculum mode, paper §6)
        self.reorder = reorder
        self.queue_capacity = queue_capacity
        self.poll_interval = poll_interval
        self.timeout_percentile = timeout_percentile
        self.fallback_percentile = fallback_percentile
        self.warmup_samples = warmup_samples
        self.timeout_override = timeout_override
        self.adaptive_workers = adaptive_workers
        self.max_workers = max_workers
        self.min_workers = min_workers
        self.scheduler_interval = scheduler_interval
        self.alpha = alpha
        self.beta = beta
        self.cpu_threshold = cpu_threshold
        self.delta_clip = delta_clip
        self.seed = seed
        self._check_shared_knobs(MinatoConfig)
        self.worker_history: List[SchedulerDecision] = []
        self._idle: Dict[str, _IdleSite] = {}

    def start(self, ctx: SimContext) -> None:
        self.bind(ctx)
        env = ctx.env
        workload = ctx.workload
        cap = self.queue_capacity
        self.batch_stores = [Store(env, capacity=cap) for _ in range(ctx.num_gpus)]
        self._temp_store = Store(env, capacity=cap)
        # fast-before-slow retrieval (Algorithm 1's preference) without
        # polling: one priority store keyed by the construction policy's
        # priority (fast samples before slow ones)
        self._ready_store = PriorityStore(env, capacity=2 * cap)
        self.routing = RoutingPolicy(
            preemptive=True,
            grace_abs=self.preempt_grace_abs,
            grace_rel=self.preempt_grace_rel,
        )
        self.construction = BatchConstructionPolicy(strict_order=not self.reorder)
        # Where idle stages park, and the kick sites -- everything a poll
        # could have observed.  A new state change that a stage's loop top
        # reads must kick that stage's site:
        #   slow     <- a put on the temp store, a loading worker's exit,
        #               a _slow_target change, halt()
        #   builder  <- (strict order only) a sample entering the reorder
        #               buffer, a release from it, halt()
        watched = {
            "slow": self._temp_store,
            "builder": () if self.reorder else self.construction.buffer,
        }
        self._idle = {
            name: _IdleSite(env, self.poll_interval, polled)
            for name, polled in watched.items()
        }
        # holds the site, not self: a loader in a reference cycle outlives its run
        slow = self._idle["slow"]
        self._temp_store.on_change = lambda _now, _size: slow.kick()
        self.profiler = TimeoutProfiler(
            percentile=self.timeout_percentile,
            fallback_percentile=self.fallback_percentile,
            warmup_samples=self.warmup_samples,
            override=self.timeout_override,
        )
        initial = min(
            self.workers_per_gpu * ctx.num_gpus,
            max(self.min_workers, ctx.hardware.cpu_cores - ctx.num_gpus - 2),
        )
        self.slow_workers_effective = (
            self.slow_workers
            if self.slow_workers is not None
            else max(2, initial // 3)
        )
        hardware_cap = max(
            self.min_workers,
            ctx.hardware.cpu_cores - self.slow_workers_effective - ctx.num_gpus - 2,
        )
        self.max_workers_effective = (
            min(self.max_workers, hardware_cap)
            if self.max_workers is not None
            else hardware_cap
        )
        self.scaling = ScalingPolicy(
            scheduler=WorkerScheduler(
                alpha=self.alpha,
                beta=self.beta,
                cpu_threshold=self.cpu_threshold,
                delta_clip=self.delta_clip,
                min_workers=self.min_workers,
                max_workers=self.max_workers_effective,
            ),
            split_background=True,
            min_background=2,
        )
        self.worker_history = self.scaling.history

        self.size_router = (
            SizeRouter.from_dataset(workload.dataset, self.size_percentile)
            if self.classifier == "size"
            else None
        )

        #: the one ``(epoch, seq, index)`` stream every loading worker draws
        #: from, and how much of the sample budget is still to be drawn
        self._indices = index_stream(self.sampler)
        self._undrawn = self.total_samples
        plan = deal_batch_plan(self._undrawn, workload.batch_size, ctx.num_gpus)
        self._active_workers = 0
        self._active_slow = 0
        self._loading_target = min(initial, self.max_workers_effective)
        self._slow_target = self.slow_workers_effective
        self._builders_done = 0

        self._fill_pools()
        for gpu in range(ctx.num_gpus):
            self._start_builder(gpu, plan[gpu])
        if self.adaptive_workers:
            env.process(self._scheduler_proc())

    # -- idle stages ------------------------------------------------------------

    def _kick(self, *sites: str) -> None:
        for name in sites:
            self._idle[name].kick()

    def halt(self) -> None:
        if self.ctx is not None:  # else _idle is whatever a clone inherited
            super().halt()
            self._kick(*self._idle)

    @property
    def parked(self) -> Dict[str, int]:
        """Idle site -> stages currently parked there."""
        return {name: len(site) for name, site in self._idle.items()}

    @property
    def stranded(self) -> Dict[str, int]:
        return {
            name: len(site)
            for name, site in self._idle.items()
            if site.parked and len(site.watched) > 0
        }

    @property
    def tick_ties(self) -> int:
        """Kicks that landed exactly on a parked stage's tick (see
        :class:`_IdleSite`)."""
        return sum(site.ties for site in self._idle.values())

    # -- worker pool --------------------------------------------------------------

    def _fill_pools(self) -> None:
        """Spawn workers up to the pool targets.

        Shrinking is handled by the workers themselves: each checks its
        pool's target at the top of its loop and exits when the pool is
        over target (a blocked worker simply retires at its next loop).
        """
        if self._halted:
            return
        while self._undrawn and self._active_workers < self._loading_target:
            self._active_workers += 1
            self._start_loading_worker()
        if self._background_exhausted():
            # a slow-task worker would exit at its first look
            return
        while self._active_slow < self._slow_target:
            self._active_slow += 1
            self._start_slow_worker()

    def _start_loading_worker(self) -> None:
        _LoadingWorker(self)

    def _start_slow_worker(self) -> None:
        _SlowWorker(self)

    def _start_builder(self, gpu: int, batch_sizes: List[int]) -> None:
        _Builder(self, gpu, batch_sizes)

    def _background_exhausted(self) -> bool:
        """Nothing in the temp store and nobody left to put anything there:
        the slow-task pool has no work now or later."""
        return not (self._temp_store.items or self._undrawn or self._active_workers)

    # -- stage steps ------------------------------------------------------------------

    def _next_index(self) -> Optional[Tuple[int, int, int]]:
        """The next ``(epoch, seq, index)``; None once the budget is drawn."""
        if not self._undrawn:
            return None
        self._undrawn -= 1
        return next(self._indices)

    def _emit_ready(
        self, seq: int, spec: SampleSpec, flagged_slow: bool, then: Callable
    ) -> None:
        """Route one preprocessed sample through the construction policy --
        onto the ready store, or into the strict-order buffer -- and call
        ``then`` once it is there: at once, unless the ready store is full
        (then from the put's event)."""
        blocked = self.construction.route_ready(
            seq, (spec, flagged_slow), flagged_slow,
            put_fast=self._put_fast, put_slow=self._put_slow,
        )
        if self.construction.strict_order:
            self._kick("builder")
        if blocked is None:
            then()
        else:
            blocked.callbacks.append(then)

    def _put_fast(self, item) -> Optional[Event]:
        return self._put_ready((FAST_KEY, item))

    def _put_slow(self, item) -> Optional[Event]:
        return self._put_ready((SLOW_KEY, item))

    def _put_ready(self, entry) -> Optional[Event]:
        """Onto the ready store: None if it took ``entry`` at once, else the
        put to wait for.  The put is event-free only where its event would
        be delivered next anyway (:meth:`Environment.settled`): a
        continuation taken at once ahead of what the instant already queued
        -- a core grant, another stage's completion -- would claim a core
        or draw an index out of turn."""
        store = self._ready_store
        if self.ctx.env.settled() and store.try_put(entry):
            return None
        return store.put(entry)

    def _scheduler_proc(self) -> Generator:
        """Formulas 1-2 over the *total* preprocessing pool.

        The control law and the loading/background split live in
        :class:`~repro.policy.scaling.ScalingPolicy`; this process only
        samples the substrate's counters every interval and applies the
        returned pool targets.
        """
        ctx = self.ctx
        env = ctx.env
        self.scaling.reset(env.now)
        while self._builders_done < ctx.num_gpus and not self._halted:
            yield env.timeout(self.scheduler_interval)
            queue_fill = sum(
                len(store) / store.capacity for store in self.batch_stores
            ) / len(self.batch_stores)
            action = self.scaling.observe(
                now=env.now,
                busy_seconds=ctx.stats.busy_seconds,
                queue_fill=queue_fill,
                workers=max(1, self._loading_target + self._slow_target),
                background_busy_seconds=ctx.stats.background_busy_seconds,
                draining=not self._undrawn,
            )
            if action is None:
                continue
            self._loading_target = action.loading_target
            self._slow_target = action.background_target
            self._kick("slow")
            self._fill_pools()
