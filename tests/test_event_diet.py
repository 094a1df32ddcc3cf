"""The simulator's event diet, checked against what it replaced.

``SimMinatoLoader``'s idle stages park instead of polling, a free core or GPU
is granted without a kernel event, and ``Environment.run`` scans its queue
once per delivery.  None of that may move a simulated bit; a sample's run of
transforms is one core hold, which is a model decision and is held to the
per-transform walk it replaced:

* the **refinement oracle** -- ``tests/helpers.PollingMinatoLoader`` keeps
  Algorithm 1's poll loop as the idle wait, and on random scenarios the
  parked loader must make every pick-up, deliver every batch and take every
  scheduler decision at the instant the polling one does, for fewer events;
* **no feeder** -- loading workers draw from the sampler: all start at
  t = 0, none ever waits a tick for an index, and a one-worker budget still
  ends;
* the **tie rule** on a grid-aligned cell, and **mutants** of the tick rule
  that the oracle must catch;
* **idle costs nothing**, an **event budget** on three small
  benchmark-shaped runs (counts repeat exactly, so the gate is
  machine-independent: a reintroduced poll loop, grant hop, per-transform
  hold, bucket process or per-chunk delivery event trips it), with no tick
  tie and nothing left parked on them, and no slow-task worker spawned
  only to exit;
* a **lost wake-up** is a typed error, not a bare ``EmptySchedule``;
* **one hold per run** -- ``tests/helpers.PerChunkMinatoLoader`` keeps the
  walk that gave the core back at every transform boundary: where nobody
  queues for a core the fused run is the same run for fewer events, and on
  an oversubscribed pool it conserves samples and CPU and keeps the makespan;
* **callback stages** -- ``tests/helpers.GeneratorMinatoLoader`` keeps a
  generator process per stage and an event per ready hand-off: the chained
  stages must make the same run of it, bit for bit, also where instants
  coincide; a builder that takes at put time must be caught; and a sample
  costs exactly its read, its run and the builder's get.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EmptySchedule, SimulationError
from repro.sim import loaders as loaders_module
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster, ClusterMembership, MembershipEvent
from repro.sim.distributed import AllReduceModel, JobSpec, run_elastic
from repro.sim.kernel import Environment
from repro.sim.loaders import SimContext, SimMinatoLoader
from repro.sim.runner import run_simulation
from repro.sim.scenarios import JobMix
from repro.sim.workloads import CONFIG_A, WorkloadSpec, make_workload

from .helpers import (
    GeneratorMinatoLoader,
    PerChunkMinatoLoader,
    PollingMinatoLoader,
    StubDataset,
    observe_minato,
    run_with_watchdog,
    stub_pipeline,
)

# ---------------------------------------------------------------------------
# (i) the refinement oracle
# ---------------------------------------------------------------------------

#: the discrete knobs of a scenario; everything continuous (costs, step
#: time, stall, halt instant) is drawn from ``cost_seed`` so that neither a
#: shrinker nor a round number can put an event exactly on a poll tick
KNOBS = {
    "samples": range(6, 41),
    "slow_fraction": (0.0, 0.1, 0.3, 0.6),
    "batch_size": range(1, 6),
    "gpus": (1, 2),
    "cores": (12, 16, 128),
    "epochs": (1, 2),
    "workers_per_gpu": range(1, 7),
    "slow_workers": (None, 1, 2, 4),
    "queue_capacity": (1, 2, 100),
    "poll_interval": (0.01, 0.003),
    "adaptive_workers": (False, True),
    "scheduler_interval": (0.0473, 0.1731, 0.5117),
    "reorder": (True, True, False),
    "timeout_override": (None, 0.03),
    "stalls": (False, False, True),
    "halts": (False, False, True),
    "seed": range(6),
    "cost_seed": range(1_000_000),
}

ANY_KNOBS = st.fixed_dictionaries(
    {name: st.sampled_from(list(values)) for name, values in KNOBS.items()}
)


def observed(loader_cls, knobs):
    rng = random.Random(knobs["cost_seed"])
    costs = [
        rng.uniform(0.05, 0.4)
        if rng.random() < knobs["slow_fraction"]
        else rng.uniform(0.001, 0.05)
        for _ in range(knobs["samples"])
    ]
    step = rng.uniform(0.001, 0.08)
    stall = (rng.randint(1, 3), rng.uniform(0.1, 1.0)) if knobs["stalls"] else None
    halt_at = rng.uniform(0.0, 0.6) if knobs["halts"] else None
    return observe_minato(
        loader_cls, costs, step=step, stall=stall, halt_at=halt_at,
        # a halted loader never ends its stream; an unlucky small pool can
        # wedge the model itself -- either way the horizon ends the run
        horizon=40.0,
        **{
            name: knobs[name]
            for name in (
                "batch_size", "gpus", "cores", "epochs", "workers_per_gpu",
                "slow_workers", "queue_capacity", "poll_interval",
                "adaptive_workers", "scheduler_interval", "reorder",
                "timeout_override", "seed",
            )
        },
        warmup_samples=4,
    )


def refines(knobs, ties_allowed=True) -> bool:
    parked = observed(SimMinatoLoader, knobs)
    polling = observed(PollingMinatoLoader, knobs)
    return (
        parked.transitions == polling.transitions
        and parked.events <= polling.events
        and (ties_allowed or parked.loader.tick_ties == 0)
    )


@settings(max_examples=60, deadline=None)
@given(knobs=ANY_KNOBS)
def test_parked_stages_refine_the_poll_loop(knobs):
    """Same pick-ups (instant, sample, kind of stage), same batches on the
    same GPUs, same scheduler history as the polling reference -- and never
    more kernel events."""
    assert refines(knobs)


def seeded_knobs(trial: int) -> dict:
    rng = random.Random(trial)
    return {name: rng.choice(list(values)) for name, values in KNOBS.items()}


def test_parked_stages_refine_the_poll_loop_on_200_seeded_scenarios():
    """The property's deterministic twin; on these continuous costs the
    tie rule is never needed, so the agreement does not lean on it."""
    failed = [
        trial for trial in range(200)
        if not refines(seeded_knobs(trial), ties_allowed=False)
    ]
    assert not failed


def test_a_finished_run_leaves_nothing_parked_and_nobody_alive():
    knobs = dict(
        seeded_knobs(0), samples=40, slow_fraction=0.3, halts=False, epochs=2,
        queue_capacity=100, adaptive_workers=True, reorder=True,
    )
    parked = observed(SimMinatoLoader, knobs)
    polling = observed(PollingMinatoLoader, knobs)
    assert parked.transitions == polling.transitions
    assert parked.events < polling.events
    loader = parked.loader
    assert loader.parked == {"slow": 0, "builder": 0}
    assert loader._active_workers == loader._active_slow == 0
    assert not loader.stranded


# ---------------------------------------------------------------------------
# no feeder: a loading worker draws from the sampler and never waits a tick
# ---------------------------------------------------------------------------


def test_loading_workers_all_start_at_t0_and_never_wait_for_an_index():
    """Four loading workers, twelve 7 ms samples, one-deep queues, a consumer
    that never stalls: all four pick up at t = 0 (with a feeder in front,
    three of them found its store empty and started at the first tick), and
    each draws its next index the instant it finished the last one -- three
    rounds 7 ms apart, none of them on the 10 ms poll grid."""
    run = observe_minato(
        SimMinatoLoader, [0.007] * 12, batch_size=1, n_stages=1, raw_nbytes=0,
        step=0.0, workers_per_gpu=4, slow_workers=1, queue_capacity=1,
        adaptive_workers=False, seed=0,
    )
    by_kind, batches, _history = run.transitions
    pickups = Counter(at for at, _index in by_kind["loading"])
    assert pickups == {0.0: 4, 0.007: 4, 0.014: 4}
    assert run.env.now == 0.021 and len(batches) == 12
    assert run.loader.parked == {"slow": 0, "builder": 0}  # no "loading" site


def test_a_one_worker_budget_keeps_a_slow_task_worker_and_the_run_ends():
    """Six cores for two GPUs and four slow-task workers cap the whole pool
    at one worker.  The split used to hand that one to the loading path and
    retire every slow-task worker while a hand-off sat blocked on the full
    temp store: the run never ended (the scheduler kept the schedule
    alive)."""
    rng = random.Random(3)
    costs = [
        rng.uniform(0.05, 0.4) if rng.random() < 0.5 else rng.uniform(0.001, 0.05)
        for _ in range(40)
    ]
    run = run_with_watchdog(
        lambda: observe_minato(
            SimMinatoLoader, costs, cores=6, gpus=2, slow_workers=4,
            workers_per_gpu=4, queue_capacity=1, warmup_samples=8,
        ),
        2.0,
    )
    assert sorted(i for batch in run.batches for i in batch[2]) == list(range(40))
    assert {d.new_workers for d in run.worker_history} == {1}
    assert run.loader._slow_target == 1


# ---------------------------------------------------------------------------
# (ii) the tie rule, on a grid where everything lands on a tick
# ---------------------------------------------------------------------------


def test_a_kick_on_a_tick_is_polled_at_that_instant_after_the_kicking_event():
    """Binary-exact costs and a 0.25 s poll interval: the loading worker
    picks the 2 s sample up at t = 0.25, runs out its 0.5 s budget and hands
    it to the temp store at t = 0.75 -- exactly the slow worker's third
    tick.  The documented rule: the slow worker polls at 0.75 *after* the
    hand-over and picks the sample up there, not one tick later, and the
    loader counts the tie.  (The poll loop agrees: the hand-over rides on a
    timeout armed two ticks ago, ahead of the poll timeout armed one tick
    ago.)"""
    cell = dict(
        costs=[2.0, 0.25, 0.25], batch_size=1, raw_nbytes=0, n_stages=1,
        workers_per_gpu=1, slow_workers=1, poll_interval=0.25,
        timeout_override=0.5, adaptive_workers=False, preempt_grace_abs=0.0,
        preempt_grace_rel=0.0, seed=0,
    )
    run = observe_minato(SimMinatoLoader, **cell)
    by_kind, _batches, _history = run.transitions
    assert by_kind["loading"] == [(0.0, 2), (0.25, 0), (0.75, 1)]
    assert by_kind["slow"] == [(0.75, 0)]
    assert run.loader.tick_ties == 1
    assert run.transitions == observe_minato(PollingMinatoLoader, **cell).transitions


# ---------------------------------------------------------------------------
# (iii) mutants of the tick rule
# ---------------------------------------------------------------------------


def kick_to_now(last_poll, interval, now):
    """Mutant: a kicked stage polls at once, not at its own tick."""
    return now, last_poll


def multiplied_tick(last_poll, interval, now):
    """Mutant: ``last_poll + k * interval`` for repeated addition."""
    k = 1
    while last_poll + k * interval < now:
        k += 1
    return last_poll + k * interval, last_poll + (k - 1) * interval


@pytest.mark.parametrize("mutant", [kick_to_now, multiplied_tick])
def test_the_oracle_catches_a_wrong_tick_rule(monkeypatch, mutant):
    monkeypatch.setattr(loaders_module, "first_tick", mutant)

    def caught(trial: int) -> bool:
        knobs = seeded_knobs(trial)
        parked = observed(SimMinatoLoader, knobs)
        return parked.transitions != observed(PollingMinatoLoader, knobs).transitions

    assert any(caught(trial) for trial in range(40))


# ---------------------------------------------------------------------------
# idle costs nothing
# ---------------------------------------------------------------------------


def test_a_stalled_consumer_costs_almost_no_events():
    """The consumer takes one batch and stalls for 10 virtual seconds;
    every queue fills and every stage blocks or parks.  The poll loop
    delivered about 100 events per idle stage per second of that; parked
    stages deliver none (what is left is the scheduler's 1 Hz tick)."""
    env = Environment()
    rng = random.Random(5)
    costs = [rng.uniform(0.002, 0.02) for _ in range(400)]
    workload = WorkloadSpec(
        name="stall", dataset=StubDataset(costs), pipeline=stub_pipeline(3),
        model=None, batch_size=4, epochs=1,
    )
    ctx = SimContext(env, workload, CONFIG_A, num_gpus=1)
    loader = SimMinatoLoader(queue_capacity=4, seed=0)
    loader.start(ctx)
    got = []

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return
            got.append(batch)
            if len(got) == 1:
                yield env.timeout(12.0)

    done = env.process(consumer())
    env.run(until=2.0)  # everything that can fill has filled
    assert all(store.is_full for store in loader.batch_stores)
    assert loader._ready_store.is_full
    settled = env.events_processed
    env.run(until=12.0)
    assert env.events_processed - settled <= 50
    env.run(until=done)
    assert sum(batch.size for batch in got) == len(costs)


# ---------------------------------------------------------------------------
# (iv) benchmark-shaped runs: event budget, no tie, nothing left parked
# ---------------------------------------------------------------------------


def single_node():
    workload = make_workload("speech_3s", dataset_size=240).scaled(0.02)
    return run_simulation("minato", workload, CONFIG_A, 2)


def quiet_elastic():
    return run_elastic(
        loader_name="minato",
        workload=make_workload("image_segmentation", dataset_size=48),
        hardware=CONFIG_A, membership=ClusterMembership(4), gpus_per_node=4,
        allreduce=AllReduceModel(latency=1e-4), fabric="ring",
        total_steps=4 * 16, cache_fraction=1.0, topology="hierarchical",
        overlap=True, buckets=4,
    )


def contended_mix():
    jobs = [
        JobSpec(
            job_id=job_id, loader="minato", workload_name="image_segmentation",
            dataset_size=48, total_steps=3 * 16, overlap=True, buckets=4,
            checkpoint=CheckpointPolicy(interval_steps=2, state_scale=8.0),
        )
        for job_id in ("tenant-a", "tenant-b")
    ]
    cluster = Cluster(
        membership=ClusterMembership(
            4, events=[MembershipEvent(kind="fail", node=1, time=2.0)]
        ),
        hardware=CONFIG_A, gpus_per_node=4, cache_fraction=0.6,
        topology="hierarchical", link_latency=1e-4, storage_over_nic=True,
    )
    return JobMix(jobs, cluster).run()


#: kernel events each run delivers now that a hand-off into a temp store
#: with room is event-free (with a put event per hand-off: 1 852, 4 299 and
#: 11 118); before that the Minato stages became chains of callback
#: transitions and the ready hand-off event-free (with a generator process
#: per stage: 2 436, 4 975 and 13 228); before that no
#: slow-task worker was spawned only to exit and a collapsed collective's
#: walk became one timer (before: 2 816, 5 591 and 15 326); ring
#: collectives are state machines and bucket all-reduces launch without a
#: process (with a process per bucket and an event per chunk delivery:
#: 6 991 and 18 638 for the two cluster runs); a sample's run is one core
#: hold (one hold per transform: 5 295, 7 759 and 19 934; with the feeder:
#: 5 779, 7 942 and 20 333; before the poll loops and grant hops left:
#: 10 563, 29 993 and 72 958)
MEASURED_EVENTS = {
    single_node: 1_722,
    quiet_elastic: 4_299,
    contended_mix: 11_118,
}


@pytest.mark.parametrize("scenario", list(MEASURED_EVENTS), ids=lambda f: f.__name__)
def test_event_budget_no_tie_and_nothing_left_parked(monkeypatch, scenario):
    kernels, started = [], []

    class Counted(Environment):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            kernels.append(self)

    start = SimMinatoLoader.start

    def recording_start(self, ctx):
        started.append(self)
        start(self, ctx)

    monkeypatch.setattr("repro.sim.cluster.Environment", Counted)
    monkeypatch.setattr("repro.sim.runner.Environment", Counted)
    monkeypatch.setattr(SimMinatoLoader, "start", recording_start)
    scenario()
    (kernel,) = kernels
    assert kernel.events_processed <= 1.1 * MEASURED_EVENTS[scenario]
    assert started
    for loader in started:
        assert loader.tick_ties == 0
        assert not loader.stranded
        if loader._builders_done == loader.ctx.num_gpus:  # it finished
            assert set(loader.parked.values()) == {0}
            assert loader._active_workers == loader._active_slow == 0


@pytest.mark.parametrize("scenario", list(MEASURED_EVENTS), ids=lambda f: f.__name__)
def test_no_slow_task_worker_is_spawned_only_to_exit(monkeypatch, scenario):
    """A slow-task worker spawned with the temp store empty, nothing left
    to draw and no loading worker alive would exit at its first look: it
    cost a start event and nobody saw it.  ``_fill_pools`` does not spawn
    one, so every worker looks more than once."""
    workers = []

    class Counted(loaders_module._SlowWorker):
        __slots__ = ("looks",)

        def __init__(self, loader) -> None:
            self.looks = 0
            super().__init__(loader)
            workers.append(self)

        def _look(self, _event=None) -> None:
            self.looks += 1
            super()._look(_event)

    monkeypatch.setattr(loaders_module, "_SlowWorker", Counted)
    scenario()
    assert workers
    assert all(worker.looks > 1 for worker in workers)


# ---------------------------------------------------------------------------
# (v) one hold per run, against the per-transform walk it replaced
# ---------------------------------------------------------------------------


def same_to_the_last_bits(ours, theirs) -> bool:
    """Two logs of ``(instant, *what)``: the same things in the same order,
    at instants equal to 1e-12 relative (``now + (a + b)`` against
    ``(now + a) + b``)."""
    return [entry[1:] for entry in ours] == [entry[1:] for entry in theirs] and all(
        a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-12) for a, b in zip(ours, theirs)
    )


def fuses_exactly_where_nobody_queues(knobs) -> int:
    """128 cores for at most 12 loading and 4 slow-task workers, scheduler
    off (it reads ``busy_seconds``, which a run now enters when it ends),
    hand-offs on: a transform boundary where the core comes straight back is
    a stuttering step, so both walks are one run.  Returns the hand-offs."""
    knobs = dict(
        knobs, cores=128, adaptive_workers=False, halts=False,
        slow_fraction=knobs["slow_fraction"] or 0.3,
    )
    fused = observed(SimMinatoLoader, knobs)
    walked = observed(PerChunkMinatoLoader, knobs)
    kinds, batches, _history = fused.transitions
    walked_kinds, walked_batches, _history = walked.transitions
    for kind in kinds:
        assert same_to_the_last_bits(kinds[kind], walked_kinds[kind]), kind
    assert same_to_the_last_bits(batches, walked_batches)
    assert fused.env.now == pytest.approx(walked.env.now, rel=1e-12)
    assert fused.events <= walked.events
    return fused.loader.ctx.stats.samples_timed_out


def oversubscribed(loader_cls, knobs):
    """800 samples on 2-4 cores behind 4-12 loading workers (``min_workers``
    lifts the pool over the hardware cap) and 4 slow-task workers; a 50 ms
    timeout hands exactly the designated slow samples off, so both
    disciplines charge every sample the same CPU and only the order in
    which the pool serves them differs."""
    rng = random.Random(knobs["cost_seed"])
    costs = [
        rng.uniform(0.05, 0.15)
        if rng.random() < max(0.1, min(knobs["slow_fraction"], 0.3))
        else rng.uniform(0.001, 0.05)
        for _ in range(800)
    ]
    per_gpu = max(4, knobs["workers_per_gpu"])
    return observe_minato(
        loader_cls, costs, step=0.001, cores=2 + knobs["seed"] % 3,
        workers_per_gpu=per_gpu, min_workers=per_gpu * knobs["gpus"],
        slow_workers=4, timeout_override=0.05, adaptive_workers=False,
        warmup_samples=4,
        **{
            name: knobs[name]
            for name in ("batch_size", "gpus", "queue_capacity", "poll_interval", "seed")
        },
    )


def conserves_on_an_oversubscribed_pool(knobs) -> None:
    """Past the point where cores queue the two disciplines are different
    schedulers, so no instant is compared: every sample is delivered once
    and charged its whole pipeline either way, and the makespan of a run
    800 holds long stays within 1 % (measured over 300 seeded scenarios: at
    most 0.37 %).  The bound leans on the background stage not being the
    bottleneck -- see DESIGN.md, "One hold per run", for the corners where
    the disciplines split the pool differently."""
    fused = oversubscribed(SimMinatoLoader, knobs)
    walked = oversubscribed(PerChunkMinatoLoader, knobs)
    ctx = fused.loader.ctx
    stats, walked_stats = ctx.stats, walked.loader.ctx.stats
    assert stats.busy_seconds > 0.9 * ctx.hardware.cpu_cores * fused.env.now  # saturated
    for run in (fused, walked):
        assert sorted(i for batch in run.batches for i in batch[2]) == list(range(800))
    assert stats.samples_preprocessed == walked_stats.samples_preprocessed == 800
    assert stats.samples_timed_out == walked_stats.samples_timed_out > 0
    costs = sum(spec.attr("cost") for spec in ctx.workload.dataset.specs())
    assert stats.busy_seconds == pytest.approx(walked_stats.busy_seconds, rel=1e-9)
    assert stats.busy_seconds >= (1 - 1e-9) * costs
    assert fused.env.now == pytest.approx(walked.env.now, rel=0.01)


#: two samples whose runs end one ulp apart when the walk sums its chunk
#: instants (``(now + a) + b``) and the fused hold its total (``now +
#: (a + b)``): they reached the ready store swapped until the walk ended a
#: run where the fused hold does
RUN_END_NEAR_TIE = {
    "samples": 17, "slow_fraction": 0.1, "batch_size": 2, "gpus": 2,
    "cores": 12, "epochs": 2, "workers_per_gpu": 2, "slow_workers": None,
    "queue_capacity": 1, "poll_interval": 0.01, "adaptive_workers": False,
    "scheduler_interval": 0.0473, "reorder": True, "timeout_override": None,
    "stalls": False, "halts": False, "seed": 1, "cost_seed": 4477,
}


@settings(max_examples=40, deadline=None)
@given(knobs=ANY_KNOBS)
@example(knobs=RUN_END_NEAR_TIE)
def test_one_hold_per_run_is_the_walk_where_nobody_queues(knobs):
    fuses_exactly_where_nobody_queues(knobs)


@settings(max_examples=10, deadline=None)
@given(knobs=ANY_KNOBS)
def test_one_hold_per_run_conserves_on_an_oversubscribed_pool(knobs):
    conserves_on_an_oversubscribed_pool(knobs)


def test_one_hold_per_run_against_the_walk_on_seeded_scenarios():
    """The two properties' deterministic twin."""
    handoffs = sum(
        fuses_exactly_where_nobody_queues(seeded_knobs(trial)) for trial in range(100)
    )
    assert handoffs > 500
    for trial in range(20):
        conserves_on_an_oversubscribed_pool(seeded_knobs(trial))


# ---------------------------------------------------------------------------
# (vi) callback stages, against the generator processes they replaced
# ---------------------------------------------------------------------------

#: what the referee adds to the scenario knobs: costs, steps and halts on a
#: binary grid (``None``: continuous) so that completions coincide, cores
#: that the pool oversubscribes, raw sizes that vary (and can be zero), and
#: the size classifier
REFEREE_KNOBS = {
    "quantum": (None, 2.0**-6, 2.0**-8),
    "cores": (2, 4, 12, 128),
    "oversubscribe": (False, True),
    "sizes": ("fixed", "varied", "zero"),
    "classifier": ("timeout", "timeout", "size"),
}

ANY_REFEREE_KNOBS = st.fixed_dictionaries(
    {
        name: st.sampled_from(list(values))
        for name, values in {**KNOBS, **REFEREE_KNOBS}.items()
    }
)


def refereed(loader_cls, knobs):
    rng = random.Random(knobs["cost_seed"])
    quantum = knobs["quantum"]

    def draw(low: float, high: float) -> float:
        value = rng.uniform(low, high)
        return value if quantum is None else max(1, round(value / quantum)) * quantum

    costs = [
        draw(0.05, 0.4) if rng.random() < knobs["slow_fraction"] else draw(0.001, 0.05)
        for _ in range(knobs["samples"])
    ]
    sizes = {
        "fixed": 1024,
        "varied": [rng.choice((256, 1024, 4096)) for _ in costs],
        "zero": 0,
    }[knobs["sizes"]]
    step = draw(0.001, 0.08)
    stall = (rng.randint(1, 3), draw(0.1, 1.0)) if knobs["stalls"] else None
    halt_at = draw(0.0, 0.6) if knobs["halts"] else None
    per_gpu = knobs["workers_per_gpu"]
    return observe_minato(
        loader_cls, costs, step=step, stall=stall, halt_at=halt_at, horizon=40.0,
        raw_nbytes=sizes, warmup_samples=4,
        # min_workers lifts the loading pool over what the cores can serve
        min_workers=per_gpu * knobs["gpus"] if knobs["oversubscribe"] else 1,
        **{
            name: knobs[name]
            for name in (
                "batch_size", "gpus", "cores", "epochs", "workers_per_gpu",
                "slow_workers", "queue_capacity", "poll_interval",
                "adaptive_workers", "scheduler_interval", "reorder",
                "timeout_override", "seed", "classifier",
            )
        },
    )


def same_run(ours, theirs) -> bool:
    return (
        ours.transitions == theirs.transitions
        and ours.loader.ctx.stats == theirs.loader.ctx.stats
        and ours.env.now == theirs.env.now
    )


def callbacks_refine_generators(knobs) -> bool:
    chained = refereed(SimMinatoLoader, knobs)
    processes = refereed(GeneratorMinatoLoader, knobs)
    return same_run(chained, processes) and chained.events < processes.events


#: two scenarios where an event-free hand-off once ran its continuation
#: ahead of what the instant had already queued: on a growing pool with
#: free cores a slow-task worker then picked the last hand-off up at
#: another instant; on an oversubscribed pool a slow-task worker's next
#: core claim went ahead of a queued core grant, so two holds ended
#: swapped and two samples reached the ready store swapped
HANDOFF_AHEAD_OF_THE_INSTANT = (
    {
        "samples": 26, "slow_fraction": 0.3, "batch_size": 3, "gpus": 1,
        "cores": 128, "epochs": 2, "workers_per_gpu": 1, "slow_workers": None,
        "queue_capacity": 2, "poll_interval": 0.003, "adaptive_workers": True,
        "scheduler_interval": 0.0473, "reorder": True, "timeout_override": None,
        "stalls": False, "halts": False, "seed": 5, "cost_seed": 26074,
        "quantum": 2.0**-6, "oversubscribe": False, "sizes": "zero",
        "classifier": "timeout",
    },
    {
        "samples": 6, "slow_fraction": 0.3, "batch_size": 1, "gpus": 1,
        "cores": 2, "epochs": 2, "workers_per_gpu": 2, "slow_workers": None,
        "queue_capacity": 1, "poll_interval": 0.01, "adaptive_workers": False,
        "scheduler_interval": 0.0473, "reorder": True, "timeout_override": 0.03,
        "stalls": False, "halts": False, "seed": 1, "cost_seed": 1425,
        "quantum": 2.0**-6, "oversubscribe": True, "sizes": "zero",
        "classifier": "timeout",
    },
)


@settings(max_examples=60, deadline=None)
@given(knobs=ANY_REFEREE_KNOBS)
@example(knobs=HANDOFF_AHEAD_OF_THE_INSTANT[0])
@example(knobs=HANDOFF_AHEAD_OF_THE_INSTANT[1])
def test_callback_stages_refine_the_generator_stages(knobs):
    """Same pick-ups, batches, scheduler history, stats and end instant as
    a generator process per stage -- on coincident instants, oversubscribed
    cores, halts, strict order and the size classifier too -- and fewer
    kernel events."""
    assert callbacks_refine_generators(knobs)


def seeded_referee_knobs(trial: int) -> dict:
    rng = random.Random(10_000 + trial)
    return {
        name: rng.choice(list(values))
        for name, values in {**KNOBS, **REFEREE_KNOBS}.items()
    }


def test_callback_stages_refine_the_generator_stages_on_200_seeded_scenarios():
    """The property's deterministic twin."""
    failed = [
        trial for trial in range(200)
        if not callbacks_refine_generators(seeded_referee_knobs(trial))
    ]
    assert not failed


class EagerBuilderMinatoLoader(SimMinatoLoader):
    """Mutant: a builder waiting on the ready store takes a sample the
    instant it is put, instead of at its get event's delivery."""

    def _put_ready(self, entry):
        store = self._ready_store
        if not store._getters:
            return super()._put_ready(entry)
        get = store._getters.popleft()
        get._ok, get._value = True, entry
        callbacks, get.callbacks = get.callbacks, None
        for callback in callbacks:
            callback(get)
        return None


def test_the_referee_catches_a_builder_that_takes_at_put_time():
    """Where samples land together -- zero-byte reads, costs on a 1/64 s
    grid, two builders sharing the ready store -- a builder that takes at
    put time asks for its next sample ahead of the other builder's pending
    event and gets a sample that was not its own."""

    def caught(trial: int) -> bool:
        knobs = dict(
            seeded_referee_knobs(trial), quantum=2.0**-6, sizes="zero",
            gpus=2, reorder=True, halts=False, samples=40,
        )
        return not same_run(
            refereed(EagerBuilderMinatoLoader, knobs),
            refereed(GeneratorMinatoLoader, knobs),
        )

    assert any(caught(trial) for trial in range(40))


class _CountingEnvironment(Environment):
    """Counts delivered events by type."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds = Counter()

    def _pop_next(self):
        event = super()._pop_next()
        if event is not None:
            self.kinds[type(event).__name__] += 1
        return event


def test_a_sample_costs_its_two_timed_events_and_the_builders_get():
    """One loading worker, free cores, nothing slow: a second epoch of n
    cache-hit samples in n / b batches adds, per sample, its DRAM copy and
    its run (two ``Timeout``s) and the builder's get (a ``StoreGet``), and
    per batch its put, the consumer's get and the training step -- nothing
    else.  A per-sample zero-delay hop coming back fails this count."""
    n, b = 24, 4

    def kinds(epochs: int) -> Counter:
        run = observe_minato(
            SimMinatoLoader, [0.01] * n, batch_size=b, epochs=epochs,
            workers_per_gpu=1, slow_workers=2, adaptive_workers=False,
            warmup_samples=10_000, seed=0, env_cls=_CountingEnvironment,
        )
        assert run.loader.ctx.stats.samples_preprocessed == n * epochs
        return run.env.kinds

    one, two = kinds(1), kinds(2)
    assert two - one == Counter(
        Timeout=2 * n + n // b, StoreGet=n + n // b, StorePut=n // b
    )
    assert sum(two.values()) - sum(one.values()) == 3 * n + 3 * n // b


def _handed_off(loader_cls, workers_per_gpu: int, n: int = 24, b: int = 4):
    """Every sample times out after 50 ms and is handed off into a temp
    store that always has room."""
    return observe_minato(
        loader_cls, [0.2] * n, batch_size=b, workers_per_gpu=workers_per_gpu,
        slow_workers=2, adaptive_workers=False, timeout_override=0.05,
        queue_capacity=n, seed=0, env_cls=_CountingEnvironment,
    )


def test_a_handoff_into_a_temp_store_with_room_delivers_no_put():
    """One loading worker, so no other stage's completion is queued at a
    hand-off's instant: the only puts delivered are the builders' batch
    puts.  The referee waits on a put event per hand-off and per ready
    sample."""
    n, b = 24, 4
    ours = _handed_off(SimMinatoLoader, 1, n, b)
    referee = _handed_off(GeneratorMinatoLoader, 1, n, b)
    assert ours.loader.ctx.stats.samples_timed_out == n
    assert same_run(ours, referee)
    assert ours.env.kinds["StorePut"] == n // b
    assert referee.env.kinds["StorePut"] >= n // b + 2 * n


def test_a_handoff_on_an_instant_with_work_queued_waits_for_its_put():
    """Two loading workers in lock step: each hand-off finds the other
    worker's completion (or its put) queued at the same instant, so it
    waits for its put event as the referee does -- one put per hand-off
    on top of the batch puts -- and the run is still the referee's, for
    fewer events."""
    n, b = 24, 4
    ours = _handed_off(SimMinatoLoader, 2, n, b)
    referee = _handed_off(GeneratorMinatoLoader, 2, n, b)
    assert ours.loader.ctx.stats.samples_timed_out == n
    assert same_run(ours, referee)
    assert ours.env.kinds["StorePut"] == n // b + n
    assert ours.events < referee.events


# ---------------------------------------------------------------------------
# a lost wake-up is a typed error
# ---------------------------------------------------------------------------


def test_a_missed_kick_is_reported_as_a_lost_wake_up(monkeypatch):
    """Unhook the temp store's kick: slow samples pile up behind parked
    slow-task workers, the schedule drains, and the driver says which
    loader lost a wake-up instead of a bare 'schedule drained'."""
    start = SimMinatoLoader.start

    def deaf_start(self, ctx):
        start(self, ctx)
        self._temp_store.on_change = None

    monkeypatch.setattr(SimMinatoLoader, "start", deaf_start)
    workload = make_workload("speech_3s", dataset_size=240).scaled(0.02)
    with pytest.raises(SimulationError, match=r"lost wake-up.*minato.*'slow'") as info:
        run_simulation(
            "minato", workload, CONFIG_A, 1,
            loader_kwargs={"adaptive_workers": False},
        )
    assert not isinstance(info.value, EmptySchedule)


def test_a_genuine_deadlock_still_surfaces_as_empty_schedule():
    """Nothing parked behind work: the drained schedule is reported as
    before."""
    env = Environment()
    with pytest.raises(EmptySchedule, match="drained before the target"):
        loaders_module.run_until(env, env.event(), lambda: [])
