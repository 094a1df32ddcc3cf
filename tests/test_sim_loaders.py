"""Tests for the discrete-event loader models and the experiment runner."""

import gc
import re
import weakref
from dataclasses import replace

import pytest

from repro.engine import MODELS
from repro.errors import ConfigurationError
from repro.sim.kernel import AllOf, Environment
from repro.sim.loaders import (
    END,
    SimContext,
    SimDALILoader,
    SimMinatoLoader,
    SimPecanLoader,
    SimTorchLoader,
)
from repro.sim.runner import LOADER_NAMES, make_sim_loader, run_simulation
from repro.sim.workloads import (
    CONFIG_A,
    CONFIG_B,
    WORKLOAD_NAMES,
    HardwareConfig,
    WorkloadSpec,
    make_workload,
)
from repro.transforms.base import Pipeline

from .helpers import (
    StubDataset,
    StubTransform,
    on_checked_kernel,
    run_with_watchdog,
    stub_pipeline,
)

NAN = float("nan")


def tiny_workload(name="speech_3s", n=60, **kwargs):
    wl = make_workload(name, dataset_size=n, **kwargs)
    if wl.iterations is not None:
        # a couple of dozen batches keeps the runs fast
        wl = wl.scaled(0.02)
    else:
        wl = wl.scaled(0.04)  # 2 epochs of image segmentation
    return wl


# ---------------------------------------------------------------------------
# Workload / hardware specs
# ---------------------------------------------------------------------------


def test_workload_names_cover_paper():
    assert set(WORKLOAD_NAMES) == {
        "image_segmentation",
        "object_detection",
        "speech_3s",
        "speech_10s",
    }


def test_make_workload_table3_configs():
    seg = make_workload("image_segmentation")
    assert seg.batch_size == 3 and seg.epochs == 50
    det = make_workload("object_detection")
    assert det.batch_size == 48 and det.iterations == 1000
    sp = make_workload("speech_3s")
    assert sp.batch_size == 24 and sp.iterations == 1000


def test_make_workload_unknown_name():
    with pytest.raises(ConfigurationError):
        make_workload("quantum_chess")


def test_workload_total_batches():
    seg = make_workload("image_segmentation", dataset_size=30)
    # 30 samples x 50 epochs / batch 3 = 500
    assert seg.total_batches(4) == 500
    det = make_workload("object_detection")
    assert det.total_batches(4) == 1000
    assert det.batches_per_gpu(4) == 250


def test_workload_scaled():
    det = make_workload("object_detection").scaled(0.1)
    assert det.iterations == 100
    seg = make_workload("image_segmentation").scaled(0.1)
    assert seg.epochs == 5
    with pytest.raises(ConfigurationError):
        det.scaled(0.0)


def test_workload_requires_exactly_one_mode():
    det = make_workload("object_detection")
    with pytest.raises(ConfigurationError):
        WorkloadSpec(
            name="bad",
            dataset=det.dataset,
            pipeline=det.pipeline,
            model=det.model,
            batch_size=4,
        )


def test_hardware_configs_match_paper():
    assert CONFIG_A.cpu_cores == 128 and CONFIG_A.max_gpus == 4
    assert CONFIG_A.gpu_type == "a100" and CONFIG_A.storage.name == "lustre"
    assert CONFIG_B.cpu_cores == 80 and CONFIG_B.max_gpus == 8
    assert CONFIG_B.gpu_type == "v100" and CONFIG_B.storage.name == "nvme"


def test_hardware_memory_limit():
    limited = CONFIG_B.with_memory_limit(80 * 1024**3)
    assert limited.memory_bytes == 80 * 1024**3
    assert limited.cpu_cores == CONFIG_B.cpu_cores


def test_sim_context_validates_gpu_count():
    env = Environment()
    with pytest.raises(ConfigurationError):
        SimContext(env, tiny_workload(), CONFIG_A, num_gpus=5)


# ---------------------------------------------------------------------------
# Runner basics
# ---------------------------------------------------------------------------


def test_make_sim_loader_names():
    for name in LOADER_NAMES:
        assert make_sim_loader(name) is not None
    with pytest.raises(ConfigurationError):
        make_sim_loader("tf.data")


@pytest.mark.parametrize("loader", LOADER_NAMES)
def test_run_simulation_conserves_samples(loader):
    wl = tiny_workload()
    result = run_simulation(loader, wl, CONFIG_A, num_gpus=2)
    assert result.batches == wl.total_batches(2)
    # iteration-based workloads train on full batches only
    assert result.samples == wl.iterations * wl.batch_size
    assert result.training_time > 0
    assert result.trained_bytes > 0


@pytest.mark.parametrize("loader", LOADER_NAMES)
def test_run_simulation_epoch_workload_sample_budget(loader):
    wl = make_workload("image_segmentation", dataset_size=15).scaled(0.04)  # 2 epochs
    result = run_simulation(loader, wl, CONFIG_A, num_gpus=2)
    expected = wl.epochs * len(wl.dataset)
    if loader == "dali":
        # DALI's per-GPU pipelines always assemble full batches from their
        # cycling shard streams; it trains the same number of batches.
        assert result.batches == wl.total_batches(2)
        assert result.samples == wl.total_batches(2) * wl.batch_size
    else:
        assert result.samples == expected


def test_run_simulation_result_series_populated():
    wl = tiny_workload()
    result = run_simulation("minato", wl, CONFIG_A, num_gpus=2)
    assert result.throughput_series
    assert result.gpu_series
    assert result.cpu_series
    assert 0 <= result.mean_gpu_utilization <= 1
    assert 0 <= result.cpu_utilization <= 1
    # the disk stream counts from int 0; the result's total stays a float
    # (the benchmark digests hash its repr)
    assert type(result.bytes_from_disk) is float and result.bytes_from_disk > 0


def test_run_simulation_batch_log():
    wl = tiny_workload()
    result = run_simulation("minato", wl, CONFIG_A, num_gpus=1, keep_batch_log=True)
    assert len(result.batch_log) == result.batches
    for _t, gpu, size, nbytes, slow in result.batch_log:
        assert gpu == 0
        assert 1 <= size <= wl.batch_size
        assert nbytes > 0
        assert 0 <= slow <= size


def test_epoch_workload_partial_final_batch():
    wl = make_workload("image_segmentation", dataset_size=10).scaled(0.02)  # 1 epoch
    result = run_simulation("minato", wl, CONFIG_A, num_gpus=1, keep_batch_log=True)
    # 10 samples / batch 3 -> 3 full + 1 partial
    assert result.batches == 4
    assert sorted(b[2] for b in result.batch_log) == [1, 3, 3, 3]


# ---------------------------------------------------------------------------
# PyTorch model semantics
# ---------------------------------------------------------------------------


def test_sim_torch_in_order_delivery():
    """Delivery order equals sampler batch order even with cost variance."""
    env = Environment()
    wl = tiny_workload(n=48)
    ctx = SimContext(env, wl, CONFIG_A, num_gpus=1)
    loader = SimTorchLoader(num_workers=4, pin_memory_bandwidth=None)
    loader.start(ctx)
    got = []

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return
            got.append([s.index for s in batch.specs])

    done = env.process(consumer())
    env.run(until=done)
    from repro.data.samplers import BatchSampler, RandomSampler

    sampler = RandomSampler(len(wl.dataset), seed=0)
    expected = []
    epoch = 0
    while len(expected) < len(got):
        expected.extend(BatchSampler(sampler, wl.batch_size).epoch(epoch))
        epoch += 1
    assert got == expected[: len(got)]


def test_sim_torch_epoch_restart_costs_time():
    wl = make_workload("image_segmentation", dataset_size=12).scaled(0.06)  # 3 epochs
    slow_restart = run_simulation(
        "pytorch", wl, CONFIG_A, 1, loader_kwargs={"worker_startup_seconds": 5.0}
    )
    fast_restart = run_simulation(
        "pytorch", wl, CONFIG_A, 1, loader_kwargs={"worker_startup_seconds": 0.0}
    )
    assert slow_restart.training_time >= fast_restart.training_time + 10.0


def test_sim_torch_persistent_workers_skip_restarts():
    wl = make_workload("image_segmentation", dataset_size=12).scaled(0.06)
    restarting = run_simulation(
        "pytorch", wl, CONFIG_A, 1, loader_kwargs={"worker_startup_seconds": 5.0}
    )
    persistent = run_simulation(
        "pytorch",
        wl,
        CONFIG_A,
        1,
        loader_kwargs={"worker_startup_seconds": 5.0, "persistent_workers": True},
    )
    assert persistent.training_time < restarting.training_time


def test_sim_pecan_reorders_detection_pipeline():
    wl = tiny_workload("object_detection", n=200)
    result = run_simulation("pecan", wl, CONFIG_A, 1)
    permutation = result.extras["auto_order_permutation"]
    assert permutation[-1] == 0  # Resize2D (position 0) moved to the end


# ---------------------------------------------------------------------------
# DALI model semantics
# ---------------------------------------------------------------------------


def test_sim_dali_preprocesses_on_gpu():
    env = Environment()
    wl = tiny_workload(n=48)
    ctx = SimContext(env, wl, CONFIG_A, num_gpus=1)
    loader = SimDALILoader()
    loader.start(ctx)

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return
            yield from ctx.train_step(0, 0.1)

    env.run(until=env.process(consumer()))
    tags = {i.tag for i in ctx.gpu_recorders[0].intervals}
    assert "preprocess" in tags and "train" in tags
    pre = sum(
        i.duration for i in ctx.gpu_recorders[0].intervals if i.tag == "preprocess"
    )
    assert pre > 0


def test_sim_dali_gpu_contention_slows_training():
    """Sharing the GPU with preprocessing must cost wall time vs. Minato."""
    wl = tiny_workload("speech_3s", n=120)
    dali = run_simulation("dali", wl, CONFIG_A, 1)
    minato = run_simulation("minato", wl, CONFIG_A, 1)
    assert minato.training_time < dali.training_time


# ---------------------------------------------------------------------------
# Minato model semantics
# ---------------------------------------------------------------------------


def test_sim_minato_flags_heavy_samples_slow():
    wl = tiny_workload("speech_3s", n=240)
    result = run_simulation("minato", wl, CONFIG_A, 1, keep_batch_log=True)
    slow_delivered = sum(b[4] for b in result.batch_log)
    # Every 5th sample is heavy.  The P75 threshold flags all of those plus
    # a thin band of fast samples whose jitter lands above the percentile
    # (the paper observes the same: Minato's slow fraction is slightly above
    # the natural rate, Fig. 11c: 0.17 vs 0.15, 0.24 vs 0.23).
    natural = result.samples / 5
    assert natural * 0.8 <= slow_delivered <= natural * 2.2


def test_sim_minato_run_passes_the_kernel_referee(monkeypatch):
    """The same run -- profiler timeouts firing, slow samples interrupted
    mid-transform, their stale timers lazily cancelled -- on the checking
    kernel: every transition agrees with the reference heap, and the
    referee changes nothing."""
    wl = tiny_workload("speech_3s", n=240)

    def go():
        return run_simulation("minato", wl, CONFIG_A, 1, keep_batch_log=True)

    refereed = on_checked_kernel(monkeypatch, go)
    assert sum(b[4] for b in refereed.batch_log) > 0
    plain = go()
    assert refereed.training_time == plain.training_time
    assert refereed.batch_log == plain.batch_log
    assert refereed.gpu_utilization == plain.gpu_utilization


def test_sim_minato_beats_torch_on_every_workload():
    for name in WORKLOAD_NAMES:
        wl = tiny_workload(name, n=96)
        torch_r = run_simulation("pytorch", wl, CONFIG_A, 2)
        minato_r = run_simulation("minato", wl, CONFIG_A, 2)
        assert minato_r.training_time < torch_r.training_time, name


def test_sim_minato_gpu_utilization_exceeds_torch():
    wl = tiny_workload("image_segmentation", n=60)
    torch_r = run_simulation("pytorch", wl, CONFIG_A, 2)
    minato_r = run_simulation("minato", wl, CONFIG_A, 2)
    assert minato_r.mean_gpu_utilization > torch_r.mean_gpu_utilization


def test_sim_minato_worker_scheduler_ran():
    wl = tiny_workload("speech_3s", n=240)
    result = run_simulation("minato", wl, CONFIG_A, 2)
    history = result.extras["worker_history"]
    assert history
    max_total = max(d.new_workers for d in history)
    assert max_total > 24  # grew beyond the initial 12/GPU x 2
    hardware_budget = CONFIG_A.cpu_cores
    assert all(d.new_workers <= hardware_budget for d in history)


def test_sim_minato_adaptive_off_keeps_pool_fixed():
    wl = tiny_workload("speech_3s", n=120)
    result = run_simulation(
        "minato",
        wl,
        CONFIG_A,
        1,
        loader_kwargs={"adaptive_workers": False, "workers_per_gpu": 6},
    )
    assert result.extras["worker_history"] == []


def test_sim_minato_profiler_learns_timeout():
    wl = tiny_workload("speech_3s", n=240)
    result = run_simulation("minato", wl, CONFIG_A, 1)
    snap = result.extras["profiler"]
    # P75 of the speech distribution sits at the light-sample cost (~0.51 s)
    assert 0.4 < snap.timeout < 0.7


def test_sim_minato_preemption_discards_partial_work():
    """With re-execution, total slow-path CPU exceeds the pure remainder."""
    env = Environment()
    wl = tiny_workload("speech_3s", n=120)
    ctx = SimContext(env, wl, CONFIG_A, num_gpus=1)
    loader = SimMinatoLoader(timeout_override=0.51, adaptive_workers=False)
    loader.start(ctx)

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return

    env.run(until=env.process(consumer()))
    slow_busy = ctx.stats.background_busy_seconds
    heavy = sum(
        1 for s in wl.dataset.specs() if s.attr("heavy")
    ) * (wl.total_batches(1) * wl.batch_size // len(wl.dataset) + 1)
    # each heavy sample re-runs HeavyStep (~2.5 s) in the background
    assert slow_busy > 0


def test_sim_minato_background_cpu_lives_in_the_stats_record(monkeypatch):
    """Slow-path CPU is counted where the threaded engine counts it,
    ``LoaderStats.background_busy_seconds`` (it read 0.0 on this substrate
    while a private per-tag dict fed the scheduler), and the scheduler's
    decisions did not move with the counter."""
    contexts = []

    class Spy(SimContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr("repro.sim.runner.SimContext", Spy)
    result = run_simulation("minato", tiny_workload("speech_3s", n=240), CONFIG_A, 2)
    (ctx,) = contexts
    slow = [i.end - i.start for i in ctx.cpu_recorder.intervals if i.tag == "slow"]
    assert 0 < ctx.stats.background_busy_seconds < ctx.stats.busy_seconds
    assert ctx.stats.background_busy_seconds == pytest.approx(sum(slow))
    assert [d.new_workers for d in result.extras["worker_history"]] == [
        33, 35, 36, 38, 40, 42, 44, 46, 48, 50, 51, 53, 54, 56, 57,
    ]


def test_sim_minato_respects_core_capacity():
    """CPU utilization can never exceed the machine's core count."""
    wl = tiny_workload("speech_10s", n=240)
    result = run_simulation("minato", wl, CONFIG_A, 4)
    assert result.cpu_utilization <= 1.0
    for _t, frac in result.cpu_series:
        assert frac <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# CPU accounting: one core discipline for all four models
# ---------------------------------------------------------------------------

#: twelve or more CPU-side stages per model on a four-core machine
SMALL_POOL_LOADERS = {
    "pytorch": SimTorchLoader,
    "pecan": SimPecanLoader,
    "dali": lambda: SimDALILoader(num_threads_per_gpu=6),
    # min_workers lifts the pool over the hardware cap: 10 loading workers
    # and 2 slow-task workers; the 0.51 s budget hands every heavy sample off
    "minato": lambda timeout=0.51: SimMinatoLoader(
        workers_per_gpu=5, min_workers=10, timeout_override=timeout,
        adaptive_workers=False,
    ),
}


def run_on_a_small_pool(loader, cores=4, gpus=2):
    """Drain ``loader`` on a ``cores``-core CONFIG_A; returns the context
    and every delivered spec."""
    env = Environment()
    ctx = SimContext(
        env, tiny_workload("speech_3s", n=120), replace(CONFIG_A, cpu_cores=cores), gpus
    )
    loader.start(ctx)
    delivered = []

    def consumer(gpu):
        while True:
            batch = yield from loader.get_batch(gpu)
            if batch is None:
                return
            delivered.extend(batch.specs)
            yield from ctx.train_step(gpu, 0.05)

    env.run(until=AllOf(env, [env.process(consumer(g)) for g in range(gpus)]))
    return ctx, delivered


@pytest.mark.parametrize("name", SMALL_POOL_LOADERS)
def test_cpu_intervals_add_up_to_the_counters_on_an_oversubscribed_pool(name):
    """Every hold is recorded once and counted once: the recorder's
    intervals sum to ``busy_seconds``, the ``"slow"`` ones to
    ``background_busy_seconds`` (zero off Minato)."""
    ctx, delivered = run_on_a_small_pool(SMALL_POOL_LOADERS[name]())
    intervals = ctx.cpu_recorder.intervals
    assert delivered and ctx.stats.busy_seconds > 0
    if name != "dali":  # its preprocessing runs on the GPUs
        assert ctx.cpu_recorder.busy_seconds() > 2 * ctx.env.now  # cores did queue
    assert sum(i.duration for i in intervals) == pytest.approx(
        ctx.stats.busy_seconds, rel=1e-9
    )
    assert sum(i.duration for i in intervals if i.tag == "slow") == pytest.approx(
        ctx.stats.background_busy_seconds, rel=1e-9
    )
    assert (ctx.stats.background_busy_seconds > 0) == (name == "minato")


def test_sim_minato_records_one_interval_per_run():
    """One ``"preprocess"`` interval per inline run and one ``"slow"``
    interval per background run (of positive cost: a zero-cost hold is
    skipped) -- not one per transform."""
    loader = SMALL_POOL_LOADERS["minato"]()
    ctx, delivered = run_on_a_small_pool(loader)
    profiles = [loader.cost_profile(s) for s in delivered]
    plans = [loader.routing.plan(profile, 0.51) for profile in profiles]
    background = [
        sum(profile[plan.handoff_index:])
        for profile, plan in zip(profiles, plans)
        if plan.handoff_index is not None
    ]
    tags = [i.tag for i in ctx.cpu_recorder.intervals]
    assert len(background) == ctx.stats.samples_timed_out
    assert 0 < tags.count("slow") == sum(cost > 0 for cost in background)
    assert tags.count("preprocess") == sum(plan.inline_seconds > 0 for plan in plans)
    assert len(tags) < 2 * len(delivered) < sum(map(len, profiles))


def test_minato_and_pytorch_hold_a_core_equally_long_for_the_same_sample():
    """With the timeout at infinity nothing is handed off, and both models
    hold a core for ``total_cost(spec)`` per sample: Fig. 7/9 compare the
    loaders under one core discipline."""
    held = {}
    for name, loader in (
        ("minato", SMALL_POOL_LOADERS["minato"](timeout=float("inf"))),
        ("pytorch", SimTorchLoader()),
    ):
        ctx, delivered = run_on_a_small_pool(loader)
        holds = sorted(
            i.duration for i in ctx.cpu_recorder.intervals if i.tag == "preprocess"
        )
        held[name] = {s.index: loader.total_cost(s) for s in delivered}
        assert holds == pytest.approx(
            sorted(loader.total_cost(s) for s in delivered), rel=1e-9
        )
    shared = held["minato"].keys() & held["pytorch"].keys()
    assert len(shared) > 100
    assert all(held["minato"][i] == held["pytorch"][i] for i in shared)


def test_a_nan_cost_raises_at_the_hold_and_gives_the_slot_back():
    """``nan <= 0`` is false too, so a NaN cost gets past ``cpu_busy``'s
    early return; it must raise at the ``Timeout`` with the core released,
    not be dropped and not poison the clock.  Same for a GPU step."""
    env = Environment()
    ctx = SimContext(env, tiny_workload(), replace(CONFIG_A, cpu_cores=1), num_gpus=1)

    for bad, good, pool in (
        (ctx.cpu_busy(float("nan")), ctx.cpu_busy(0.5), ctx.cores),
        (ctx.train_step(0, float("nan")), ctx.train_step(0, 0.5), ctx.gpus[0]),
    ):
        start = env.now
        failed, fine = env.process(bad), env.process(good)
        with pytest.raises(ValueError, match="NaN delay"):
            env.run()
        env.run()
        assert not failed.ok and fine.ok
        assert env.now == start + 0.5 and pool.count == 0 and not pool.queue
    assert ctx.stats.busy_seconds == 0.5
    assert [i.duration for i in ctx.cpu_recorder.intervals] == [0.5]


def test_a_transform_whose_cost_is_nan_fails_the_run():
    """A user-defined ``Transform.cost`` returning NaN used to be charged as
    a hold that turned virtual time into NaN -- or, by Minato's routing plan
    during warm-up (every ``<= inf`` false), as a hold that never ends."""
    workload = WorkloadSpec(
        name="nan", dataset=StubDataset([0.01, float("nan"), 0.01, 0.01]),
        pipeline=stub_pipeline(2), model=MODELS["unet3d"], batch_size=2, epochs=1,
    )
    for loader in ("pytorch", "minato"):
        with pytest.raises(ConfigurationError, match="^the cost of Stage0 on sample 1 "):
            run_with_watchdog(
                lambda: run_simulation(loader, workload, CONFIG_A, 1), 10.0
            )


class _Priced(StubTransform):
    """Costs ``seconds`` on every sample, whatever its spec."""

    def __init__(self, seconds: float) -> None:
        super().__init__(label="Priced")
        self.seconds = seconds

    def cost(self, spec, state) -> float:
        return self.seconds


@pytest.mark.parametrize("seconds", [float("inf"), -1.0, float("nan")])
@pytest.mark.parametrize("loader", LOADER_NAMES)
def test_every_model_refuses_a_cost_that_is_not_a_real_number_ge_0(loader, seconds):
    """A cost model has one contract, the walk's: each model used to fail
    its own way -- Minato ran on past 20 s on ``inf``, PyTorch and Pecan
    popped an empty deque on it and ran ``-1`` as free, DALI reported
    ``training_time=inf``, and ``nan`` raised four different bare
    value errors."""
    workload = make_workload("speech_3s", dataset_size=48).scaled(0.01)
    workload = replace(
        workload, pipeline=Pipeline([*workload.pipeline, _Priced(seconds)])
    )
    with pytest.raises(
        ConfigurationError,
        match=rf"^the cost of Priced on sample \d+ must be a real number >= 0, "
        rf"got {re.escape(repr(seconds))}$",
    ):
        run_with_watchdog(lambda: run_simulation(loader, workload, CONFIG_A, 2), 20.0)


# ---------------------------------------------------------------------------
# One cost table per (dataset, transform sequence)
# ---------------------------------------------------------------------------


def test_every_model_and_run_reads_one_walk_per_sample(monkeypatch):
    """Two runs of each of the four models on one workload walk each sample
    once in total: the first visit writes the record every later model,
    run and rank reads.  Pecan's AutoOrder leaves this pipeline's order
    unchanged, so its pipeline shares the table too."""
    workload = make_workload("image_segmentation", dataset_size=12).scaled(0.04)
    walked = []
    walk = Pipeline.walk

    def counting(pipeline, spec):
        walked.append(spec.index)
        return walk(pipeline, spec)

    monkeypatch.setattr(Pipeline, "walk", counting)
    for loader in LOADER_NAMES:
        for _ in range(2):
            run_simulation(loader, workload, CONFIG_A, 2)
    assert sorted(walked) == list(range(len(workload.dataset)))


def test_two_datasets_under_one_pipeline_keep_their_own_records():
    """The table is per dataset as well as per transform sequence: one
    pipeline object over a cheap and a dear dataset prices each by its own
    specs, whichever ran first."""
    pipeline = stub_pipeline(2)
    runs = {}
    for cost in (0.01, 0.4):
        dataset = StubDataset([cost] * 8)
        workload = WorkloadSpec(
            name=f"stub-{cost}", dataset=dataset, pipeline=pipeline,
            model=MODELS["unet3d"], batch_size=2, epochs=2,
        )
        runs[cost] = (dataset, run_simulation("pytorch", workload, CONFIG_A, 1))
    for dataset, _result in runs.values():
        walks = [pipeline.walk(dataset.spec(i)) for i in range(8)]
        assert pipeline.cost_table(dataset) == {
            i: (tuple(profile), sum(profile), nbytes)
            for i, (profile, nbytes) in enumerate(walks)
        }
    assert runs[0.01][1].training_time < runs[0.4][1].training_time


def test_a_cost_table_is_collected_with_its_dataset():
    """The table is weak in its dataset: once the workload is gone, so is
    its table, and a sweep over many workloads does not accumulate them."""
    from repro.transforms import base

    gc.collect()  # earlier tests' workloads
    before = len(base._COST_TABLES)
    workload = make_workload("image_segmentation", dataset_size=6).scaled(0.02)
    run_simulation("minato", workload, CONFIG_A, 1)
    assert len(base._COST_TABLES) == before + 1
    dataset = weakref.ref(workload.dataset)
    del workload
    gc.collect()
    assert dataset() is None
    assert len(base._COST_TABLES) == before


# ---------------------------------------------------------------------------
# Memory-constrained behaviour (paper §5.5 mechanics)
# ---------------------------------------------------------------------------


def test_sim_memory_pressure_forces_disk_reads():
    wl = make_workload("image_segmentation", dataset_size=40).scaled(0.06)  # 3 epochs
    hardware = CONFIG_B.with_memory_limit(1 * 1024**3)  # 1 GB cache vs ~5 GB data
    pressured = run_simulation("minato", wl, hardware, 1)
    roomy = run_simulation("minato", wl, CONFIG_B, 1)
    assert pressured.bytes_from_disk > 2.5 * roomy.bytes_from_disk
    assert pressured.cache_hit_rate < 0.1
    assert roomy.cache_hit_rate > 0.5


# ---------------------------------------------------------------------------
# Degenerate knobs are refused at construction, not mid-run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,value",
    [
        ("scheduler_interval", 0),  # live-locked on env.timeout(0)
        ("scheduler_interval", -1.0),
        ("scheduler_interval", NAN),  # a NaN delay from the kernel, mid-run
        ("poll_interval", 0),  # ValueError from inside a generator's finally
        ("poll_interval", -0.01),
        ("poll_interval", NAN),  # a bare ValueError at start()
        ("timeout_override", NAN),  # accepted and run
        ("queue_capacity", 0),  # ValueError from Store, at start()
        ("workers_per_gpu", 0),
        ("min_workers", 0),
        ("preempt_grace_abs", -0.1),
        ("preempt_grace_abs", NAN),  # accepted and run
        ("preempt_grace_rel", -5.0),  # a bare ValueError at start()
        ("preempt_grace_rel", NAN),
        # numpy's ValueError at start(), with classifier="size"
        ("size_percentile", 150.0),
        ("size_percentile", -1.0),
        ("size_percentile", NAN),
        # the first scheduler tick's ValueError (NaN) or OverflowError (inf)
        ("alpha", NAN),
        ("beta", float("inf")),
        ("cpu_threshold", NAN),  # a bare ValueError at start()
        ("cpu_threshold", 1.0),
        ("delta_clip", NAN),  # accepted and run
    ],
)
def test_sim_minato_rejects_degenerate_knobs_at_construction(name, value):
    with pytest.raises(ConfigurationError, match=name):
        SimMinatoLoader(**{name: value})


@pytest.mark.parametrize(
    "loader,knob,value",
    [
        # ran to completion
        ("minato", "timeout_percentile", 150),
        ("minato", "fallback_percentile", 10),
        ("minato", "timeout_override", -1.0),
        # a bare IndexError inside the profiler
        ("minato", "warmup_samples", 0),
        # a ValueError once the run had started
        ("minato", "delta_clip", 0),
        ("minato", "max_workers", 0),
        # EmptySchedule: read as a deadlock
        ("pytorch", "num_workers", 0),
        ("pytorch", "prefetch_factor", 0),
        # silently disabled collation; NaN made every collation NaN seconds
        ("pytorch", "pin_memory_bandwidth", -1.0),
        ("pytorch", "pin_memory_bandwidth", float("nan")),
        # a ValueError from Store, at start()
        ("pytorch", "queue_capacity", 0),
        # silently run as 0
        ("pytorch", "worker_startup_seconds", -5.0),
        # ZeroDivisionError; with -1 the schedule drained, read as a deadlock
        ("dali", "num_threads_per_gpu", 0),
        ("dali", "num_threads_per_gpu", -1),
        # ZeroDivisionError; a negative bandwidth made decode free
        ("dali", "cpu_decode_bandwidth", 0.0),
        ("dali", "cpu_decode_bandwidth", -1.0),
        # unchecked: a ValueError from Store, a ZeroDivisionError and a
        # "NaN delay" from the kernel, all once the run had started
        ("dali", "prefetch_queue_depth", 0),
        ("dali", "gpu_speedup", 0.0),
        ("dali", "gpu_speedup", float("nan")),
    ],
)
def test_sim_loaders_refuse_what_the_threaded_configs_refuse(
    loader, knob, value, monkeypatch
):
    """The Torch and Minato models validate through ``TorchLoaderConfig`` /
    ``MinatoConfig`` themselves, so a knob value the threaded loader
    refuses is refused here too; the DALI model, which has no threaded
    twin, checks its own.  Either way at construction, before any kernel
    event."""

    def started(self, generator):
        raise AssertionError("the run started")

    monkeypatch.setattr(Environment, "process", started)
    with pytest.raises(ConfigurationError, match=knob):
        run_simulation(
            loader, tiny_workload(n=24), CONFIG_A, 1, loader_kwargs={knob: value}
        )


@pytest.mark.parametrize(
    "knob,value",
    [
        # ran with a NaN-sized page cache
        ("cache_fraction", float("nan")),
        # a StorageError once the run had started
        ("cache_fraction", -0.5),
        # the whole run simulated, then "bucket must be positive" or
        # "cannot convert float NaN to integer" when a series was read
        ("series_bucket", 0),
        ("series_bucket", -1),
        ("series_bucket", float("nan")),
    ],
)
def test_run_simulation_refuses_a_bad_knob_before_the_run(knob, value, monkeypatch):
    def started(self, generator):
        raise AssertionError("the run started")

    monkeypatch.setattr(Environment, "process", started)
    with pytest.raises(ConfigurationError, match=knob):
        run_simulation("minato", tiny_workload(n=24), CONFIG_A, 1, **{knob: value})


def test_rebound_loader_refuses_a_sampler_over_another_dataset():
    """``bind`` keeps the one check the rebound mode had: a shard cut from
    a different dataset size cannot index this workload.  Every loader now
    makes it (DALI cut its per-GPU shards without asking)."""
    from repro.data.samplers import ShardedSampler

    ctx = SimContext(Environment(), tiny_workload(n=24), CONFIG_A, num_gpus=1)
    for name in LOADER_NAMES:
        loader = make_sim_loader(name).rebind_shard(
            ShardedSampler(48, rank=0, world_size=2), total_batches_override=1
        )
        with pytest.raises(
            ConfigurationError,
            match="rebound sampler covers 48 samples but the workload's "
            "dataset has 24",
        ):
            loader.start(ctx)


# ---------------------------------------------------------------------------
# halt(): a dead node's stages retire on their own ticks, then nothing
# ---------------------------------------------------------------------------


def stalled_minato(**kwargs):
    """A Minato loader nobody consumes from: with two-deep queues the
    pipeline fills and every busy stage blocks on a full store; nothing is
    ever slow (no warm-up completes), so the slow-task workers idle from
    t = 0."""
    env = Environment()
    ctx = SimContext(env, tiny_workload(n=24), CONFIG_A, num_gpus=1)
    loader = SimMinatoLoader(
        adaptive_workers=False, queue_capacity=2, warmup_samples=10**6, **kwargs
    )
    return env, ctx, loader


def test_sim_minato_halt_before_start_and_twice_are_noops():
    env, ctx, loader = stalled_minato()
    loader.halt()  # not started: nothing to retire, and it stays startable
    assert not loader._halted
    loader.start(ctx)
    env.run(until=0.105)
    loader.halt()
    pending = len(env._queue)
    loader.halt()  # already halted: schedules nothing more
    assert loader._halted and len(env._queue) == pending


def test_sim_minato_halted_idle_stages_retire_on_their_own_ticks():
    """Halt at a non-tick instant: every idle stage leaves at its *own* next
    poll tick -- the instant its poll loop would have noticed -- not at the
    halt instant, and one poll interval later the kernel holds no event of
    the loader at all."""
    env, ctx, loader = stalled_minato(slow_workers=3, workers_per_gpu=4)
    loader.start(ctx)
    env.run(until=60.0137)
    assert not env._queue  # stalled: the idle stages cost nothing
    assert loader.parked["slow"] == 3 and loader._active_slow == 3
    loader.halt()
    assert loader.parked == {"slow": 0, "builder": 0}
    assert loader._active_slow == 3  # kicked, not gone: they owe a poll
    env.run(until=60.0199)
    assert loader._active_slow == 3
    env.run(until=60.0201)  # their grid: 0.0, 0.01, ... (60.02 and a few ulps)
    assert loader._active_slow == 0
    env.run(until=60.0137 + loader.poll_interval)
    assert not env._queue and not env._urgent and not env._normal
