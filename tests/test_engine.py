"""Tests for the training engine: devices, metrics, step models, trainer."""

import threading

import pytest

from repro.clock import ScaledClock, ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.engine import (
    MODELS,
    IntervalRecorder,
    SimulatedGPU,
    StepTimeModel,
    ThroughputMeter,
    Trainer,
    average_utilization,
    utilization_series,
)
from repro.errors import ConfigurationError

from .helpers import mixed_cost_dataset, stub_pipeline


# ---------------------------------------------------------------------------
# SimulatedGPU
# ---------------------------------------------------------------------------


def test_gpu_execute_charges_clock():
    clock = ScaledClock(scale=0.02)
    gpu = SimulatedGPU(0, clock)
    start, end = gpu.execute(0.5, tag="train")
    # sleeps never undershoot; allow generous overshoot for CI noise
    assert 0.45 <= end - start <= 3.0
    assert gpu.busy_seconds("train") == pytest.approx(end - start)


def test_gpu_rejects_negative_work():
    gpu = SimulatedGPU(0, ScaledClock(0.001))
    with pytest.raises(ValueError):
        gpu.execute(-1)


def test_gpu_serializes_concurrent_work():
    clock = ScaledClock(scale=0.02)
    gpu = SimulatedGPU(0, clock)

    def work():
        gpu.execute(0.2, tag="a")

    threads = [threading.Thread(target=work) for _ in range(4)]
    t0 = clock.now()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = clock.now() - t0
    # serialized: 4 x 0.2 = 0.8 virtual seconds (lower bound only)
    assert elapsed >= 0.75
    intervals = sorted(gpu.intervals, key=lambda i: i.start)
    for a, b in zip(intervals, intervals[1:]):
        assert b.start >= a.end - 1e-6  # no overlap


def test_gpu_utilization_window():
    clock = ScaledClock(scale=0.02)
    gpu = SimulatedGPU(0, clock)
    gpu.execute(0.5)
    clock.sleep(0.5)
    end = clock.now()
    util = gpu.utilization(0.0, end)
    assert 0.2 < util < 0.8


def test_gpu_utilization_by_tag():
    clock = ScaledClock(scale=0.02)
    gpu = SimulatedGPU(0, clock)
    gpu.execute(0.2, tag="train")
    gpu.execute(0.2, tag="preprocess")
    end = clock.now()
    total = gpu.utilization(0.0, end)
    train_only = gpu.utilization(0.0, end, tag="train")
    assert total > train_only


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_interval_recorder_and_average_utilization():
    rec = IntervalRecorder("cpu")
    rec.record(0.0, 1.0)
    rec.record(2.0, 3.0)
    assert rec.busy_seconds() == pytest.approx(2.0)
    assert average_utilization(rec.intervals, 0.0, 4.0) == pytest.approx(0.5)


def test_average_utilization_with_capacity():
    rec = IntervalRecorder()
    rec.record(0.0, 4.0)
    rec.record(0.0, 4.0)
    # two busy units over a capacity of 4 cores
    assert average_utilization(rec.intervals, 0.0, 4.0, capacity=4) == pytest.approx(0.5)


def test_interval_recorder_rejects_inverted_interval():
    rec = IntervalRecorder()
    with pytest.raises(ValueError):
        rec.record(2.0, 1.0)
    assert rec.intervals == []


def test_utilization_series_buckets():
    rec = IntervalRecorder()
    rec.record(0.0, 1.0)
    rec.record(2.5, 3.0)
    series = utilization_series(rec.intervals, 0.0, 4.0, bucket=1.0)
    values = dict(series)
    assert values[0.0] == pytest.approx(1.0)
    assert values[1.0] == pytest.approx(0.0)
    assert values[2.0] == pytest.approx(0.5)


def test_utilization_series_validates_bucket():
    with pytest.raises(ValueError):
        utilization_series([], 0, 1, bucket=0)


def test_throughput_meter_series_and_average():
    meter = ThroughputMeter()
    meter.record(0.5, 100)
    meter.record(1.5, 300)
    assert meter.total_bytes() == 400
    series = dict(meter.series(bucket=1.0))
    assert series[0.0] == pytest.approx(100.0)
    assert series[1.0] == pytest.approx(300.0)
    assert meter.average_rate(0.0, 2.0) == pytest.approx(200.0)


# ---------------------------------------------------------------------------
# Step-time models
# ---------------------------------------------------------------------------


def test_models_registry_contains_paper_workloads():
    assert set(MODELS) == {"unet3d", "maskrcnn", "rnnt"}


def test_step_time_scales_linearly_with_batch():
    model = MODELS["unet3d"]
    t3 = model.step_time(3, "a100")
    t6 = model.step_time(6, "a100")
    assert t6 == pytest.approx(2 * t3)


def test_step_time_v100_slower_than_a100():
    for model in MODELS.values():
        assert model.step_time(8, "v100") > model.step_time(8, "a100")


def test_step_time_adds_sync_for_multi_gpu():
    model = MODELS["rnnt"]
    single = model.step_time(24, "a100", world_size=1)
    multi = model.step_time(24, "a100", world_size=4)
    assert multi == pytest.approx(single + model.sync_seconds)


def test_step_time_validates_inputs():
    model = StepTimeModel(name="m", reference_batch=4, step_seconds={"a100": 0.1})
    with pytest.raises(ConfigurationError):
        model.step_time(4, "tpu")
    with pytest.raises(ConfigurationError):
        model.step_time(0, "a100")


# ---------------------------------------------------------------------------
# Trainer integration
# ---------------------------------------------------------------------------


def run_minato_training(num_gpus=1, n_samples=24, max_batches=None):
    clock = ScaledClock(scale=0.002)
    ds = mixed_cost_dataset(n_samples, fast_cost=0.02, slow_cost=0.2, slow_period=6)
    cfg = MinatoConfig(
        batch_size=4,
        num_workers=4,
        num_gpus=num_gpus,
        warmup_samples=4,
        timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(ds, stub_pipeline(2), cfg, clock=clock)
    devices = [SimulatedGPU(g, clock) for g in range(num_gpus)]
    model = StepTimeModel(name="toy", reference_batch=4, step_seconds={"a100": 0.05})
    trainer = Trainer(
        loader, devices, model, gpu_type="a100", max_batches_per_gpu=max_batches
    )
    return trainer.run()


def test_trainer_consumes_whole_stream():
    result = run_minato_training()
    assert result.samples == 24
    assert result.batches == 6
    assert result.trained_bytes > 0
    assert result.wall_seconds > 0


def test_trainer_multi_gpu_splits_work():
    result = run_minato_training(num_gpus=2, n_samples=32)
    assert result.samples == 32
    assert len(result.gpu_utilization) == 2
    assert all(0 <= u <= 1 for u in result.gpu_utilization)


def test_trainer_respects_max_batches():
    result = run_minato_training(n_samples=40, max_batches=3)
    assert result.batches == 3
    assert result.samples == 12


def test_trainer_requires_devices():
    with pytest.raises(ValueError):
        Trainer(None, [], MODELS["unet3d"])


def test_trainer_throughput_positive():
    result = run_minato_training()
    assert result.throughput_mb_per_s > 0
    assert result.mean_gpu_utilization > 0
