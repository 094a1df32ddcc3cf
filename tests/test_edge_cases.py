"""Edge-case and robustness tests across modules."""

import math

import pytest

from repro.clock import ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.errors import (
    ConfigurationError,
    DatasetError,
    EmptySchedule,
    LoaderStateError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.sim import Environment
from repro.sim.loaders import SimMinatoLoader
from repro.sim.runner import run_simulation
from repro.sim.workloads import CONFIG_A, make_workload

from .helpers import StubDataset, mixed_cost_dataset, stub_pipeline


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for exc_type in (
        ConfigurationError,
        LoaderStateError,
        SimulationError,
        EmptySchedule,
        DatasetError,
        StorageError,
    ):
        assert issubclass(exc_type, ReproError)


def test_sim_errors_derive_from_simulation_error():
    assert issubclass(EmptySchedule, SimulationError)


# ---------------------------------------------------------------------------
# Loader edge cases
# ---------------------------------------------------------------------------


def test_single_sample_dataset():
    ds = StubDataset([0.01])
    cfg = MinatoConfig(
        batch_size=4, num_workers=1, warmup_samples=1, adaptive_workers=False
    )
    loader = MinatoLoader(ds, stub_pipeline(1), cfg, clock=ThreadLocalClock())
    with loader:
        batches = list(loader)
    assert len(batches) == 1
    assert batches[0].size == 1


def test_batch_size_larger_than_dataset():
    ds = StubDataset([0.01] * 3)
    cfg = MinatoConfig(
        batch_size=10, num_workers=2, warmup_samples=1, adaptive_workers=False
    )
    loader = MinatoLoader(ds, stub_pipeline(2), cfg, clock=ThreadLocalClock())
    with loader:
        batches = list(loader)
    assert len(batches) == 1
    assert batches[0].size == 3


def test_single_stage_pipeline_timeout_semantics():
    """With one transform there is no boundary to pause at: a slow sample is
    flagged but completes inline (resume index == pipeline length)."""
    ds = StubDataset([0.5, 0.01, 0.01, 0.01])
    cfg = MinatoConfig(
        batch_size=2,
        num_workers=2,
        warmup_samples=1,
        timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(ds, stub_pipeline(1), cfg, clock=ThreadLocalClock())
    with loader:
        batches = list(loader)
        stats = loader.stats()
    assert sorted(i for b in batches for i in b.indices) == [0, 1, 2, 3]
    assert stats.samples_timed_out == 1


def test_many_epochs_small_dataset():
    ds = mixed_cost_dataset(4)
    cfg = MinatoConfig(
        batch_size=3,
        num_workers=2,
        warmup_samples=2,
        timeout_override=1.0,
        adaptive_workers=False,
    )
    loader = MinatoLoader(ds, stub_pipeline(2), cfg, epochs=5, clock=ThreadLocalClock())
    total = 0
    with loader:
        for _ in range(5):
            for batch in loader:
                total += batch.size
    assert total == 20


def test_loader_len_with_drop_last_smaller_than_batch():
    ds = StubDataset([0.01] * 3)
    cfg = MinatoConfig(batch_size=10, drop_last=True, adaptive_workers=False)
    loader = MinatoLoader(ds, stub_pipeline(1), cfg)
    assert len(loader) == 0
    loader.shutdown()


# ---------------------------------------------------------------------------
# Sim edge cases
# ---------------------------------------------------------------------------


def test_sim_minato_rejects_unknown_classifier():
    with pytest.raises(ConfigurationError):
        SimMinatoLoader(classifier="vibes")


def test_sim_with_one_iteration():
    wl = make_workload("speech_3s", dataset_size=60).scaled(0.001)
    assert wl.iterations == 1
    result = run_simulation("minato", wl, CONFIG_A, 1)
    assert result.batches == 1
    assert result.samples == wl.batch_size


def test_sim_torch_with_more_workers_than_batches():
    wl = make_workload("speech_3s", dataset_size=60).scaled(0.002)
    result = run_simulation(
        "pytorch", wl, CONFIG_A, 1, loader_kwargs={"num_workers": 64}
    )
    assert result.batches == wl.iterations


def test_environment_run_until_float_with_no_events():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_sim_dataset_smaller_than_batch():
    wl = make_workload("image_segmentation", dataset_size=2).scaled(0.02)  # 1 epoch
    result = run_simulation("minato", wl, CONFIG_A, 1, keep_batch_log=True)
    assert result.samples == 2
    assert result.batches == 1


def test_profiler_timeout_override_in_sim():
    wl = make_workload("speech_3s", dataset_size=60).scaled(0.01)
    result = run_simulation(
        "minato",
        wl,
        CONFIG_A,
        1,
        loader_kwargs={"timeout_override": math.inf, "adaptive_workers": False},
        keep_batch_log=True,
    )
    # nothing can time out under an infinite budget
    assert sum(b[4] for b in result.batch_log) == 0
