"""Integration tests for the concurrent MinatoLoader."""

import numpy as np
import pytest

from repro.clock import ScaledClock, ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.data import PageCache, StorageModel, StorageSpec
from repro.errors import LoaderStateError

from .helpers import StubDataset, mixed_cost_dataset, stub_pipeline


def make_loader(dataset, epochs=1, **cfg_kwargs):
    defaults = dict(
        batch_size=4,
        num_workers=4,
        slow_workers=2,
        warmup_samples=4,
        adaptive_workers=False,
        seed=1,
    )
    defaults.update(cfg_kwargs)
    cfg = MinatoConfig(**defaults)
    return MinatoLoader(
        dataset, stub_pipeline(3), cfg, epochs=epochs, clock=ThreadLocalClock()
    )


def drain(loader, epochs=1):
    batches = []
    for _ in range(epochs):
        batches.extend(loader)
    return batches


# ---------------------------------------------------------------------------
# Conservation and lifecycle
# ---------------------------------------------------------------------------


def test_all_samples_delivered_exactly_once():
    ds = mixed_cost_dataset(40)
    with make_loader(ds, timeout_override=0.05) as loader:
        batches = drain(loader)
    delivered = [i for b in batches for i in b.indices]
    assert sorted(delivered) == list(range(40))


def test_multi_epoch_delivers_every_sample_per_epoch():
    ds = mixed_cost_dataset(20)
    with make_loader(ds, epochs=3, timeout_override=0.05) as loader:
        all_indices = []
        for _epoch in range(3):
            epoch_indices = [i for b in loader for i in b.indices]
            all_indices.extend(epoch_indices)
    assert len(all_indices) == 60
    counts = np.bincount(all_indices, minlength=20)
    assert (counts == 3).all()


def test_len_counts_total_batches():
    ds = mixed_cost_dataset(10)
    loader = make_loader(ds, epochs=2, batch_size=4)
    assert len(loader) == 5  # ceil(20/4)
    loader.shutdown()


def test_drop_last_discards_partial_batch():
    ds = mixed_cost_dataset(10)
    with make_loader(ds, batch_size=4, drop_last=True, timeout_override=0.05) as loader:
        batches = drain(loader)
    assert all(b.size == 4 for b in batches)
    assert len(batches) == 2


def test_batches_are_full_size_except_stream_tail():
    ds = mixed_cost_dataset(41)
    with make_loader(ds, batch_size=5, timeout_override=0.05) as loader:
        batches = drain(loader)
    assert [b.size for b in batches[:-1]] == [5] * 8
    assert batches[-1].size == 1


def test_shutdown_is_idempotent_and_context_manager_safe():
    ds = mixed_cost_dataset(8)
    loader = make_loader(ds, timeout_override=0.05)
    list(loader)
    loader.shutdown()
    loader.shutdown()
    with pytest.raises(LoaderStateError):
        loader.start()


def test_invalid_epochs_rejected():
    with pytest.raises(LoaderStateError):
        MinatoLoader(mixed_cost_dataset(4), stub_pipeline(2), MinatoConfig(), epochs=0)


# ---------------------------------------------------------------------------
# Slow-sample handling (Algorithm 1 semantics)
# ---------------------------------------------------------------------------


def test_slow_samples_flagged_and_counted():
    ds = mixed_cost_dataset(50, fast_cost=0.01, slow_cost=0.2, slow_period=5)
    with make_loader(ds, timeout_override=0.05) as loader:
        batches = drain(loader)
        stats = loader.stats()
    slow_delivered = sum(b.slow_count for b in batches)
    assert slow_delivered == 10  # every 5th of 50
    assert stats.samples_timed_out == 10
    assert stats.samples_fast == 40
    assert stats.samples_preprocessed == 50


def test_no_timeouts_when_budget_is_generous():
    ds = mixed_cost_dataset(30)
    with make_loader(ds, timeout_override=10.0) as loader:
        batches = drain(loader)
        stats = loader.stats()
    assert stats.samples_timed_out == 0
    assert all(b.slow_count == 0 for b in batches)


def test_warmup_is_optimistic_then_p75_kicks_in():
    # 100 samples: 75% cost 0.01, 25% cost 0.5 -> P75 sits between.
    costs = [0.5 if i % 4 == 0 else 0.01 for i in range(100)]
    ds = StubDataset(costs)
    with make_loader(ds, warmup_samples=10, batch_size=4) as loader:
        drain(loader)
        stats = loader.stats()
    # after warm-up, the 0.5 s samples exceed the learned P75 threshold
    assert stats.samples_timed_out > 0
    assert stats.samples_timed_out <= 30  # only the slow quartile (plus warm-up jitter)
    assert 0.009 <= stats.profiler.timeout <= 0.5


def test_profiler_records_all_samples():
    ds = mixed_cost_dataset(24)
    with make_loader(ds, timeout_override=0.05) as loader:
        drain(loader)
        stats = loader.stats()
    assert stats.profiler.observations == 24


# ---------------------------------------------------------------------------
# Ordering semantics
# ---------------------------------------------------------------------------


def test_reorder_mode_prioritizes_fast_samples():
    """Slow samples must not delay delivery: the first batches should be
    dominated by fast samples even though slow ones were requested early."""
    costs = [0.5] * 4 + [0.01] * 36  # the first 4 requested samples are slow
    ds = StubDataset(costs)
    cfg_seed_sampler = dict(timeout_override=0.05, batch_size=4)
    with make_loader(ds, **cfg_seed_sampler) as loader:
        batches = drain(loader)
    # all samples still arrive
    assert sorted(i for b in batches for i in b.indices) == list(range(40))


def test_strict_order_mode_preserves_sampler_order():
    ds = mixed_cost_dataset(30, slow_period=4)
    cfg = dict(reorder=False, timeout_override=0.05, batch_size=5)
    with make_loader(ds, **cfg) as loader:
        expected = loader.sampler.epoch(0)
        batches = drain(loader)
    delivered = [i for b in batches for i in b.indices]
    assert delivered == expected


def test_strict_order_still_flags_slow_samples():
    ds = mixed_cost_dataset(20, slow_period=5)
    with make_loader(ds, reorder=False, timeout_override=0.05) as loader:
        batches = drain(loader)
    assert sum(b.slow_count for b in batches) == 4


# ---------------------------------------------------------------------------
# Multi-GPU streams
# ---------------------------------------------------------------------------


def test_multi_gpu_streams_partition_samples():
    ds = mixed_cost_dataset(48)
    cfg = MinatoConfig(
        batch_size=4,
        num_workers=4,
        num_gpus=2,
        warmup_samples=4,
        timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(ds, stub_pipeline(3), cfg, clock=ThreadLocalClock())
    import threading

    per_gpu = {0: [], 1: []}

    def consume(gpu):
        for batch in loader.batches(gpu):
            per_gpu[gpu].extend(batch.indices)
            assert batch.gpu_index == gpu

    threads = [threading.Thread(target=consume, args=(g,)) for g in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    loader.shutdown()
    assert sorted(per_gpu[0] + per_gpu[1]) == list(range(48))
    assert per_gpu[0] and per_gpu[1]  # both GPUs fed


def test_iter_rejected_for_multi_gpu():
    cfg = MinatoConfig(num_gpus=2, adaptive_workers=False)
    loader = MinatoLoader(mixed_cost_dataset(8), stub_pipeline(2), cfg)
    with pytest.raises(LoaderStateError):
        next(iter(loader))
    loader.shutdown()


def test_next_batch_validates_gpu_index():
    loader = make_loader(mixed_cost_dataset(8))
    with pytest.raises(LoaderStateError):
        loader.next_batch(gpu=3)
    loader.shutdown()


# ---------------------------------------------------------------------------
# Storage integration and worker errors
# ---------------------------------------------------------------------------


def test_storage_io_accounted():
    ds = mixed_cost_dataset(12)
    storage = StorageModel(
        StorageSpec(name="test", bandwidth=1024**3, latency=0.001),
        cache=PageCache(capacity_bytes=10 * 1024**2),
    )
    cfg = MinatoConfig(
        batch_size=4,
        num_workers=2,
        warmup_samples=4,
        timeout_override=0.05,
        adaptive_workers=False,
    )
    loader = MinatoLoader(
        ds, stub_pipeline(3), cfg, clock=ThreadLocalClock(), storage=storage
    )
    with loader:
        drain(loader)
        stats = loader.stats()
    assert stats.io_seconds > 0
    assert storage.bytes_from_disk > 0


def test_worker_exception_surfaces_to_consumer():
    """The `__iter__` path; `next_batch`, the other fault sites and the other
    loaders are the matrix in tests/test_loader_chassis.py."""

    class ExplodingDataset(StubDataset):
        def _materialize(self, spec):
            raise RuntimeError("disk on fire")

    ds = ExplodingDataset([0.01] * 8)
    loader = make_loader(ds)
    with pytest.raises(LoaderStateError, match="disk on fire"):
        drain(loader)
    loader.shutdown()


# ---------------------------------------------------------------------------
# Adaptive worker scheduling (shared-timeline clock required)
# ---------------------------------------------------------------------------


def test_adaptive_workers_scale_with_scaled_clock():
    ds = mixed_cost_dataset(120, fast_cost=0.02, slow_cost=0.02, slow_period=10**9)
    cfg = MinatoConfig(
        batch_size=4,
        num_workers=2,
        slow_workers=1,
        warmup_samples=4,
        timeout_override=1.0,
        adaptive_workers=True,
        scheduler_interval=0.05,
        max_workers=16,
    )
    clock = ScaledClock(scale=0.02)
    loader = MinatoLoader(ds, stub_pipeline(3), cfg, clock=clock)
    with loader:
        batches = drain(loader)
        stats = loader.stats()
    assert len(batches) == 30
    # the scheduler ran and stayed within bounds
    assert stats.worker_history, "scheduler never ran"
    for decision in stats.worker_history:
        assert 1 <= decision.new_workers <= 16


def test_adaptive_scheduler_disabled_on_threadlocal_clock():
    ds = mixed_cost_dataset(16)
    with make_loader(ds, adaptive_workers=True, timeout_override=0.05) as loader:
        drain(loader)
        stats = loader.stats()
    assert stats.worker_history == []


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------


class FlakyDataset(StubDataset):
    """Fails the first ``failures_per_index`` loads of every sample."""

    def __init__(self, costs, failures_per_index=1):
        super().__init__(costs)
        self._failures_per_index = failures_per_index
        self._attempts = {}

    def _materialize(self, spec):
        seen = self._attempts.get(spec.index, 0)
        self._attempts[spec.index] = seen + 1
        if seen < self._failures_per_index:
            raise IOError(f"transient read failure for {spec.index}")
        return super()._materialize(spec)


def test_load_retries_recover_from_transient_failures():
    ds = FlakyDataset([0.01] * 16, failures_per_index=1)
    with make_loader(ds, timeout_override=1.0, load_retries=2) as loader:
        batches = drain(loader)
        stats = loader.stats()
    assert sorted(i for b in batches for i in b.indices) == list(range(16))
    assert stats.load_retries == 16  # one retry per sample


def test_load_retries_exhausted_surfaces_error():
    ds = FlakyDataset([0.01] * 8, failures_per_index=3)
    loader = make_loader(ds, timeout_override=1.0, load_retries=1)
    with pytest.raises(LoaderStateError, match="transient read failure"):
        drain(loader)
    loader.shutdown()


def test_load_retries_config_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        MinatoConfig(load_retries=-1)


@pytest.mark.parametrize("interval", [0, -1.0])
def test_scheduler_interval_must_be_positive(interval):
    """A zero interval made the scheduler thread spin without sleeping."""
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="scheduler_interval"):
        MinatoConfig(scheduler_interval=interval)
