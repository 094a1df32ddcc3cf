"""Tests for the baseline loaders: PyTorch-style, DALI-style, Pecan, and the
image-size heuristic."""

import numpy as np
import pytest

from repro.clock import ScaledClock, ThreadLocalClock
from repro.baselines import (
    DALIConfig,
    DALIStyleLoader,
    PecanLoader,
    SizeHeuristicLoader,
    TorchLoaderConfig,
    TorchStyleLoader,
)
from repro.core import MinatoConfig
from repro.data import SyntheticCOCO, SyntheticKiTS19
from repro.engine import SimulatedGPU
from repro.errors import ConfigurationError, LoaderStateError
from repro.transforms import detection_pipeline, segmentation_pipeline

from .helpers import StubDataset, mixed_cost_dataset, stub_pipeline


def make_torch_loader(dataset, epochs=1, **cfg_kwargs):
    defaults = dict(
        batch_size=4, num_workers=3, pin_memory_bandwidth=None, seed=1
    )
    defaults.update(cfg_kwargs)
    cfg = TorchLoaderConfig(**defaults)
    return TorchStyleLoader(
        dataset, stub_pipeline(3), cfg, epochs=epochs, clock=ThreadLocalClock()
    )


# ---------------------------------------------------------------------------
# TorchStyleLoader
# ---------------------------------------------------------------------------


def test_torch_delivers_all_samples_once():
    ds = mixed_cost_dataset(40)
    with make_torch_loader(ds) as loader:
        delivered = [i for b in loader for i in b.indices]
    assert sorted(delivered) == list(range(40))


def test_torch_preserves_batch_membership_and_order():
    """Batches must exactly match the pre-determined sampler batches, in order
    (the head-of-line-blocking property)."""
    ds = mixed_cost_dataset(24)
    loader = make_torch_loader(ds, batch_size=4)
    from repro.data import BatchSampler

    expected = BatchSampler(loader.sampler, 4).epoch(0)
    with loader:
        got = [b.indices for b in loader]
    assert got == expected


def test_torch_in_order_even_when_first_batch_is_slowest():
    # first sampler batch costs 30x the rest; delivery must still start with it
    ds = StubDataset([0.3] * 4 + [0.01] * 12)
    cfg = TorchLoaderConfig(batch_size=4, num_workers=4, pin_memory_bandwidth=None)
    from repro.data import SequentialSampler

    loader = TorchStyleLoader(
        ds,
        stub_pipeline(2),
        cfg,
        clock=ScaledClock(scale=0.01),
        sampler=SequentialSampler(len(ds)),
    )
    with loader:
        got = [b.indices for b in loader]
    assert got[0] == [0, 1, 2, 3]


def test_torch_multi_epoch_restarts_and_delivers():
    ds = mixed_cost_dataset(12)
    with make_torch_loader(ds, epochs=3) as loader:
        counts = np.zeros(12, dtype=int)
        for _ in range(3):
            for b in loader:
                for i in b.indices:
                    counts[i] += 1
    assert (counts == 3).all()


def test_torch_persistent_workers_mode():
    ds = mixed_cost_dataset(12)
    with make_torch_loader(ds, epochs=2, persistent_workers=True) as loader:
        total = sum(b.size for _ in range(2) for b in loader)
    assert total == 24


def test_torch_drop_last():
    ds = mixed_cost_dataset(10)
    with make_torch_loader(ds, batch_size=4, drop_last=True) as loader:
        batches = list(loader)
    assert [b.size for b in batches] == [4, 4]


def test_torch_collate_charge_accounted():
    ds = mixed_cost_dataset(8)
    cfg = TorchLoaderConfig(
        batch_size=4, num_workers=2, pin_memory_bandwidth=1024.0
    )
    loader = TorchStyleLoader(ds, stub_pipeline(2), cfg, clock=ThreadLocalClock())
    with loader:
        list(loader)
        stats = loader.stats()
    assert stats.collate_seconds > 0


def test_torch_multi_gpu_round_robin():
    ds = mixed_cost_dataset(32)
    cfg = TorchLoaderConfig(
        batch_size=4, num_workers=2, num_gpus=2, pin_memory_bandwidth=None
    )
    loader = TorchStyleLoader(ds, stub_pipeline(2), cfg, clock=ThreadLocalClock())
    import threading

    per_gpu = {0: [], 1: []}

    def consume(g):
        for b in loader.batches(g):
            per_gpu[g].append(b.sequence)

    threads = [threading.Thread(target=consume, args=(g,)) for g in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    loader.shutdown()
    assert all(s % 2 == 0 for s in per_gpu[0])
    assert all(s % 2 == 1 for s in per_gpu[1])
    assert len(per_gpu[0]) + len(per_gpu[1]) == 8


def test_torch_config_validation():
    with pytest.raises(ConfigurationError):
        TorchLoaderConfig(num_workers=0)
    with pytest.raises(ConfigurationError):
        TorchLoaderConfig(prefetch_factor=0)
    with pytest.raises(ConfigurationError):
        TorchLoaderConfig(pin_memory_bandwidth=-1)


@pytest.mark.parametrize("capacity", [0, -1])
def test_torch_config_refuses_an_unbounded_batch_queue(capacity):
    """Regression: a capacity below 1 built unbounded batch queues (a
    capacity-0 queue was unbounded, a negative one never full).  The
    config refuses it, as MinatoConfig does."""
    with pytest.raises(ConfigurationError, match="queue_capacity"):
        TorchLoaderConfig(queue_capacity=capacity)


def test_torch_len():
    ds = mixed_cost_dataset(10)
    loader = make_torch_loader(ds, epochs=2, batch_size=4)
    assert len(loader) == 5
    loader.shutdown()


def test_torch_worker_error_surfaces():
    """The `__iter__` path; `next_batch`, the other fault sites and the other
    loaders are the matrix in tests/test_loader_chassis.py."""

    class Exploding(StubDataset):
        def _materialize(self, spec):
            raise RuntimeError("bad decode")

    loader = make_torch_loader(Exploding([0.01] * 8))
    with pytest.raises(LoaderStateError, match="bad decode"):
        list(loader)
    loader.shutdown()


# ---------------------------------------------------------------------------
# PecanLoader
# ---------------------------------------------------------------------------


def test_pecan_moves_resize_to_end_for_detection():
    ds = SyntheticCOCO(n_samples=16)
    loader = PecanLoader(ds, detection_pipeline(), TorchLoaderConfig(batch_size=4))
    assert loader.reordered_names[-1] == "Resize2D"
    assert loader.original_pipeline.names[0] == "Resize2D"
    loader.shutdown()


def test_pecan_keeps_segmentation_order():
    """Paper §5.1: segmentation transforms are already optimally ordered."""
    ds = SyntheticKiTS19(n_samples=8)
    loader = PecanLoader(ds, segmentation_pipeline(), TorchLoaderConfig(batch_size=2))
    assert loader.reordered_names == segmentation_pipeline().names
    assert loader.auto_order_permutation == list(range(5))
    loader.shutdown()


def test_pecan_delivers_all_samples():
    ds = mixed_cost_dataset(20)
    cfg = TorchLoaderConfig(batch_size=4, num_workers=2, pin_memory_bandwidth=None)
    loader = PecanLoader(ds, stub_pipeline(3), cfg, clock=ThreadLocalClock())
    with loader:
        delivered = [i for b in loader for i in b.indices]
    assert sorted(delivered) == list(range(20))


def test_pecan_reordering_reduces_detection_cost():
    """Moving Resize to the end shrinks the bytes seen by tensor-level steps,
    so the total modelled cost drops slightly (paper Fig. 3b: small effect)."""
    ds = SyntheticCOCO(n_samples=200)
    pipe = detection_pipeline()
    loader = PecanLoader(ds, pipe, TorchLoaderConfig(batch_size=4))
    original = sum(pipe.total_cost(s) for s in ds.specs())
    reordered = sum(loader.pipeline.total_cost(s) for s in ds.specs())
    loader.shutdown()
    assert reordered < original
    saving = 1 - reordered / original
    assert 0.005 < saving < 0.15  # a small, Pecan-like effect


# ---------------------------------------------------------------------------
# DALIStyleLoader
# ---------------------------------------------------------------------------


def test_dali_delivers_all_samples_across_shards():
    ds = mixed_cost_dataset(36)
    cfg = DALIConfig(batch_size=4, num_gpus=2, prefetch_queue_depth=2)
    loader = DALIStyleLoader(ds, stub_pipeline(3), cfg, clock=ThreadLocalClock())
    import threading

    got = {0: [], 1: []}

    def consume(g):
        for b in loader.batches(g):
            got[g].extend(b.indices)

    threads = [threading.Thread(target=consume, args=(g,)) for g in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    loader.shutdown()
    assert sorted(got[0] + got[1]) == list(range(36))
    assert got[0] and got[1]


def test_dali_preprocessing_contends_on_device():
    clock = ScaledClock(scale=0.05)
    ds = mixed_cost_dataset(8, fast_cost=0.1, slow_cost=0.1)
    device = SimulatedGPU(0, clock)
    cfg = DALIConfig(batch_size=4, gpu_speedup=10.0)
    loader = DALIStyleLoader(
        ds, stub_pipeline(2), cfg, clock=clock, devices=[device]
    )
    with loader:
        batches = list(loader.batches(0))
    assert len(batches) == 2
    pre = device.busy_seconds("preprocess")
    # 8 samples x 0.1 s / 10x speedup = 0.08 s of GPU preprocessing; the
    # lower bound is tight (sleeps never undershoot), the upper generous.
    assert 0.07 <= pre <= 0.5
    assert len([i for i in device.intervals if i.tag == "preprocess"]) == 2


def test_dali_gpu_discount_applied():
    ds = mixed_cost_dataset(8, fast_cost=0.1, slow_cost=0.1)
    cfg = DALIConfig(batch_size=4, gpu_speedup=10.0)
    loader = DALIStyleLoader(ds, stub_pipeline(2), cfg, clock=ThreadLocalClock())
    with loader:
        list(loader.batches(0))
        stats = loader.stats()
    assert stats.busy_seconds == pytest.approx(8 * 0.1 / 10.0)


def test_dali_device_count_must_match():
    ds = mixed_cost_dataset(4)
    cfg = DALIConfig(batch_size=2, num_gpus=2)
    with pytest.raises(ConfigurationError):
        DALIStyleLoader(
            ds, stub_pipeline(2), cfg, devices=[SimulatedGPU(0, ThreadLocalClock())]
        )


def test_dali_config_validation():
    with pytest.raises(ConfigurationError):
        DALIConfig(num_threads=0)
    with pytest.raises(ConfigurationError):
        DALIConfig(prefetch_queue_depth=0)
    with pytest.raises(ConfigurationError):
        DALIConfig(gpu_speedup=0)


def test_dali_drop_last():
    ds = mixed_cost_dataset(10)
    cfg = DALIConfig(batch_size=4, drop_last=True)
    loader = DALIStyleLoader(ds, stub_pipeline(2), cfg, clock=ThreadLocalClock())
    with loader:
        batches = list(loader.batches(0))
    assert all(b.size == 4 for b in batches)


# ---------------------------------------------------------------------------
# SizeHeuristicLoader
# ---------------------------------------------------------------------------


def test_size_heuristic_classifies_by_raw_size():
    # sizes alternate small/large; costs uniform -> classification by size only
    costs = [0.01] * 20
    ds = StubDataset(costs)
    # give half the samples a big raw size
    big = {i for i in range(0, 20, 2)}
    specs = [ds.spec(i) for i in range(20)]
    import dataclasses

    ds._specs = [
        dataclasses.replace(s, raw_nbytes=(10_000 if s.index in big else 100))
        for s in specs
    ]
    cfg = MinatoConfig(
        batch_size=4, num_workers=2, warmup_samples=4, adaptive_workers=False
    )
    loader = SizeHeuristicLoader(
        ds, stub_pipeline(2), cfg, clock=ThreadLocalClock(), size_threshold_bytes=1_000
    )
    with loader:
        batches = list(loader)
        stats = loader.stats()
    assert sorted(i for b in batches for i in b.indices) == list(range(20))
    assert stats.samples_timed_out == 10  # the big ones


def test_size_heuristic_default_threshold_is_p75():
    ds = SyntheticKiTS19(n_samples=40)
    cfg = MinatoConfig(batch_size=4, num_workers=2, adaptive_workers=False)
    loader = SizeHeuristicLoader(ds, segmentation_pipeline(), cfg)
    sizes = [ds.spec(i).raw_nbytes for i in range(40)]
    assert loader.size_threshold_bytes == pytest.approx(np.percentile(sizes, 75))
    loader.shutdown()
