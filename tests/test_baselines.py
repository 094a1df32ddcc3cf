"""Tests for the baselines: the threaded PyTorch-style loader, and the
policies the simulated Pecan and size-heuristic models run by (DALI's
model is tested with the other simulated loaders)."""

import numpy as np
import pytest

from repro.clock import ScaledClock, ThreadLocalClock
from repro.baselines import TorchLoaderConfig, TorchStyleLoader
from repro.engine import MODELS
from repro.errors import ConfigurationError, LoaderStateError
from repro.policy import SizeRouter
from repro.sim.kernel import Environment
from repro.sim.loaders import SimContext, SimMinatoLoader, SimPecanLoader
from repro.sim.workloads import CONFIG_A, WorkloadSpec, make_workload

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
    for bad in (-1, float("nan")):
        with pytest.raises(ConfigurationError, match="pin_memory_bandwidth"):
            TorchLoaderConfig(pin_memory_bandwidth=bad)


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
# Pecan: AutoOrder over the PyTorch semantics (SimPecanLoader)
# ---------------------------------------------------------------------------


def started_pecan(name, n):
    """A SimPecanLoader started on ``name``'s workload: its AutoOrder
    ran, over the first 64 samples."""
    workload = make_workload(name, dataset_size=n)
    loader = SimPecanLoader()
    loader.start(SimContext(Environment(), workload, CONFIG_A, num_gpus=1))
    return workload, loader


def test_pecan_moves_resize_to_end_for_detection():
    workload, loader = started_pecan("object_detection", 16)
    assert loader.pipeline.names[-1] == "Resize2D"
    assert workload.pipeline.names[0] == "Resize2D"


def test_pecan_keeps_segmentation_order():
    """Paper §5.1: segmentation transforms are already optimally ordered."""
    workload, loader = started_pecan("image_segmentation", 8)
    assert loader.pipeline.names == workload.pipeline.names
    assert loader.auto_order_permutation == list(range(5))


def test_pecan_reordering_reduces_detection_cost():
    """Moving Resize to the end shrinks the bytes seen by tensor-level steps,
    so the total modelled cost drops slightly (paper Fig. 3b: small effect)."""
    workload, loader = started_pecan("object_detection", 200)
    specs = list(workload.dataset.specs())
    original = sum(workload.pipeline.total_cost(s) for s in specs)
    reordered = sum(loader.pipeline.total_cost(s) for s in specs)
    assert reordered < original
    saving = 1 - reordered / original
    assert 0.005 < saving < 0.15  # a small, Pecan-like effect


# ---------------------------------------------------------------------------
# The image-size heuristic of §3.2 (SimMinatoLoader(classifier="size"))
# ---------------------------------------------------------------------------


def test_size_heuristic_classifies_by_raw_size():
    """Uniform costs, every other sample ten times the median size: exactly
    the big ones go to the background, predicted slow by size alone."""
    sizes = [10_000 if i % 2 == 0 else 100 for i in range(20)]
    workload = WorkloadSpec(
        name="sizes", dataset=StubDataset([0.01] * 20, raw_nbytes=sizes),
        pipeline=stub_pipeline(2), model=MODELS["unet3d"], batch_size=4, epochs=1,
    )
    env = Environment()
    ctx = SimContext(env, workload, CONFIG_A, num_gpus=1)
    loader = SimMinatoLoader(classifier="size", size_percentile=50.0)
    loader.start(ctx)
    assert loader.size_router.threshold_bytes == 5_050.0

    def consumer():
        while (yield from loader.get_batch(0)) is not None:
            pass

    env.run(until=env.process(consumer()))
    assert ctx.stats.samples_preprocessed == 20
    assert ctx.stats.samples_timed_out == 10  # the big ones


def test_size_heuristic_default_threshold_is_p75():
    dataset = make_workload("image_segmentation", dataset_size=40).dataset
    sizes = [dataset.spec(i).raw_nbytes for i in range(40)]
    router = SizeRouter.from_dataset(dataset)
    assert router.threshold_bytes == pytest.approx(np.percentile(sizes, 75))
