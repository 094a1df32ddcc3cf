"""Tests for synthetic datasets, samplers and sample records."""

import numpy as np
import pytest

from repro.data import (
    MB,
    BatchSampler,
    InMemoryDataset,
    RandomSampler,
    ReplicatedDataset,
    SequentialSampler,
    ShardedSampler,
    SubsetDataset,
    SyntheticCOCO,
    SyntheticKiTS19,
    SyntheticLibriSpeech,
)
from repro.errors import ConfigurationError, DatasetError


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------


def test_kits19_defaults_match_paper():
    ds = SyntheticKiTS19()
    assert len(ds) == 210
    sizes = np.array([s.raw_nbytes for s in ds.specs()]) / MB
    assert sizes.min() >= 30 and sizes.max() <= 375
    assert 120 < sizes.mean() < 150  # paper: mean 136 MB
    total_gb = sizes.sum() / 1024
    assert 24 < total_gb < 32  # paper: 29 GB dataset


def test_kits19_has_tiny_samples():
    ds = SyntheticKiTS19(n_samples=500, tiny_fraction=0.02)
    tiny = sum(1 for s in ds.specs() if s.attr("tiny"))
    assert 2 <= tiny <= 25


def test_kits19_payload_deterministic():
    ds = SyntheticKiTS19(n_samples=3)
    a = ds.load(1).data
    b = ds.load(1).data
    np.testing.assert_array_equal(a, b)


def test_kits19_payload_scales_with_size():
    ds = SyntheticKiTS19(n_samples=50)
    specs = sorted(ds.specs(), key=lambda s: s.raw_nbytes)
    small = ds.load(specs[0].index).data.size
    large = ds.load(specs[-1].index).data.size
    assert large >= small


def test_coco_sizes_match_paper():
    ds = SyntheticCOCO(n_samples=2000)
    sizes = np.array([s.raw_nbytes for s in ds.specs()]) / MB
    assert sizes.min() >= 0.1 and sizes.max() <= 1.0
    assert 0.7 < sizes.mean() < 0.9  # paper: mean 0.8 MB


def test_coco_payload_is_uint8_image():
    ds = SyntheticCOCO(n_samples=1)
    img = ds.load(0).data
    assert img.dtype == np.uint8
    assert img.ndim == 3 and img.shape[2] == 3


def test_librispeech_sizes_match_paper():
    ds = SyntheticLibriSpeech(n_samples=2000)
    sizes = np.array([s.raw_nbytes for s in ds.specs()]) / MB
    assert sizes.min() >= 0.06 and sizes.max() <= 0.34
    assert 0.17 < sizes.mean() < 0.23  # paper: mean 0.2 MB


def test_librispeech_every_fifth_sample_heavy():
    ds = SyntheticLibriSpeech(n_samples=100, heavy_period=5)
    heavy = [i for i in range(100) if ds.spec(i).attr("heavy")]
    assert heavy == list(range(0, 100, 5))


def test_librispeech_heavy_fraction_override():
    for fraction in (0.0, 0.25, 0.5, 1.0):
        ds = SyntheticLibriSpeech(n_samples=400, heavy_fraction=fraction)
        assert ds.heavy_fraction == pytest.approx(fraction, abs=0.01)


def test_librispeech_invalid_heavy_fraction():
    with pytest.raises(ConfigurationError):
        SyntheticLibriSpeech(n_samples=10, heavy_fraction=1.5)


def test_dataset_index_out_of_range():
    ds = SyntheticCOCO(n_samples=5)
    with pytest.raises(DatasetError):
        ds.load(5)
    with pytest.raises(DatasetError):
        ds.spec(-1)


def test_specs_are_cached_instances():
    ds = SyntheticKiTS19(n_samples=3)
    assert ds.spec(1) is ds.spec(1)


# ---------------------------------------------------------------------------
# InMemory / Subset / Replicated
# ---------------------------------------------------------------------------


def test_in_memory_dataset_roundtrip():
    arrays = [np.arange(6).reshape(2, 3), np.ones((4, 4))]
    ds = InMemoryDataset(arrays)
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.load(0).data, arrays[0])
    assert ds.spec(1).raw_nbytes == arrays[1].nbytes


def test_in_memory_dataset_requires_arrays():
    with pytest.raises(DatasetError):
        InMemoryDataset([])


def test_subset_dataset_view():
    base = SyntheticCOCO(n_samples=10)
    sub = SubsetDataset(base, [3, 7])
    assert len(sub) == 2
    assert sub.spec(0).index == base.spec(3).index
    with pytest.raises(DatasetError):
        SubsetDataset(base, [99])


def test_replicated_dataset_scales_footprint():
    base = SyntheticKiTS19(n_samples=10)
    replicated = ReplicatedDataset(base, factor=8)
    assert len(replicated) == 80
    assert replicated.total_raw_nbytes() == 8 * base.total_raw_nbytes()
    # replicas carry distinct indices (distinct cache identity)
    assert replicated.spec(0).index != replicated.spec(10).index
    # but the same underlying payload
    np.testing.assert_array_equal(replicated.load(0).data, replicated.load(10).data)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def test_sequential_sampler():
    s = SequentialSampler(5)
    assert s.epoch(0) == [0, 1, 2, 3, 4]
    assert s.epoch(3) == [0, 1, 2, 3, 4]


def test_random_sampler_is_a_permutation():
    s = RandomSampler(100, seed=1)
    epoch = s.epoch(0)
    assert sorted(epoch) == list(range(100))


def test_random_sampler_deterministic_per_epoch_but_reshuffles():
    s = RandomSampler(50, seed=1)
    assert s.epoch(0) == s.epoch(0)
    assert s.epoch(0) != s.epoch(1)


def test_sharded_sampler_covers_epoch_with_equal_ranks():
    """DistributedSampler semantics: equal-length ranks via wrap-around
    padding; together they cover the dataset (the pad duplicates at most
    world_size - 1 samples)."""
    world = 4
    shards = [ShardedSampler(103, rank=r, world_size=world, seed=9) for r in range(world)]
    assert [len(s) for s in shards] == [26] * world
    combined = [i for s in shards for i in s.epoch(2)]
    assert len(combined) == shards[0].total_size == 104
    assert set(combined) == set(range(103))


def test_sharded_sampler_validates_rank():
    with pytest.raises(ConfigurationError):
        ShardedSampler(10, rank=4, world_size=4)


def test_batch_sampler_groups_and_drop_last():
    base = SequentialSampler(10)
    bs = BatchSampler(base, batch_size=3)
    assert bs.epoch(0) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    assert len(bs) == 4
    bs_drop = BatchSampler(base, batch_size=3, drop_last=True)
    assert bs_drop.epoch(0) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert len(bs_drop) == 3
