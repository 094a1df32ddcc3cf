"""Tests for the page-cache and storage models."""

import pytest

from repro.data import LUSTRE, NVME, PageCache, StorageModel, StorageSpec
from repro.data.sample import SampleSpec
from repro.errors import ConfigurationError, StorageError

MB = 1024 * 1024


def spec_of(index, nbytes):
    return SampleSpec(index=index, raw_nbytes=nbytes, seed=index, modality="test")


# ---------------------------------------------------------------------------
# PageCache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit():
    cache = PageCache(capacity_bytes=10 * MB)
    assert cache.access(1, 4 * MB) is False
    assert cache.access(1, 4 * MB) is True
    assert cache.hits == 1 and cache.misses == 1


def test_cache_lru_eviction_order():
    cache = PageCache(capacity_bytes=10 * MB)
    cache.access(1, 4 * MB)
    cache.access(2, 4 * MB)
    cache.access(1, 4 * MB)  # refresh 1
    cache.access(3, 4 * MB)  # evicts 2 (least recently used)
    assert 1 in cache
    assert 2 not in cache
    assert 3 in cache
    assert cache.evictions == 1


def test_cache_object_larger_than_capacity_bypasses():
    cache = PageCache(capacity_bytes=2 * MB)
    assert cache.access(1, 4 * MB) is False
    assert 1 not in cache
    assert cache.used_bytes == 0


def test_cache_used_bytes_tracks_contents():
    cache = PageCache(capacity_bytes=100 * MB)
    cache.access(1, 10 * MB)
    cache.access(2, 30 * MB)
    assert cache.used_bytes == 40 * MB
    cache.invalidate(1)
    assert cache.used_bytes == 30 * MB


def test_cache_clear():
    cache = PageCache(capacity_bytes=100 * MB)
    cache.access(1, MB)
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_cache_hit_rate():
    cache = PageCache(capacity_bytes=100 * MB)
    assert cache.hit_rate == 0.0
    cache.access(1, MB)
    cache.access(1, MB)
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_rejects_negative_sizes():
    cache = PageCache(capacity_bytes=MB)
    with pytest.raises(StorageError):
        cache.access(1, -5)
    with pytest.raises(StorageError):
        PageCache(capacity_bytes=-1)


def test_cache_eviction_respects_capacity():
    cache = PageCache(capacity_bytes=10 * MB)
    for i in range(100):
        cache.access(i, 3 * MB)
    assert cache.used_bytes <= 10 * MB


def test_cache_hit_with_new_size_reaccounts_used_bytes():
    """Regression: re-accessing a key with a different nbytes must update
    the stored entry; the old code left _used permanently wrong."""
    cache = PageCache(capacity_bytes=10 * MB)
    cache.access(1, 4 * MB)
    assert cache.access(1, 6 * MB) is True  # grew
    assert cache.used_bytes == 6 * MB
    assert cache.access(1, 2 * MB) is True  # shrank
    assert cache.used_bytes == 2 * MB
    cache.invalidate(1)
    assert cache.used_bytes == 0  # no drift left behind


def test_cache_hit_growth_evicts_to_fit():
    cache = PageCache(capacity_bytes=10 * MB)
    cache.access(1, 4 * MB)
    cache.access(2, 4 * MB)
    cache.access(1, 8 * MB)  # 1 grows; LRU entry 2 must go
    assert 1 in cache
    assert 2 not in cache
    assert cache.used_bytes == 8 * MB
    assert cache.evictions == 1


def test_cache_hit_growing_past_capacity_drops_the_entry():
    cache = PageCache(capacity_bytes=10 * MB)
    cache.access(1, 4 * MB)
    assert cache.access(1, 12 * MB) is True  # hit, but now uncacheable
    assert 1 not in cache
    assert cache.used_bytes == 0


def test_cache_snapshot_delta_windows_counters():
    cache = PageCache(capacity_bytes=100 * MB)
    cache.access(1, MB)
    before = cache.snapshot()
    cache.access(1, MB)
    cache.access(2, 2 * MB)
    delta = cache.snapshot().delta(before)
    assert delta.hits == 1 and delta.misses == 1
    assert delta.hit_bytes == MB and delta.miss_bytes == 2 * MB
    assert delta.used_bytes == 3 * MB and delta.entries == 2
    assert delta.hit_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# StorageSpec / StorageModel
# ---------------------------------------------------------------------------


def test_storage_spec_read_seconds():
    spec = StorageSpec(name="x", bandwidth=100.0, latency=0.5)
    assert spec.read_seconds(200) == pytest.approx(2.5)


@pytest.mark.parametrize(
    "device",
    [
        # a bare ValueError from the node's disk link, at run start
        {"bandwidth": float("nan")},
        {"bandwidth": float("inf")},
        {"bandwidth": 0.0},
        {"latency": -1e-3},
        {"latency": float("nan")},
        {"latency": float("inf")},
    ],
)
def test_storage_spec_refuses_a_degenerate_device(device):
    with pytest.raises(ConfigurationError, match=next(iter(device))):
        StorageSpec(**{"name": "x", "bandwidth": 100.0, "latency": 0.5, **device})


def test_presets_sane():
    assert NVME.bandwidth < LUSTRE.bandwidth
    assert NVME.latency < LUSTRE.latency


def test_storage_model_cold_reads_hit_disk():
    model = StorageModel(NVME, cache=None)
    seconds = model.read_seconds(spec_of(0, 32 * MB))
    assert seconds == pytest.approx(NVME.read_seconds(32 * MB))
    assert model.bytes_from_disk == 32 * MB


def test_storage_model_cache_hits_are_much_faster():
    cache = PageCache(capacity_bytes=1024 * MB)
    slow_disk = StorageSpec(name="sata", bandwidth=500 * MB, latency=1e-3)
    model = StorageModel(slow_disk, cache=cache)
    s = spec_of(0, 64 * MB)
    cold = model.read_seconds(s)
    warm = model.read_seconds(s)
    assert warm < cold / 5
    assert model.bytes_from_cache == 64 * MB


def test_storage_model_nvme_hits_still_faster():
    cache = PageCache(capacity_bytes=1024 * MB)
    model = StorageModel(NVME, cache=cache)
    s = spec_of(0, 64 * MB)
    cold = model.read_seconds(s)
    warm = model.read_seconds(s)
    assert warm < cold  # DRAM copy beats even fast NVMe


def test_storage_model_thrashing_when_dataset_exceeds_cache():
    """§5.5 setup: dataset ~3x the cache keeps missing."""
    cache = PageCache(capacity_bytes=80 * MB)
    model = StorageModel(NVME, cache=cache)
    specs = [spec_of(i, 10 * MB) for i in range(24)]  # 240 MB working set
    for _sweep in range(3):
        for s in specs:
            model.read_seconds(s)
    # sequential sweeps over an LRU larger than capacity never hit
    assert cache.hit_rate < 0.05
    assert model.bytes_from_disk > 2 * 240 * MB
