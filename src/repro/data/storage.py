"""Storage substrate: page cache + disk models.

The paper's two testbeds read from a shared Lustre filesystem over a
200 Gb/s interconnect (Config A) and a local 7 TB NVMe SSD (Config B).  The
memory-constrained experiment (§5.5) caps the page cache at 80 GB with
cgroups while streaming a 230 GB dataset, so reads constantly miss and the
loaders hammer the disk.

:class:`PageCache` is a bytes-weighted LRU keyed by sample index;
:class:`StorageModel` turns a read into seconds for the concurrent engine.
The simulator combines the same cache with a contended disk instead: one
FIFO stream on a private :class:`repro.sim.SharedLink`, the byte mover
every simulated link is made of (:func:`repro.sim.BandwidthPipe`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..contracts import nonnegative, positive
from ..errors import StorageError
from .sample import SampleSpec

__all__ = [
    "CacheSnapshot",
    "PageCache",
    "StorageSpec",
    "StorageModel",
    "NVME",
    "LUSTRE",
    "DRAM_BANDWIDTH",
]

GB = 1024**3

#: effective copy bandwidth for page-cache hits
DRAM_BANDWIDTH = 20.0 * GB


@dataclass(frozen=True)
class StorageSpec:
    """Static description of a storage device/link."""

    name: str
    bandwidth: float  # bytes/second
    latency: float  # seconds per read

    def __post_init__(self) -> None:
        positive("storage bandwidth", self.bandwidth)
        nonnegative("storage latency", self.latency)

    def read_seconds(self, nbytes: float) -> float:
        return self.latency + nbytes / self.bandwidth


#: Config B local 7 TB NVMe SSD (PCIe4-class sequential bandwidth)
NVME = StorageSpec(name="nvme", bandwidth=7.0 * GB, latency=100e-6)
#: Config A shared Lustre over 200 Gb/s (effective per-node bandwidth)
LUSTRE = StorageSpec(name="lustre", bandwidth=8.0 * GB, latency=1e-3)


@dataclass(frozen=True)
class CacheSnapshot:
    """Point-in-time copy of a :class:`PageCache`'s counters.

    ``delta(earlier)`` turns two snapshots into per-window accounting
    (per-epoch cache behaviour in the elastic runner): the monotonic
    counters are differenced, while ``used_bytes`` / ``entries`` keep the
    later snapshot's instantaneous values.  ``miss_bytes`` over a window is
    the warmup cost paid in that window -- bytes that had to come from the
    device because the cache did not hold them.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    used_bytes: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def delta(self, earlier: "CacheSnapshot") -> "CacheSnapshot":
        return CacheSnapshot(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            hit_bytes=self.hit_bytes - earlier.hit_bytes,
            miss_bytes=self.miss_bytes - earlier.miss_bytes,
            used_bytes=self.used_bytes,
            entries=self.entries,
        )


class PageCache:
    """Bytes-capacity LRU cache keyed by sample index.

    Thread-safe; the concurrent engine's workers share one instance.
    """

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes < 0:
            raise StorageError(f"capacity must be >= 0, got {capacity_bytes!r}")
        self.capacity_bytes = float(capacity_bytes)
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hit_bytes = 0
        self.miss_bytes = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, key: int) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _evict_to_fit(self) -> None:
        while self._used > self.capacity_bytes and self._entries:
            _old_key, old_size = self._entries.popitem(last=False)
            self._used -= old_size
            self.evictions += 1

    def access(self, key: int, nbytes: int) -> bool:
        """Record an access; returns True on hit, inserts on miss.

        A hit whose ``nbytes`` differs from the stored entry re-accounts the
        entry at its new size (and evicts if the cache now overflows): a
        key's stored size must track what the cache actually holds, or
        ``_used`` drifts permanently and the cache over/under-evicts forever.
        Objects larger than the whole cache bypass it (never cached),
        mirroring page-cache behaviour under severe memory pressure.
        """
        if nbytes < 0:
            raise StorageError(f"negative object size: {nbytes!r}")
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self.hit_bytes += nbytes
                if nbytes != stored:
                    if nbytes > self.capacity_bytes:
                        del self._entries[key]
                        self._used -= stored
                    else:
                        self._entries[key] = nbytes
                        self._used += nbytes - stored
                        self._evict_to_fit()
                return True
            self.misses += 1
            self.miss_bytes += nbytes
            if nbytes > self.capacity_bytes:
                return False
            self._used += nbytes
            self._evict_to_fit()
            self._entries[key] = nbytes
            return False

    def snapshot(self) -> CacheSnapshot:
        """Copy the counters; pair with :meth:`CacheSnapshot.delta` for
        per-window (e.g. per-epoch) cache accounting."""
        with self._lock:
            return CacheSnapshot(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                hit_bytes=self.hit_bytes,
                miss_bytes=self.miss_bytes,
                used_bytes=self._used,
                entries=len(self._entries),
            )

    def invalidate(self, key: int) -> None:
        with self._lock:
            size = self._entries.pop(key, None)
            if size is not None:
                self._used -= size

    def stale_bytes(self, owned, namespace=None) -> float:
        """Bytes cached for keys outside ``owned`` (invalidation pressure).

        After a shard re-assignment a node may still hold entries for
        samples it no longer owns; until natural LRU churn evicts them they
        occupy capacity without any chance of a hit.  This reports that
        abandoned footprint so re-shard policies account for it as memory
        pressure instead of silently inflating hit rates.

        On a cache shared by several tenants (cluster node sites), entries
        are keyed ``(namespace, index)``; pass the caller's ``namespace``
        to scope the question to its own entries -- another tenant's cached
        bytes are that tenant's working set, not this one's staleness.
        """
        owned_keys = set(owned)
        with self._lock:
            total = 0
            for key, size in self._entries.items():
                if namespace is not None:
                    if not (
                        isinstance(key, tuple)
                        and len(key) == 2
                        and key[0] == namespace
                    ):
                        continue
                    key = key[1]
                if key not in owned_keys:
                    total += size
            return float(total)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StorageModel:
    """Cache-aware read-time model for the concurrent engine.

    ``read_seconds`` returns how long fetching a sample takes: a DRAM copy on
    a page-cache hit, a device read on a miss.  With ``cache=None`` every
    read goes to the device (cold storage).
    """

    def __init__(self, spec: StorageSpec, cache: Optional[PageCache] = None) -> None:
        self.spec = spec
        self.cache = cache
        self._lock = threading.Lock()
        self.bytes_from_disk = 0
        self.bytes_from_cache = 0

    def read_seconds(self, sample: SampleSpec) -> float:
        nbytes = sample.raw_nbytes
        hit = (
            self.cache.access(sample.index, nbytes)
            if self.cache is not None
            else False
        )
        with self._lock:
            if hit:
                self.bytes_from_cache += nbytes
            else:
                self.bytes_from_disk += nbytes
        if hit:
            return nbytes / DRAM_BANDWIDTH
        return self.spec.read_seconds(nbytes)
