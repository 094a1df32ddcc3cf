"""Synthetic stand-ins for the paper's datasets (KiTS19, COCO, LibriSpeech).

The real datasets total ~315 GB and cannot be downloaded in this
environment.  What every experiment in the paper actually depends on is the
*distribution* of raw sample sizes and preprocessing costs, both of which the
paper specifies numerically (§2.2, Table 2).  These synthetic datasets
reproduce those distributions; payload arrays are small (scaled down) so the
concurrent engine stays fast, while ``raw_nbytes`` carries the paper-scale
storage footprint used by the I/O and cache models.

Defaults:

* :class:`SyntheticKiTS19` -- 210 volumes (the KiTS19 training split),
  30-375 MB each, mean ~136 MB, total ~29 GB; ~2% nearly-empty volumes.
* :class:`SyntheticCOCO` -- 0.1-1 MB images, mean ~0.8 MB.
* :class:`SyntheticLibriSpeech` -- 0.06-0.34 MB utterances, mean ~0.2 MB;
  every 5th sample is 'heavy' (HeavyStep applies), or a configurable
  fraction for the Fig. 12 sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..contracts import count, fraction, interval
from .dataset import Dataset
from .sample import SampleSpec

__all__ = [
    "SyntheticKiTS19",
    "SyntheticCOCO",
    "SyntheticLibriSpeech",
    "ReplicatedDataset",
    "MB",
]

MB = 1024 * 1024


class SyntheticKiTS19(Dataset):
    """KiTS19-like 3D CT volumes for the image-segmentation workload."""

    modality = "image3d"

    def __init__(
        self,
        n_samples: int = 210,
        seed: int = 0,
        tiny_fraction: float = 0.02,
        payload_voxels: int = 4096,
    ) -> None:
        count("n_samples", n_samples)
        count("seed", seed, lo=0)
        interval("tiny_fraction", tiny_fraction, 0, 1, "left")
        count("payload_voxels", payload_voxels)
        self._n = n_samples
        self._seed = seed
        self._payload_voxels = payload_voxels
        rng = np.random.default_rng(seed)
        # Lognormal sizes, mean ~136 MB, clipped to the paper's 30-375 MB.
        sigma = 0.32
        sizes = rng.lognormal(mean=np.log(136.0) - sigma**2 / 2, sigma=sigma, size=n_samples)
        self._sizes_mb = np.clip(sizes, 30.0, 375.0)
        self._tiny = rng.random(n_samples) < tiny_fraction
        self._spec_cache: Dict[int, SampleSpec] = {}

    def __len__(self) -> int:
        return self._n

    def spec(self, index: int) -> SampleSpec:
        self._check_index(index)
        cached = self._spec_cache.get(index)
        if cached is None:
            cached = SampleSpec(
                index=index,
                raw_nbytes=int(self._sizes_mb[index] * MB),
                seed=(self._seed * 1_000_003 + index) & 0x7FFFFFFF,
                modality=self.modality,
                attrs={"tiny": 1.0 if self._tiny[index] else 0.0},
            )
            self._spec_cache[index] = cached
        return cached

    def _materialize(self, spec: SampleSpec) -> np.ndarray:
        rng = spec.rng(salt=1)
        # Scale voxel count with the (paper-scale) size, keeping arrays small.
        rel = spec.raw_nbytes / (136.0 * MB)
        voxels = max(64, int(self._payload_voxels * rel))
        side = max(4, round(voxels ** (1.0 / 3.0)))
        volume = rng.normal(0.0, 1.0, size=(side, side, side)).astype(np.float32)
        if spec.attr("tiny"):
            volume *= 0.0
        return volume


class SyntheticCOCO(Dataset):
    """COCO-like 2D images for the object-detection workload."""

    modality = "image2d"

    def __init__(
        self,
        n_samples: int = 5000,
        seed: int = 0,
        payload_side: int = 48,
    ) -> None:
        count("n_samples", n_samples)
        count("seed", seed, lo=0)
        count("payload_side", payload_side)
        self._n = n_samples
        self._seed = seed
        self._payload_side = payload_side
        rng = np.random.default_rng(seed + 1)
        # Skewed-toward-large sizes in [0.1, 1] MB, mean ~0.8 MB.
        self._sizes_mb = 0.1 + 0.9 * rng.beta(3.4, 1.1, size=n_samples)
        self._spec_cache: Dict[int, SampleSpec] = {}

    def __len__(self) -> int:
        return self._n

    def spec(self, index: int) -> SampleSpec:
        self._check_index(index)
        cached = self._spec_cache.get(index)
        if cached is None:
            cached = SampleSpec(
                index=index,
                raw_nbytes=int(self._sizes_mb[index] * MB),
                seed=(self._seed * 1_000_003 + index) & 0x7FFFFFFF,
                modality=self.modality,
            )
            self._spec_cache[index] = cached
        return cached

    def _materialize(self, spec: SampleSpec) -> np.ndarray:
        rng = spec.rng(salt=1)
        rel = spec.raw_nbytes / (0.8 * MB)
        side = max(8, int(self._payload_side * np.sqrt(rel)))
        return rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8)


class SyntheticLibriSpeech(Dataset):
    """LibriSpeech-like utterances for the speech-recognition workload."""

    modality = "audio"

    def __init__(
        self,
        n_samples: int = 2000,
        seed: int = 0,
        heavy_period: int = 5,
        heavy_fraction: Optional[float] = None,
        payload_len: int = 2048,
    ) -> None:
        count("n_samples", n_samples)
        count("seed", seed, lo=0)
        count("heavy_period", heavy_period)
        if heavy_fraction is not None:
            fraction("heavy_fraction", heavy_fraction)
        count("payload_len", payload_len)
        self._n = n_samples
        self._seed = seed
        self._payload_len = payload_len
        rng = np.random.default_rng(seed + 2)
        # Sizes in [0.06, 0.34] MB, mean ~0.2 MB.
        self._sizes_mb = 0.06 + 0.28 * rng.beta(2.0, 2.0, size=n_samples)
        if heavy_fraction is None:
            # Every heavy_period-th sample is heavy (paper §2.2).
            self._heavy = np.arange(n_samples) % heavy_period == 0
        else:
            # Exact proportion, spread uniformly and deterministically: used
            # by the Fig. 12 "cluster of slow samples" sweep.
            n_heavy = int(round(n_samples * heavy_fraction))
            heavy = np.zeros(n_samples, dtype=bool)
            if n_heavy > 0:
                picks = rng.choice(n_samples, size=n_heavy, replace=False)
                heavy[picks] = True
            self._heavy = heavy
        self._spec_cache: Dict[int, SampleSpec] = {}

    def __len__(self) -> int:
        return self._n

    @property
    def heavy_fraction(self) -> float:
        return float(self._heavy.mean())

    def spec(self, index: int) -> SampleSpec:
        self._check_index(index)
        cached = self._spec_cache.get(index)
        if cached is None:
            cached = SampleSpec(
                index=index,
                raw_nbytes=int(self._sizes_mb[index] * MB),
                seed=(self._seed * 1_000_003 + index) & 0x7FFFFFFF,
                modality=self.modality,
                attrs={"heavy": 1.0 if self._heavy[index] else 0.0},
            )
            self._spec_cache[index] = cached
        return cached

    def _materialize(self, spec: SampleSpec) -> np.ndarray:
        rng = spec.rng(salt=1)
        rel = spec.raw_nbytes / (0.2 * MB)
        length = max(256, int(self._payload_len * rel))
        return rng.normal(0.0, 0.3, size=length).astype(np.float32)


class ReplicatedDataset(Dataset):
    """Replicate a dataset ``factor`` times under fresh indices.

    This is how the paper builds its 230 GB memory-pressure dataset from the
    29 GB KiTS19 (§5.5).  Replicas keep the base sample's payload and size
    but are distinct objects to the page cache (distinct indices).
    """

    def __init__(self, base: Dataset, factor: int) -> None:
        count("factor", factor)
        self._base = base
        self._factor = factor
        self._spec_cache: Dict[int, SampleSpec] = {}

    def __len__(self) -> int:
        return len(self._base) * self._factor

    def spec(self, index: int) -> SampleSpec:
        self._check_index(index)
        cached = self._spec_cache.get(index)
        if cached is None:
            base_spec = self._base.spec(index % len(self._base))
            cached = self._spec_cache[index] = dataclasses.replace(base_spec, index=index)
        return cached

    def _materialize(self, spec: SampleSpec) -> np.ndarray:
        base_spec = self._base.spec(spec.index % len(self._base))
        return self._base._materialize(base_spec)
