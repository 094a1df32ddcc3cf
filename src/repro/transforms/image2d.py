"""Object-detection preprocessing pipeline (paper Table 1, COCO/Mask R-CNN).

``Resize -> RandomHorizontalFlip -> ToTensor -> Normalize``

Cost model calibrated to paper Table 2 (milliseconds):

    Avg 31, Median 28, P75 30, P90 35, Min-Max-Std 11-176-19

Crucially (§3.2), preprocessing cost is *not* predictable from image size in
this workload: a 408 KB image may take 13 ms while a 220 KB image takes
155 ms.  The model therefore draws a per-sample base cost independent of the
raw size and adds a rare (~3%) multiplicative outlier representing expensive
randomized augmentations, producing the long 176 ms tail.

A mild size-sensitivity on the tensor-level steps (``ToTensor``,
``Normalize``) makes Pecan's AutoOrder reordering measurably -- but only
slightly -- beneficial, matching the ~3% effect of paper Fig. 3b.
"""

from __future__ import annotations

import numpy as np

from ..data.sample import Sample, SampleSpec
from .base import Pipeline, PipelineState, SizeEffect, Transform, WorkContext

__all__ = [
    "Resize2D",
    "RandomHorizontalFlip",
    "ToTensor",
    "Normalize",
    "detection_pipeline",
]

MB = 1024 * 1024

#: calibration targets
_BASE_MEAN_SECONDS = 0.028
_BASE_SIGMA_SECONDS = 0.0035
_BASE_MIN_SECONDS = 0.011
_OUTLIER_PROBABILITY = 0.03
_OUTLIER_FACTOR_RANGE = (3.5, 6.3)

#: share of the per-sample budget attributed to each transform
_FRACTIONS = {
    "Resize2D": 0.55,
    "RandomHorizontalFlip": 0.05,
    "ToTensor": 0.15,
    "Normalize": 0.25,
}
#: which transforms scale (mildly) with the bytes entering them
_SIZE_SENSITIVE = {"ToTensor", "Normalize"}
#: footprint entering the tensor-level steps in the *default* order, used to
#: normalize the size-sensitivity so the default order hits Table 2 exactly
_REFERENCE_TENSOR_NBYTES = 7.0 * MB
_SIZE_WEIGHT = 0.15

_SALT_BASE = 201
_SALT_OUTLIER = 202


def detection_base_cost(spec: SampleSpec) -> float:
    """Total preprocessing cost of one sample in the default order."""
    base = _BASE_MEAN_SECONDS + _BASE_SIGMA_SECONDS * spec.normal(_SALT_BASE)
    base = max(base, _BASE_MIN_SECONDS)
    if spec.u01(_SALT_OUTLIER) < _OUTLIER_PROBABILITY:
        base *= spec.uniform(_SALT_OUTLIER, *_OUTLIER_FACTOR_RANGE, stream=1)
    return float(base)


def _transform_cost(name: str, spec: SampleSpec, state: PipelineState) -> float:
    base = state.base_cost
    if base is None:
        base = state.base_cost = detection_base_cost(spec)
    cost = _FRACTIONS[name] * base
    if name in _SIZE_SENSITIVE:
        rel = state.nbytes / _REFERENCE_TENSOR_NBYTES
        cost *= (1.0 - _SIZE_WEIGHT) + _SIZE_WEIGHT * rel
    return cost


def _target_tensor_nbytes(spec: SampleSpec) -> float:
    """Footprint of the decoded+resized tensor (4-12 MB, mean ~7 MB)."""
    return spec.uniform(203, 4.0, 12.0) * MB


class Resize2D(Transform):
    """Decode + resize to the model's input resolution.

    Inflationary for (nearly all) COCO images: a ~0.8 MB compressed image
    becomes a 4-12 MB tensor.  Pecan classifies it per-dataset and moves it
    to the end of the pipeline when it inflates (paper §5.1).
    """

    size_effect = SizeEffect.VARIES

    def __init__(self, height: int = 32, width: int = 32) -> None:
        if height < 1 or width < 1:
            raise ValueError("resize target must be at least 1x1")
        self.height = height
        self.width = width

    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        return _transform_cost("Resize2D", spec, state)

    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        return _target_tensor_nbytes(spec)

    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        image = sample.data
        if image.ndim == 2:
            image = image[:, :, None]
        src_h, src_w = image.shape[:2]
        rows = np.clip(
            (np.arange(self.height) * src_h / self.height).astype(int), 0, src_h - 1
        )
        cols = np.clip(
            (np.arange(self.width) * src_w / self.width).astype(int), 0, src_w - 1
        )
        return np.ascontiguousarray(image[rows][:, cols])


class RandomHorizontalFlip(Transform):
    """Mirror the image left-right with probability ``p``."""

    size_effect = SizeEffect.NEUTRAL

    def __init__(self, p: float = 0.5) -> None:
        if not 0 <= p <= 1:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        self.p = p

    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        return _transform_cost("RandomHorizontalFlip", spec, state)

    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        return state.nbytes

    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        if ctx.rng.random() < self.p:
            return np.ascontiguousarray(sample.data[:, ::-1])
        return sample.data


class ToTensor(Transform):
    """uint8 HWC -> float32 CHW in [0, 1]."""

    size_effect = SizeEffect.INFLATIONARY

    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        return _transform_cost("ToTensor", spec, state)

    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        return state.nbytes  # footprint already counted at tensor level

    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        image = sample.data
        if image.ndim == 2:
            image = image[:, :, None]
        tensor = image.astype(np.float32)
        if tensor.max() > 1.0:
            tensor = tensor / 255.0
        return np.ascontiguousarray(np.moveaxis(tensor, -1, 0))


class Normalize(Transform):
    """Standardize channels: ``(x - mean) / std``."""

    size_effect = SizeEffect.NEUTRAL

    def __init__(self, mean: float = 0.45, std: float = 0.225) -> None:
        if std <= 0:
            raise ValueError(f"std must be positive, got {std!r}")
        self.mean = mean
        self.std = std

    def cost(self, spec: SampleSpec, state: PipelineState) -> float:
        return _transform_cost("Normalize", spec, state)

    def output_nbytes(self, spec: SampleSpec, state: PipelineState) -> float:
        return state.nbytes

    def _operate(self, sample: Sample, ctx: WorkContext) -> np.ndarray:
        return (sample.data - self.mean) / self.std


def detection_pipeline() -> Pipeline:
    """The paper's object-detection preprocessing pipeline (Table 1)."""
    return Pipeline([Resize2D(), RandomHorizontalFlip(), ToTensor(), Normalize()])
