"""Training engine: simulated devices, trainer, metrics, step-time models."""

from .device import SimulatedGPU
from .metrics import (
    BusyInterval,
    IntervalRecorder,
    ThroughputMeter,
    average_utilization,
    utilization_series,
)
from .models import GPU_TYPES, MODELS, StepTimeModel
from .trainer import Trainer, TrainingResult

__all__ = [
    "SimulatedGPU",
    "BusyInterval",
    "IntervalRecorder",
    "ThroughputMeter",
    "average_utilization",
    "utilization_series",
    "StepTimeModel",
    "MODELS",
    "GPU_TYPES",
    "Trainer",
    "TrainingResult",
]
