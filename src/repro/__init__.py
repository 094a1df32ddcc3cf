"""Reproduction of MinatoLoader (EUROSYS '26).

Public API highlights:

* :class:`repro.core.MinatoLoader` -- the paper's contribution: a sample-aware
  data loader with fast/slow/temp/batch queues, warm-up profiling, and an
  adaptive worker scheduler.
* :mod:`repro.baselines` -- the PyTorch-DataLoader baseline on the same
  threaded chassis (DALI, Pecan and the size heuristic are simulator
  models, :mod:`repro.sim.loaders`).
* :mod:`repro.data` -- synthetic KiTS19 / COCO / LibriSpeech datasets and the
  storage model (page cache + bandwidth-limited disk).
* :mod:`repro.transforms` -- the preprocessing pipelines of paper Table 1.
* :mod:`repro.engine` -- simulated GPU devices, trainer, metrics, and the
  real-model accuracy experiments.
* :mod:`repro.sim` -- the discrete-event substrate used for paper-scale runs.
* :mod:`repro.experiments` -- one runner per paper table/figure.
"""

from .clock import Clock, RealClock, ScaledClock, ThreadLocalClock
from .errors import (
    ConfigurationError,
    DatasetError,
    LoaderStateError,
    ReproError,
    SimulationError,
    StorageError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Clock",
    "RealClock",
    "ScaledClock",
    "ThreadLocalClock",
    "ReproError",
    "ConfigurationError",
    "LoaderStateError",
    "SimulationError",
    "DatasetError",
    "StorageError",
]
