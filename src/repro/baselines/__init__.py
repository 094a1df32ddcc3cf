"""The threaded PyTorch-DataLoader baseline, on the one loader chassis.

DALI, Pecan and the §3.2 size heuristic are baselines only in the
simulator (:mod:`repro.sim.loaders`: ``SimDALILoader``, ``SimPecanLoader``
and ``SimMinatoLoader(classifier="size")``), where every figure runs them.
"""

from ..core.loader import BaseConcurrentLoader
from .torch_loader import TorchLoaderConfig, TorchStyleLoader

__all__ = [
    "BaseConcurrentLoader",
    "TorchStyleLoader",
    "TorchLoaderConfig",
]
