"""Baseline loaders: PyTorch DataLoader, DALI and Pecan semantics."""

from ..core.loader import BaseConcurrentLoader
from .dali_loader import DALIConfig, DALIStyleLoader
from .heuristics import SizeHeuristicLoader
from .pecan import PecanLoader
from .torch_loader import TorchLoaderConfig, TorchStyleLoader

__all__ = [
    "BaseConcurrentLoader",
    "TorchStyleLoader",
    "TorchLoaderConfig",
    "DALIStyleLoader",
    "DALIConfig",
    "PecanLoader",
    "SizeHeuristicLoader",
]
