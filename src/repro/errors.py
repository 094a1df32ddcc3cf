"""Exception hierarchy for the MinatoLoader reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a loader / experiment is configured inconsistently.

    Also a :class:`ValueError`: a refused knob is a bad value, so the
    simulation kernel's objects (stores, resources, links) state their
    contracts with :mod:`repro.contracts` and still raise what they always
    raised."""


class LoaderStateError(ReproError):
    """Raised when a loader is used in an invalid lifecycle state.

    Examples: iterating a loader that was already shut down, or calling
    ``shutdown()`` twice with ``strict=True``.
    """


class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class EmptySchedule(SimulationError):
    """Raised when the simulation runs out of events before ``until``."""


class DatasetError(ReproError):
    """Raised for invalid dataset access (bad index, corrupt record, ...)."""


class StorageError(ReproError):
    """Raised by the storage substrate (cache/disk models)."""
