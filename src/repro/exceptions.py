"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class for any failure originating in this package while
still being able to distinguish the finer-grained categories below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object holds invalid parameter values."""


class NotFittedError(ReproError):
    """Raised when a model is used for prediction before being fitted."""


class DataValidationError(ReproError):
    """Raised when input data fails shape, dtype or value validation."""


class SchemaError(ReproError):
    """Raised when records do not conform to the KDD feature schema."""


class SerializationError(ReproError):
    """Raised when a model cannot be saved to or loaded from disk."""


class ServingError(ReproError):
    """Raised when a serving backend cannot execute its shard tasks.

    Wraps worker-side failures (a shard raising on a pool thread, a dead remote
    host, a refused provisioning request) with the backend name and the task
    that failed, so operators see an actionable message instead of a raw
    executor traceback.
    """


class SimulationError(ReproError):
    """Raised when the network traffic simulator is asked to do something invalid."""
