"""Configuration dataclasses for SOM / GHSOM training.

Separating the configuration from the models keeps constructor signatures
small, makes experiments easy to log (a config serialises to a dict), and lets
the benchmark sweeps vary one parameter at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, Mapping

import numpy as np

from repro.exceptions import ConfigurationError


def as_integer(value: object, name: str) -> int:
    """A config's integer field (``name``) as an int: an integer or a whole-number float.

    The strict bridge from a constructor argument, a stored payload or an
    override to an integer field.  A bool, a string or a fractional float is
    refused rather than coerced: ``epochs=True`` would train one epoch and
    ``2.5`` would fail deep inside ``fit``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigurationError(f"{name}: expected an integer, got {value!r}")


def _is_real(value: object) -> bool:
    """Whether ``value`` is a real number (a bool is not)."""
    return not isinstance(value, (bool, np.bool_)) and isinstance(
        value, (int, float, np.integer, np.floating)
    )


def _check_real(value: object, name: str) -> None:
    """Refuse a float field's value that is not a real number (or is a bool)."""
    if not _is_real(value):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")


def _section(data: object, name: str) -> Dict[str, object]:
    """A stored config section as a fresh dict; anything but a mapping is refused."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"stored {name} config must be a mapping, got {type(data).__name__}"
        )
    return dict(data)


def _check_keys(cls: type, payload: Mapping[str, object]) -> None:
    """Refuse keys that name no field of ``cls`` (a stored config is never guessed at)."""
    unknown = sorted(set(payload) - {item.name for item in fields(cls)}, key=str)
    if unknown:
        raise ConfigurationError(f"unknown {cls.__name__} keys {unknown}")


@dataclass(frozen=True)
class SomTrainingConfig:
    """Hyper-parameters for training one SOM layer.

    Attributes
    ----------
    epochs:
        Number of passes over the training data per growth round.

    Every layer trains with the batch rule under a Gaussian neighbourhood
    whose radius starts at half the map's larger side and decays as
    ``exp(-4 t)``.  Distances are always Euclidean: BMU search, quantization
    errors and the served anomaly score.
    """

    epochs: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "epochs", as_integer(self.epochs, "epochs"))
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict representation (for logging and serialization)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SomTrainingConfig":
        """Inverse of :meth:`to_dict` (strictly validated).

        Configs stored while training had more settings carry their keys: a
        key of :data:`_RETIRED_KEYS` is read as absent when its value is one
        today's training rule accepts, and refused otherwise.
        """
        payload = _section(data, "training")
        for key, accepts in _RETIRED_KEYS.items():
            if key not in payload:
                continue
            value = payload.pop(key)
            if not accepts(value):
                raise ConfigurationError(
                    f"unsupported training {key} {value!r}: every layer trains with "
                    "the batch rule, a Gaussian neighbourhood whose radius decays as "
                    "exp(-4t) from half the map's larger side, and Euclidean distance"
                )
        _check_keys(cls, payload)
        return cls(**payload)  # type: ignore[arg-type]


#: Keys of stored training sections that no longer name a setting, each with
#: a test for the values that trained exactly as layers train now.
#: ``learning_rate`` was never read, so every value that was once valid passes.
#: Any other value is refused, since a refit would train differently.
_RETIRED_KEYS: Dict[str, Callable[[object], bool]] = {
    "metric": lambda value: value == "euclidean",
    "neighborhood": lambda value: value == "gaussian",
    "decay": lambda value: value == "exponential",
    "initial_radius": lambda value: _is_real(value) and value == 0.0,
    "learning_rate": lambda value: _is_real(value) and 0.0 < value <= 1.0,  # type: ignore[operator]
}


@dataclass(frozen=True)
class GhsomConfig:
    """Hyper-parameters controlling GHSOM growth.

    Attributes
    ----------
    tau1:
        Horizontal (breadth) growth threshold.  A layer keeps growing while
        its mean quantization error exceeds ``tau1 * parent_qe``.  Smaller
        values produce larger, more detailed maps.
    tau2:
        Vertical (depth) growth threshold.  A unit is expanded into a child
        map while its quantization error exceeds ``tau2 * qe0``, where
        ``qe0`` is the quantization error of the whole dataset around its
        mean.  Smaller values produce deeper hierarchies.
    max_depth:
        Maximum hierarchy depth (the root layer has depth 1).
    max_map_size:
        Maximum number of units a single layer may grow to.
    max_growth_rounds:
        Safety bound on the number of insertions per layer.
    min_samples_for_expansion:
        A unit is only expanded vertically if at least this many training
        samples map to it.
    initial_rows, initial_cols:
        Shape of every newly created layer (the classic GHSOM uses 2x2).
    training:
        Per-layer SOM training configuration.
    random_state:
        Seed for weight initialisation and sample shuffling.
    """

    tau1: float = 0.3
    tau2: float = 0.05
    max_depth: int = 3
    max_map_size: int = 144
    max_growth_rounds: int = 40
    min_samples_for_expansion: int = 30
    initial_rows: int = 2
    initial_cols: int = 2
    training: SomTrainingConfig = field(default_factory=SomTrainingConfig)
    random_state: int = 0

    def __post_init__(self) -> None:
        for name in (
            "max_depth",
            "max_map_size",
            "max_growth_rounds",
            "min_samples_for_expansion",
            "initial_rows",
            "initial_cols",
            "random_state",
        ):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        _check_real(self.tau1, "tau1")
        _check_real(self.tau2, "tau2")
        if not isinstance(self.training, SomTrainingConfig):
            raise ConfigurationError(
                f"training must be a SomTrainingConfig, got {type(self.training).__name__}"
            )
        if not 0.0 < self.tau1 <= 1.0:
            raise ConfigurationError(f"tau1 must be in (0, 1], got {self.tau1}")
        if not 0.0 < self.tau2 <= 1.0:
            raise ConfigurationError(f"tau2 must be in (0, 1], got {self.tau2}")
        if self.max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.initial_rows < 2 or self.initial_cols < 2:
            raise ConfigurationError(
                "initial map shape must be at least 2x2, got "
                f"{self.initial_rows}x{self.initial_cols}"
            )
        if self.max_map_size < self.initial_rows * self.initial_cols:
            raise ConfigurationError(
                "max_map_size must be at least as large as the initial map "
                f"({self.initial_rows * self.initial_cols}), got {self.max_map_size}"
            )
        if self.max_growth_rounds < 0:
            raise ConfigurationError(
                f"max_growth_rounds must be >= 0, got {self.max_growth_rounds}"
            )
        if self.min_samples_for_expansion < 1:
            raise ConfigurationError(
                f"min_samples_for_expansion must be >= 1, got {self.min_samples_for_expansion}"
            )

    def with_updates(self, **changes) -> "GhsomConfig":
        """A copy of this config with some fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict representation (training config nested as a dict)."""
        data = asdict(self)
        data["training"] = self.training.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GhsomConfig":
        """Inverse of :meth:`to_dict` (strictly validated, see
        :meth:`SomTrainingConfig.from_dict`)."""
        payload = _section(data, "GHSOM")
        training = payload.pop("training", {})
        _check_keys(cls, payload)
        if not isinstance(training, SomTrainingConfig):
            training = SomTrainingConfig.from_dict(training)  # type: ignore[arg-type]
        return cls(training=training, **payload)  # type: ignore[arg-type]
