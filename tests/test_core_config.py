"""Tests for repro.core.config (SomTrainingConfig and GhsomConfig)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.exceptions import ConfigurationError

#: The training section every golden artifact (v1-v3) stores.
GOLDEN_TRAINING = {
    "epochs": 3,
    "learning_rate": 0.5,
    "initial_radius": 0.0,
    "neighborhood": "gaussian",
    "decay": "exponential",
    "metric": "euclidean",
}


class TestSomTrainingConfig:
    def test_defaults_are_valid(self):
        assert SomTrainingConfig().epochs >= 1

    def test_round_trip_dict(self):
        config = SomTrainingConfig(epochs=7)
        assert config.to_dict() == {"epochs": 7}
        assert SomTrainingConfig.from_dict(config.to_dict()) == config

    def test_epochs_is_the_only_field(self):
        assert tuple(item.name for item in fields(SomTrainingConfig)) == ("epochs",)

    @pytest.mark.parametrize(
        ("name", "value"), [item for item in GOLDEN_TRAINING.items() if item[0] != "epochs"]
    )
    def test_retired_settings_are_not_arguments(self, name, value):
        with pytest.raises(TypeError):
            SomTrainingConfig(**{name: value})

    def test_invalid_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            SomTrainingConfig(epochs=0)


#: Stored values of retired training keys that train exactly as layers train
#: now, so they read as absent.  ``learning_rate`` was never read: every value
#: that was once valid, a real number in (0, 1], is dropped.
ACCEPTED_RETIRED_VALUES = [
    ("initial_radius", 0),
    ("initial_radius", -0.0),
    ("initial_radius", np.float64(0.0)),
    ("learning_rate", 1.0),
    ("learning_rate", 5e-324),
    ("learning_rate", 1),
    ("learning_rate", np.float32(0.25)),
]

#: Stored values that are refused: a variant of the rule that would train
#: differently on a refit, or a ``learning_rate`` that was never valid.
REFUSED_RETIRED_VALUES = [
    ("metric", "manhattan"),
    ("metric", None),
    ("neighborhood", "bubble"),
    ("neighborhood", "mexican_hat"),
    ("neighborhood", "donut"),
    ("decay", "linear"),
    ("decay", "inverse"),
    ("decay", "constant"),
    ("decay", 4),
    ("initial_radius", 2.5),
    ("initial_radius", 1),
    ("initial_radius", -1.0),
    ("initial_radius", float("nan")),
    ("initial_radius", False),
    ("initial_radius", "0"),
    ("learning_rate", 0),
    ("learning_rate", 0.0),
    ("learning_rate", 1.5),
    ("learning_rate", -0.5),
    ("learning_rate", float("nan")),
    ("learning_rate", True),
    ("learning_rate", "0.5"),
    ("learning_rate", None),
]


class TestStoredTrainingSection:
    def test_golden_section_reads_as_its_epochs(self):
        assert SomTrainingConfig.from_dict(GOLDEN_TRAINING) == SomTrainingConfig(epochs=3)

    def test_golden_section_nested_in_a_ghsom_config(self):
        payload = {**GhsomConfig().to_dict(), "training": GOLDEN_TRAINING}
        assert GhsomConfig.from_dict(payload).training == SomTrainingConfig(epochs=3)

    def test_writers_store_only_epochs(self):
        assert GhsomConfig().to_dict()["training"] == {"epochs": 10}

    @pytest.mark.parametrize(
        ("key", "value"),
        ACCEPTED_RETIRED_VALUES,
        ids=[f"{key}={value!r}" for key, value in ACCEPTED_RETIRED_VALUES],
    )
    def test_value_that_trains_the_same_reads_as_absent(self, key, value):
        stored = {**GOLDEN_TRAINING, key: value}
        assert SomTrainingConfig.from_dict(stored) == SomTrainingConfig(epochs=3)

    @pytest.mark.parametrize("nested", [False, True], ids=["training", "ghsom"])
    @pytest.mark.parametrize(
        ("key", "value"),
        REFUSED_RETIRED_VALUES,
        ids=[f"{key}={value!r}" for key, value in REFUSED_RETIRED_VALUES],
    )
    def test_other_value_is_refused_by_name(self, key, value, nested):
        stored = {**GOLDEN_TRAINING, key: value}
        with pytest.raises(ConfigurationError, match=f"training {key} "):
            if nested:
                GhsomConfig.from_dict({**GhsomConfig().to_dict(), "training": stored})
            else:
                SomTrainingConfig.from_dict(stored)


class TestGhsomConfig:
    def test_defaults_are_valid(self):
        config = GhsomConfig()
        assert 0 < config.tau1 <= 1
        assert 0 < config.tau2 <= 1
        assert config.max_depth >= 1

    def test_round_trip_dict(self):
        config = GhsomConfig(tau1=0.25, tau2=0.07, max_depth=4, training=SomTrainingConfig(epochs=3))
        rebuilt = GhsomConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.training.epochs == 3

    def test_with_updates_creates_modified_copy(self):
        config = GhsomConfig(tau1=0.3)
        updated = config.with_updates(tau1=0.1)
        assert updated.tau1 == 0.1
        assert config.tau1 == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau1": 0.0},
            {"tau1": 1.5},
            {"tau2": -0.1},
            {"max_depth": 0},
            {"initial_rows": 1},
            {"initial_cols": 1},
            {"max_map_size": 3},
            {"max_growth_rounds": -1},
            {"min_samples_for_expansion": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GhsomConfig(**kwargs)

    def test_from_dict_accepts_training_config_instance(self):
        payload = GhsomConfig().to_dict()
        payload["training"] = SomTrainingConfig(epochs=2)
        assert GhsomConfig.from_dict(payload).training.epochs == 2


#: Values a config field cannot hold: a bool, a string or a fraction where an
#: integer goes, a non-number where a float goes, a non-mapping section.
#: Before, some trained silently (``epochs=True`` ran one epoch) and others
#: escaped as a bare ``TypeError`` from ``fit`` or from loading an artifact.
MISTYPED_FIELDS = [
    (SomTrainingConfig, "epochs", True),
    (SomTrainingConfig, "epochs", 2.5),
    (SomTrainingConfig, "epochs", "3"),
    (GhsomConfig, "max_depth", 2.5),
    (GhsomConfig, "max_map_size", "9"),
    (GhsomConfig, "max_growth_rounds", None),
    (GhsomConfig, "min_samples_for_expansion", 30.5),
    (GhsomConfig, "initial_rows", True),
    (GhsomConfig, "initial_cols", "2"),
    (GhsomConfig, "random_state", "0"),
    (GhsomConfig, "tau1", "0.3"),
    (GhsomConfig, "tau2", True),
    (GhsomConfig, "training", [1]),
]


@pytest.mark.parametrize("entry", ["constructor", "from_dict"])
@pytest.mark.parametrize(
    ("cls", "name", "value"),
    MISTYPED_FIELDS,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value in MISTYPED_FIELDS],
)
def test_mistyped_field_is_a_configuration_error(cls, name, value, entry):
    with pytest.raises(ConfigurationError, match=name):
        if entry == "constructor":
            cls(**{name: value})
        else:
            cls.from_dict({**cls().to_dict(), name: value})


@pytest.mark.parametrize(
    ("cls", "payload", "error"),
    [
        (GhsomConfig, {"tau3": 0.1}, "unknown GhsomConfig keys \\['tau3'\\]"),
        (SomTrainingConfig, {"momentum": 0.9}, "unknown SomTrainingConfig keys"),
        (GhsomConfig, {"training": {"momentum": 0.9}}, "unknown SomTrainingConfig keys"),
    ],
    ids=["ghsom-unknown-key", "training-unknown-key", "nested-unknown-key"],
)
def test_from_dict_refuses_unknown_keys(cls, payload, error):
    with pytest.raises(ConfigurationError, match=error):
        cls.from_dict({**cls().to_dict(), **payload})


@pytest.mark.parametrize("cls", [GhsomConfig, SomTrainingConfig])
def test_from_dict_refuses_a_non_mapping_config(cls):
    with pytest.raises(ConfigurationError, match="must be a mapping"):
        cls.from_dict([1])


def test_whole_number_floats_become_integers():
    config = GhsomConfig(initial_rows=2.0, max_depth=3.0, training=SomTrainingConfig(epochs=4.0))
    assert (config.initial_rows, config.max_depth, config.training.epochs) == (2, 3, 4)
    assert all(
        type(value) is int
        for value in (config.initial_rows, config.max_depth, config.training.epochs)
    )
    assert config == GhsomConfig(initial_rows=2, max_depth=3, training=SomTrainingConfig(epochs=4))
