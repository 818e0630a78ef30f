"""Tests for repro.core.config (SomTrainingConfig and GhsomConfig)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.exceptions import ConfigurationError


class TestSomTrainingConfig:
    def test_defaults_are_valid(self):
        config = SomTrainingConfig()
        assert config.epochs >= 1
        assert 0 < config.learning_rate <= 1

    def test_round_trip_dict(self):
        config = SomTrainingConfig(epochs=7, learning_rate=0.3, neighborhood="bubble")
        assert SomTrainingConfig.from_dict(config.to_dict()) == config

    def test_distance_is_not_a_field(self):
        assert [item.name for item in fields(SomTrainingConfig)] == [
            "epochs",
            "learning_rate",
            "initial_radius",
            "neighborhood",
            "decay",
        ]
        assert "metric" not in SomTrainingConfig().to_dict()
        with pytest.raises(TypeError):
            SomTrainingConfig(metric="euclidean")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"initial_radius": -1.0},
            {"initial_radius": float("nan")},
            {"neighborhood": "donut"},
            {"decay": "warp"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SomTrainingConfig(**kwargs)


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
    (SomTrainingConfig, "learning_rate", "0.5"),
    (SomTrainingConfig, "initial_radius", False),
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
