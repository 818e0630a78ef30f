"""Tests for repro.data.schema."""

from __future__ import annotations

import pytest

from repro.data.schema import (
    ATTACK_CATEGORIES,
    ATTACK_TO_CATEGORY,
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    KddSchema,
    attack_category,
    category_labels,
)
from repro.exceptions import SchemaError


class TestFeatureNames:
    def test_schema_has_41_features(self):
        assert len(FEATURE_NAMES) == 41

    def test_feature_names_are_unique(self):
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)

    def test_categorical_features_are_in_schema(self):
        for name in CATEGORICAL_FEATURES:
            assert name in FEATURE_NAMES

    def test_known_features_present(self):
        for name in ("duration", "src_bytes", "dst_host_srv_rerror_rate", "count"):
            assert name in FEATURE_NAMES


class TestAttackCategory:
    def test_normal_maps_to_normal(self):
        assert attack_category("normal") == "normal"

    def test_named_attacks_map_to_categories(self):
        assert attack_category("smurf") == "dos"
        assert attack_category("portsweep") == "probe"
        assert attack_category("guess_passwd") == "r2l"
        assert attack_category("buffer_overflow") == "u2r"

    def test_trailing_dot_and_case_are_tolerated(self):
        assert attack_category("Smurf.") == "dos"

    def test_category_passthrough(self):
        for category in ATTACK_CATEGORIES:
            assert attack_category(category) == category

    def test_unknown_label_raises(self):
        with pytest.raises(SchemaError):
            attack_category("zero_day_mystery")

    def test_every_mapped_attack_has_valid_category(self):
        for category in ATTACK_TO_CATEGORY.values():
            assert category in ATTACK_CATEGORIES

    def test_category_labels_vectorised(self):
        assert category_labels(["normal", "smurf"]) == ["normal", "dos"]


class TestKddSchema:
    def test_default_schema_dimensions(self):
        schema = KddSchema()
        assert schema.n_features == 41
        assert len(schema.numeric_features) == 38

    def test_index_of_matches_order(self):
        schema = KddSchema()
        assert schema.index_of("duration") == 0
        assert schema.index_of("protocol_type") == 1
        assert schema.index_of(FEATURE_NAMES[-1]) == 40

    def test_index_of_unknown_feature_raises(self):
        with pytest.raises(SchemaError):
            KddSchema().index_of("no_such_feature")

    def test_is_categorical(self):
        schema = KddSchema()
        assert schema.is_categorical("service")
        assert not schema.is_categorical("duration")
        with pytest.raises(SchemaError):
            schema.is_categorical("nope")

    def test_values_for_categorical(self):
        schema = KddSchema()
        assert "tcp" in schema.values_for("protocol_type")
        with pytest.raises(SchemaError):
            schema.values_for("duration")

    def test_numeric_and_categorical_partition_the_features(self):
        schema = KddSchema()
        assert set(schema.numeric_features).isdisjoint(schema.categorical)
        assert set(schema.numeric_features) | set(schema.categorical) == set(schema.feature_names)
        positions = [schema.index_of(name) for name in schema.numeric_features]
        assert positions == sorted(positions)

    def test_categorical_without_value_set_raises(self):
        with pytest.raises(SchemaError, match="without a value set"):
            KddSchema(feature_names=("duration", "direction"), categorical=("direction",))

    def test_reduced_schema_rejects_orphan_categoricals(self):
        with pytest.raises(SchemaError):
            KddSchema(feature_names=("duration", "src_bytes"), categorical=("service",))
