"""Tests for repro.data.synthetic (the KDD-style generator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.schema import KddSchema
from repro.data.synthetic import (
    ClassProfile,
    KddSyntheticGenerator,
    NumericSpec,
    bernoulli,
    beta,
    constant,
    default_profiles,
    lognormal,
    normal,
    poisson,
    uniform,
)
from repro.exceptions import ConfigurationError, DataValidationError


class TestNumericSpec:
    def test_constant_sampling(self, rng):
        values = constant(3.5).sample(rng, 10)
        assert np.all(values == 3.5)

    def test_uniform_bounds(self, rng):
        values = uniform(1.0, 2.0).sample(rng, 500)
        assert values.min() >= 1.0 and values.max() <= 2.0

    def test_bernoulli_is_binary(self, rng):
        values = bernoulli(0.5).sample(rng, 200)
        assert set(np.unique(values)).issubset({0.0, 1.0})

    def test_beta_in_unit_interval(self, rng):
        values = beta(2.0, 5.0).sample(rng, 200)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_poisson_nonnegative_integers(self, rng):
        values = poisson(3.0).sample(rng, 200)
        assert np.all(values >= 0)
        np.testing.assert_allclose(values, np.round(values))

    def test_lognormal_positive(self, rng):
        assert np.all(lognormal(1.0, 1.0).sample(rng, 100) > 0)

    def test_normal_mean_close(self, rng):
        values = normal(10.0, 0.1).sample(rng, 500)
        assert abs(values.mean() - 10.0) < 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            NumericSpec("cauchy", (0.0, 1.0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigurationError):
            NumericSpec("uniform", (1.0,))


class TestClassProfile:
    def test_unknown_numeric_feature_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassProfile(label="x", numeric={"not_a_feature": constant(1.0)})

    def test_categorical_feature_in_numeric_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassProfile(label="x", numeric={"service": constant(1.0)})

    def test_bad_categorical_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ClassProfile(label="x", categorical={"protocol_type": {"quic": 1.0}})

    def test_sample_shape_and_schema_conformance(self, rng):
        schema = KddSchema()
        profile = default_profiles()["normal"]
        numeric, symbolic = profile.sample(rng, 50, schema)
        assert numeric.shape == (50, len(schema.numeric_features))
        assert numeric.dtype == np.float64
        assert len(symbolic) == len(schema.categorical)
        for name, column in zip(schema.categorical, symbolic, strict=True):
            assert column.shape == (50,)
            assert set(column.tolist()) <= set(schema.values_for(name))

    def test_rate_features_stay_in_unit_interval(self, rng):
        schema = KddSchema()
        profile = default_profiles()["neptune"]
        numeric, _ = profile.sample(rng, 200, schema)
        values = numeric[:, schema.numeric_features.index("serror_rate")]
        assert values.min() >= 0.0 and values.max() <= 1.0


class TestDefaultProfiles:
    def test_all_categories_covered(self):
        generator = KddSyntheticGenerator(random_state=0)
        categories = generator.categories_present()
        for category in ("normal", "dos", "probe", "r2l", "u2r"):
            assert category in categories and categories[category]

    def test_profiles_have_unique_labels(self):
        profiles = default_profiles()
        assert len(profiles) == len(set(profiles))


class TestKddSyntheticGenerator:
    def test_generate_count_and_schema(self, generator):
        dataset = generator.generate(123)
        assert len(dataset) == 123
        assert dataset.schema.n_features == 41

    def test_generate_is_reproducible(self):
        first = KddSyntheticGenerator(random_state=5).generate(200)
        second = KddSyntheticGenerator(random_state=5).generate(200)
        assert list(first.labels) == list(second.labels)
        np.testing.assert_array_equal(
            first.numeric_matrix(), second.numeric_matrix()
        )

    def test_class_mix_is_respected(self):
        generator = KddSyntheticGenerator(random_state=0)
        dataset = generator.generate(500, class_mix={"normal": 0.5, "smurf": 0.5})
        counts = dataset.class_counts(by_category=False)
        assert set(counts) == {"normal", "smurf"}
        assert abs(counts["normal"] - 250) < 80

    def test_generate_class_single_label(self, generator):
        dataset = generator.generate_class("neptune", 50)
        assert set(map(str, dataset.labels)) == {"neptune"}

    def test_generate_normal_has_no_attacks(self, generator):
        dataset = generator.generate_normal(100)
        assert not dataset.is_attack.any()

    def test_generate_train_test_sizes(self, generator):
        train, test = generator.generate_train_test(200, 100)
        assert len(train) == 200 and len(test) == 100

    def test_unknown_profile_in_mix_rejected(self, generator):
        with pytest.raises(ConfigurationError):
            generator.generate(10, class_mix={"martian_probe": 1.0})

    def test_unknown_class_for_generate_class_rejected(self, generator):
        with pytest.raises(ConfigurationError):
            generator.generate_class("martian_probe", 10)

    def test_non_positive_count_rejected(self, generator):
        with pytest.raises(DataValidationError):
            generator.generate(0)

    def test_attack_volume_features_separate_from_normal(self, generator):
        """DoS floods must show far higher connection counts than normal traffic."""
        normal = generator.generate_class("normal", 300)
        smurf = generator.generate_class("smurf", 300)
        normal_count = normal.column("count").astype(float).mean()
        smurf_count = smurf.column("count").astype(float).mean()
        assert smurf_count > 10 * normal_count

    def test_r2l_resembles_normal_on_volume(self, generator):
        """R2L traffic should overlap with normal on volume features (what makes it hard)."""
        normal = generator.generate_class("normal", 300)
        guess = generator.generate_class("guess_passwd", 300)
        normal_count = normal.column("count").astype(float).mean()
        guess_count = guess.column("count").astype(float).mean()
        assert guess_count < 3 * max(normal_count, 1.0)

    def test_custom_profiles_only(self):
        profiles = {"normal": default_profiles()["normal"]}
        generator = KddSyntheticGenerator(profiles=profiles, random_state=0)
        dataset = generator.generate(50)
        assert set(map(str, dataset.labels)) == {"normal"}

    def test_empty_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            KddSyntheticGenerator(profiles={})
