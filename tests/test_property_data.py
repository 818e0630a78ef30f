"""Property-based tests for the data layer (generator, preprocessing, SOM training)."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import SomTrainingConfig
from repro.core.som import Som
from repro.data.preprocess import MinMaxScaler, OneHotEncoder, StandardScaler
from repro.data.schema import ATTACK_CATEGORIES, attack_category
from repro.data.synthetic import KddSyntheticGenerator

DEFAULT_SETTINGS = {
    "max_examples": 30,
    "deadline": None,
    "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large],
}

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestGeneratorProperties:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 200))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_generated_record_conforms_to_schema(self, seed, n):
        generator = KddSyntheticGenerator(random_state=seed)
        dataset = generator.generate(n)
        schema = dataset.schema
        assert len(dataset) == n
        assert schema.n_features == 41
        assert dataset.numeric_matrix().shape == (n, 38)
        for name in schema.categorical:
            column = dataset.column(name)
            assert column.shape == (n,)
            assert set(column.tolist()) <= set(schema.values_for(name))
        for label in dataset.labels:
            assert attack_category(str(label)) in ATTACK_CATEGORIES

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_rate_features_always_within_unit_interval(self, seed):
        generator = KddSyntheticGenerator(random_state=seed)
        dataset = generator.generate(150)
        for feature in ("serror_rate", "same_srv_rate", "dst_host_rerror_rate"):
            values = dataset.column(feature).astype(float)
            assert values.min() >= 0.0 and values.max() <= 1.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_numeric_features_finite_and_nonnegative(self, seed):
        dataset = KddSyntheticGenerator(random_state=seed).generate(100)
        matrix = dataset.numeric_matrix()
        assert np.all(np.isfinite(matrix))
        assert matrix.min() >= 0.0


class TestScalerProperties:
    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_minmax_output_in_unit_interval(self, data):
        matrix = data.draw(
            hnp.arrays(
                np.float64,
                st.tuples(st.integers(2, 30), st.integers(1, 8)),
                elements=finite_floats,
            )
        )
        scaled = MinMaxScaler().fit_transform(matrix)
        assert scaled.min() >= -1e-9
        assert scaled.max() <= 1.0 + 1e-9

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_minmax_inverse_roundtrip(self, data):
        matrix = data.draw(
            hnp.arrays(
                np.float64,
                st.tuples(st.integers(2, 20), st.integers(1, 6)),
                elements=st.floats(-1e3, 1e3, allow_nan=False),
            )
        )
        scaler = MinMaxScaler(clip=False).fit(matrix)
        rebuilt = scaler.inverse_transform(scaler.transform(matrix))
        np.testing.assert_allclose(rebuilt, matrix, atol=1e-6)

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_standard_scaler_idempotent_statistics(self, data):
        matrix = data.draw(
            hnp.arrays(
                np.float64,
                st.tuples(st.integers(3, 30), st.integers(1, 6)),
                elements=st.floats(-1e3, 1e3, allow_nan=False),
            )
        )
        scaled = StandardScaler().fit_transform(matrix)
        means = scaled.mean(axis=0)
        # Near-constant columns (spread at the level of float rounding) cannot
        # be centred meaningfully, so only assert on columns with real spread.
        meaningful = matrix.std(axis=0) > 1e-6 * (1.0 + np.abs(matrix).max())
        assert np.all(np.abs(means[meaningful]) < 1e-5)

    @given(values=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=50))
    @settings(**DEFAULT_SETTINGS)
    def test_onehot_rows_sum_to_one_for_known_values(self, values):
        encoder = OneHotEncoder().fit(values)
        encoded = encoder.transform(values)
        np.testing.assert_allclose(encoded.sum(axis=1), 1.0)


class TestSomTrainingProperties:
    @given(seed=st.integers(0, 1000), n_clusters=st.integers(1, 3))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_training_never_worse_than_single_centroid(self, seed, n_clusters):
        """A trained SOM always quantises at least as well as the global mean."""
        rng = np.random.default_rng(seed)
        centers = rng.random((n_clusters, 3))
        data = np.concatenate(
            [center + rng.normal(0, 0.05, (40, 3)) for center in centers], axis=0
        )
        som = Som(3, 3, n_features=3, config=SomTrainingConfig(epochs=5), random_state=seed)
        som.fit(data)
        from repro.core.quantization import dataset_quantization_error

        assert som.average_sample_error(data) <= dataset_quantization_error(data) + 1e-9

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_codebook_always_finite(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((60, 5)) * 100.0
        som = Som(4, 4, n_features=5, config=SomTrainingConfig(epochs=4), random_state=seed)
        som.fit(data)
        assert np.all(np.isfinite(som.codebook))
