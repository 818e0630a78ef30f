"""Property tests: compiled GHSOM inference is bit-identical to the legacy path.

For randomly generated datasets, growth configurations and distance metrics,
a fitted GHSOM's compiled engine must reproduce the legacy recursive descent
*exactly* — same leaf keys, same distances (``np.array_equal``, not allclose),
and at the detector level the same scores, predictions and categories.  This
is the acceptance property of the compiled inference engine: it is a pure
representation change, not an approximation.  The detector-level property
also scores through a v3 artifact, served from memory-mapped arrays, so the
descent's node paths run on ``np.memmap`` inputs as well as in-RAM arrays.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Ghsom, GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core.serialization import load_detector, save_detector

from legacy_descent import assign_legacy, legacy_predict_category, legacy_score_samples

# Fitting a GHSOM per example is expensive: few examples, generous deadline.
FIT_SETTINGS = {
    "max_examples": 12,
    "deadline": None,
    "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large],
}

def _make_dataset(seed: int, n_clusters: int, n_features: int, n_samples: int) -> np.ndarray:
    """Clustered data so random configs actually grow multi-level trees."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(n_clusters, n_features))
    assignments = rng.integers(0, n_clusters, size=n_samples)
    return centers[assignments] + rng.normal(0.0, 0.15, size=(n_samples, n_features))


def _random_config(data) -> GhsomConfig:
    return GhsomConfig(
        tau1=data.draw(st.sampled_from([0.3, 0.5, 0.7])),
        tau2=data.draw(st.sampled_from([0.05, 0.15, 0.4])),
        max_depth=data.draw(st.integers(1, 3)),
        max_map_size=data.draw(st.sampled_from([9, 16, 25])),
        max_growth_rounds=4,
        min_samples_for_expansion=data.draw(st.sampled_from([10, 25])),
        training=SomTrainingConfig(epochs=2),
        random_state=data.draw(st.integers(0, 2**16)),
    )


class TestCompiledModelEquivalence:
    @given(data=st.data())
    @settings(**FIT_SETTINGS)
    def test_assignments_bit_identical(self, data):
        dataset = _make_dataset(
            seed=data.draw(st.integers(0, 2**16)),
            n_clusters=data.draw(st.integers(2, 4)),
            n_features=data.draw(st.integers(2, 5)),
            n_samples=data.draw(st.integers(60, 140)),
        )
        model = Ghsom(_random_config(data)).fit(dataset)
        # Score both in-sample points and perturbed/outlying queries.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        queries = np.concatenate(
            [dataset[:40], dataset[:20] + rng.normal(0.0, 0.8, (20, dataset.shape[1]))]
        )
        legacy = assign_legacy(model, queries)
        compiled = model.compile()
        leaf_index, distances = model.assign_arrays(queries)

        assert [compiled.leaf_keys[row] for row in leaf_index] == [
            assignment.leaf_key for assignment in legacy
        ]
        np.testing.assert_array_equal(
            distances, np.array([assignment.distance for assignment in legacy])
        )
        assert [int(compiled.leaf_depth[row]) for row in leaf_index] == [
            assignment.depth for assignment in legacy
        ]
        # The dataclass fast path is built from the same arrays.
        assert model.assign(queries) == legacy


class TestCompiledDetectorEquivalence:
    @given(data=st.data())
    @settings(**FIT_SETTINGS)
    def test_scores_predictions_categories_identical(self, data, compilerless_host):
        n_features = data.draw(st.integers(2, 4))
        dataset = _make_dataset(
            seed=data.draw(st.integers(0, 2**16)),
            n_clusters=3,
            n_features=n_features,
            n_samples=data.draw(st.integers(70, 120)),
        )
        labeled = data.draw(st.booleans())
        labels = None
        if labeled:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            labels = list(rng.choice(["normal", "dos", "probe"], size=dataset.shape[0]))
        strategy = data.draw(st.sampled_from(["per_unit", "global"]))
        # The legacy recursive descent is the numpy engine's byte-exact oracle.
        detector = GhsomDetector(_random_config(data), threshold_strategy=strategy, random_state=0)
        detector.fit(dataset, labels)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        queries = np.concatenate(
            [dataset[:30], dataset[:15] + rng.normal(0.0, 1.0, (15, n_features))]
        )

        expected_scores = legacy_score_samples(detector, queries)
        np.testing.assert_array_equal(detector.score_samples(queries), expected_scores)
        np.testing.assert_array_equal(
            detector.predict(queries), (expected_scores > 1.0).astype(int)
        )
        expected_categories = legacy_predict_category(detector, queries) if labeled else None
        if labeled:
            assert detector.predict_category(queries) == expected_categories

        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "detector.json"
            save_detector(detector, path)
            served = load_detector(path)
            assert isinstance(served._compiled_model().codebook, np.memmap)
            result = served.detect(queries)
            assert np.array_equal(result.scores, expected_scores)
            if labeled:
                assert result.categories == expected_categories
            # A one-row batch lands or descends whole at every node it visits.
            for row in queries[::9]:
                expected_row = legacy_score_samples(detector, row[None])
                assert np.array_equal(detector.score_samples(row[None]), expected_row)
                assert np.array_equal(served.detect(row[None]).scores, expected_row)
            # The same arithmetic whether the arrays are mapped or in RAM.
            in_ram = detector.detect(queries)
        assert result.scores.tobytes() == in_ram.scores.tobytes()
        assert np.array_equal(result.leaf_index, in_ram.leaf_index)
        assert result.categories == in_ram.categories
