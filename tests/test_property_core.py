"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distances import euclidean, squared_euclidean
from repro.core.grid import MapGrid
from repro.core.neighborhood import bubble_neighborhood, gaussian_neighborhood
from repro.core.quantization import (
    dataset_quantization_error,
    mean_quantization_error,
    unit_quantization_errors,
)
from repro.core.thresholds import GlobalThreshold, PerUnitThreshold
from repro.eval.metrics import auc, binary_metrics, roc_curve

# Hypothesis settings tuned for numerical code: modest example counts, no
# deadline (numpy warm-up can be slow on the first example).
DEFAULT_SETTINGS = {
    "max_examples": 50,
    "deadline": None,
    "suppress_health_check": [HealthCheck.too_slow],
}

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def matrices(min_rows=1, max_rows=12, min_cols=1, max_cols=6):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


class TestDistanceProperties:
    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_distances_nonnegative_and_symmetric(self, data):
        samples = data.draw(matrices(min_rows=1, max_rows=8, min_cols=2, max_cols=5))
        distances = squared_euclidean(samples, samples)
        assert np.all(distances >= 0.0)
        np.testing.assert_allclose(distances, distances.T, atol=1e-6)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-6)

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_euclidean_between_linf_and_l1_property(self, data):
        n_cols = data.draw(st.integers(2, 5))
        samples = data.draw(
            hnp.arrays(np.float64, (4, n_cols), elements=finite_floats)
        )
        codebook = data.draw(
            hnp.arrays(np.float64, (3, n_cols), elements=finite_floats)
        )
        differences = np.abs(samples[:, None, :] - codebook[None, :, :])
        eucl = euclidean(samples, codebook)
        # Tolerance matched to the rounding of the fast squared-distance
        # expansion at coordinate magnitudes around 100.
        assert np.all(differences.max(axis=2) <= eucl + 1e-4)
        assert np.all(eucl <= differences.sum(axis=2) + 1e-4)

    @given(data=st.data(), shift=finite_floats)
    @settings(**DEFAULT_SETTINGS)
    def test_translation_invariance(self, data, shift):
        samples = data.draw(matrices(min_rows=2, max_rows=6, min_cols=2, max_cols=4))
        codebook = samples[: max(1, samples.shape[0] // 2)]
        original = euclidean(samples, codebook)
        translated = euclidean(samples + shift, codebook + shift)
        # The fast |x|^2 - 2x.w + |w|^2 expansion loses a few ulps for large
        # coordinates, so compare with a tolerance matched to the data scale.
        np.testing.assert_allclose(original, translated, atol=1e-4)


class TestGridProperties:
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12))
    @settings(**DEFAULT_SETTINGS)
    def test_index_position_roundtrip(self, rows, cols):
        grid = MapGrid(rows, cols)
        for unit in range(grid.n_units):
            row, col = grid.position(unit)
            assert grid.unit_index(row, col) == unit

    @given(rows=st.integers(1, 10), cols=st.integers(1, 10))
    @settings(**DEFAULT_SETTINGS)
    def test_neighbor_counts(self, rows, cols):
        grid = MapGrid(rows, cols)
        for unit in range(grid.n_units):
            neighbors = grid.neighbors(unit)
            assert 0 <= len(neighbors) <= 4
            assert unit not in neighbors

    @given(rows=st.integers(2, 8), cols=st.integers(2, 8))
    @settings(**DEFAULT_SETTINGS)
    def test_grid_distance_triangle_inequality(self, rows, cols):
        grid = MapGrid(rows, cols)
        distances = grid.grid_distances()
        n = grid.n_units
        indices = np.random.default_rng(0).integers(0, n, size=(10, 3))
        for a, b, c in indices:
            assert distances[a, c] <= distances[a, b] + distances[b, c] + 1e-9


class TestNeighborhoodProperties:
    @given(
        distances=hnp.arrays(np.float64, 20, elements=st.floats(0.0, 50.0)),
        radius=st.floats(0.01, 20.0),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_gaussian_bounded_and_max_at_zero(self, distances, radius):
        influence = gaussian_neighborhood(distances, radius)
        assert np.all(influence >= 0.0) and np.all(influence <= 1.0)
        assert gaussian_neighborhood(np.array([0.0]), radius)[0] == pytest.approx(1.0)

    @given(
        distances=hnp.arrays(np.float64, 20, elements=st.floats(0.0, 50.0)),
        radius=st.floats(0.0, 20.0),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_bubble_is_indicator(self, distances, radius):
        influence = bubble_neighborhood(distances, radius)
        assert set(np.unique(influence)).issubset({0.0, 1.0})
        np.testing.assert_array_equal(influence, (distances <= radius).astype(float))


class TestQuantizationProperties:
    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_qe0_zero_iff_constant_data(self, data):
        row = data.draw(hnp.arrays(np.float64, 4, elements=finite_floats))
        repeated = np.tile(row, (6, 1))
        assert dataset_quantization_error(repeated) == pytest.approx(0.0, abs=1e-4)

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_unit_errors_nonnegative_and_mqe_bounded(self, data):
        samples = data.draw(matrices(min_rows=3, max_rows=10, min_cols=2, max_cols=4))
        codebook = data.draw(
            hnp.arrays(np.float64, (3, samples.shape[1]), elements=finite_floats)
        )
        errors = unit_quantization_errors(samples, codebook)
        assert np.all(errors >= 0.0)
        mqe = mean_quantization_error(samples, codebook)
        assert 0.0 <= mqe <= errors.max() + 1e-9

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_codebook_containing_all_samples_gives_zero_error(self, data):
        samples = data.draw(matrices(min_rows=2, max_rows=6, min_cols=2, max_cols=4))
        errors = unit_quantization_errors(samples, samples)
        np.testing.assert_allclose(errors, 0.0, atol=1e-4)


class TestThresholdProperties:
    @given(
        distances=hnp.arrays(
            np.float64, st.integers(5, 60), elements=st.floats(0.0, 10.0)
        ),
        percentile=st.floats(50.0, 100.0),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_global_threshold_bounds_training_fraction(self, distances, percentile):
        strategy = GlobalThreshold(percentile=percentile).fit(distances)
        ratios = strategy.normalize(distances, [("root", 0)] * distances.size)
        fraction_above = float(np.mean(ratios > 1.0))
        assert fraction_above <= 1.0 - percentile / 100.0 + 0.35

    @given(
        distances=hnp.arrays(np.float64, 40, elements=st.floats(0.0, 5.0)),
        k=st.floats(0.5, 5.0),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_per_unit_thresholds_positive(self, distances, k):
        keys = [("root", index % 4) for index in range(distances.size)]
        strategy = PerUnitThreshold(k=k, min_count=3).fit(distances, keys)
        for unit in range(4):
            assert strategy.threshold_for(("root", unit)) > 0.0


class TestMetricsProperties:
    @given(
        y_true=hnp.arrays(np.int64, st.integers(2, 80), elements=st.integers(0, 1)),
        data=st.data(),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_binary_metrics_rates_in_unit_interval(self, y_true, data):
        y_pred = data.draw(
            hnp.arrays(np.int64, y_true.shape[0], elements=st.integers(0, 1))
        )
        metrics = binary_metrics(y_true, y_pred)
        for value in metrics.as_dict().values():
            assert 0.0 <= value <= 1.0
        total = (
            metrics.true_positives
            + metrics.false_positives
            + metrics.true_negatives
            + metrics.false_negatives
        )
        assert total == y_true.shape[0]

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_roc_curve_endpoints_and_auc_bounds(self, data):
        n = data.draw(st.integers(4, 100))
        y_true = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
        scores = data.draw(
            hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0))
        )
        fpr, tpr, _ = roc_curve(y_true, scores)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == pytest.approx(1.0) or y_true.sum() in (0, n)
        area = auc(fpr, tpr)
        assert -1e-9 <= area <= 1.0 + 1e-9

    @given(data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_auc_invariant_to_monotone_score_transform(self, data):
        n = data.draw(st.integers(6, 60))
        y_true = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
        # Scores are drawn on a coarse grid so that the strictly monotone
        # transform below cannot create or destroy ties through rounding
        # (ties change the ROC curve, which would be a different invariant).
        score_codes = data.draw(hnp.arrays(np.int64, n, elements=st.integers(1, 10_000)))
        scores = score_codes.astype(float) / 1000.0
        fpr1, tpr1, _ = roc_curve(y_true, scores)
        fpr2, tpr2, _ = roc_curve(y_true, np.log(scores) * 3.0 + 7.0)
        assert auc(fpr1, tpr1) == pytest.approx(auc(fpr2, tpr2), abs=1e-6)
