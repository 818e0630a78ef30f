"""Tests for repro.core.som (the fixed-size SOM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SomTrainingConfig
from repro.core.quantization import dataset_quantization_error
from repro.core.som import Som
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError


@pytest.fixture(scope="module")
def trained_som(blob_data):
    som = Som(4, 4, n_features=4, config=SomTrainingConfig(epochs=15), random_state=0)
    som.fit(blob_data)
    return som


class TestConstruction:
    def test_codebook_shape(self):
        som = Som(3, 5, n_features=7, random_state=0)
        assert som.codebook.shape == (15, 7)
        assert som.n_units == 15

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            Som(2, 2, n_features=0)

    def test_set_codebook_validates_shape(self):
        som = Som(2, 2, n_features=3, random_state=0)
        with pytest.raises(ConfigurationError):
            som.set_codebook(np.zeros((5, 3)))

    def test_initialize_from_data_uses_data_range(self, blob_data):
        som = Som(3, 3, n_features=4, random_state=0)
        som.initialize_from_data(blob_data)
        assert som.codebook.min() >= blob_data.min() - 0.05
        assert som.codebook.max() <= blob_data.max() + 0.05


class TestTraining:
    def test_fit_reduces_quantization_error(self, blob_data):
        som = Som(4, 4, n_features=4, config=SomTrainingConfig(epochs=15), random_state=0)
        untrained_error = dataset_quantization_error(blob_data)
        som.fit(blob_data)
        assert som.average_sample_error(blob_data) < untrained_error

    def test_fit_is_reproducible_with_same_seed(self, blob_data):
        first = Som(3, 3, n_features=4, random_state=11).fit(blob_data)
        second = Som(3, 3, n_features=4, random_state=11).fit(blob_data)
        np.testing.assert_allclose(first.codebook, second.codebook)

    def test_fit_rejects_wrong_dimensionality(self, blob_data):
        som = Som(3, 3, n_features=10, random_state=0)
        with pytest.raises(DataValidationError):
            som.fit(blob_data)


class TestInference:
    def test_unfitted_som_raises(self, blob_data):
        som = Som(3, 3, n_features=4, random_state=0)
        with pytest.raises(NotFittedError):
            som.transform(blob_data)
        with pytest.raises(NotFittedError):
            som.quantization_distances(blob_data)

    def test_transform_returns_valid_units(self, trained_som, blob_data):
        bmus = trained_som.transform(blob_data)
        assert bmus.shape == (blob_data.shape[0],)
        assert bmus.min() >= 0 and bmus.max() < trained_som.n_units

    def test_blobs_map_to_distinct_units(self, trained_som, blob_data):
        """The three well-separated blobs must not collapse onto one unit."""
        bmus = trained_som.transform(blob_data)
        blob_units = [set(bmus[start : start + 80]) for start in (0, 80, 160)]
        assert blob_units[0].isdisjoint(blob_units[1])
        assert blob_units[0].isdisjoint(blob_units[2])

    def test_quantization_distance_small_for_training_data(self, trained_som, blob_data):
        distances = trained_som.quantization_distances(blob_data)
        assert distances.mean() < 0.2

    def test_outlier_has_larger_distance(self, trained_som, blob_data):
        outlier = np.array([[0.5, 0.0, 1.0, 0.5]])
        training_mean = trained_som.quantization_distances(blob_data).mean()
        assert trained_som.quantization_distances(outlier)[0] > 3 * training_mean

    def test_unit_counts_sum_to_samples(self, trained_som, blob_data):
        counts = trained_som.unit_counts(blob_data)
        assert counts.sum() == blob_data.shape[0]
        assert counts.shape == (trained_som.n_units,)

    def test_unit_errors_shape(self, trained_som, blob_data):
        errors = trained_som.unit_errors(blob_data)
        assert errors.shape == (trained_som.n_units,)
        assert np.all(errors >= 0.0)

    def test_mqe_positive_and_finite(self, trained_som, blob_data):
        mqe = trained_som.mean_quantization_error(blob_data)
        assert 0.0 < mqe < 1.0

    def test_topographic_error_in_bounds(self, trained_som, blob_data):
        assert 0.0 <= trained_som.topographic_error(blob_data) <= 1.0


class TestNeighborhoodOptions:
    @pytest.mark.parametrize("neighborhood", ["gaussian", "bubble", "mexican_hat"])
    def test_all_kernels_train(self, blob_data, neighborhood):
        config = SomTrainingConfig(epochs=5, neighborhood=neighborhood)
        som = Som(3, 3, n_features=4, config=config, random_state=0).fit(blob_data)
        assert som.average_sample_error(blob_data) < dataset_quantization_error(blob_data)

    @pytest.mark.parametrize("decay", ["linear", "exponential", "inverse"])
    def test_all_decays_train(self, blob_data, decay):
        config = SomTrainingConfig(epochs=5, decay=decay)
        som = Som(3, 3, n_features=4, config=config, random_state=0).fit(blob_data)
        assert som.is_fitted
