"""Tests for repro.core.quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import MapGrid
from repro.core.quantization import (
    average_sample_error,
    dataset_quantization_error,
    mean_quantization_error,
    topographic_error,
    unit_quantization_errors,
)


class TestDatasetQuantizationError:
    def test_zero_for_identical_rows(self):
        data = np.tile([1.0, 2.0, 3.0], (10, 1))
        assert dataset_quantization_error(data) == pytest.approx(0.0)

    def test_matches_mean_distance_to_centroid(self, rng):
        data = rng.random((50, 4))
        centroid = data.mean(axis=0)
        expected = np.linalg.norm(data - centroid, axis=1).mean()
        assert dataset_quantization_error(data) == pytest.approx(expected)

    def test_scales_with_spread(self, rng):
        tight = rng.normal(0.0, 0.1, size=(100, 3))
        wide = rng.normal(0.0, 1.0, size=(100, 3))
        assert dataset_quantization_error(wide) > dataset_quantization_error(tight)


class TestUnitQuantizationErrors:
    def test_perfect_codebook_gives_zero_errors(self):
        codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
        data = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        errors = unit_quantization_errors(data, codebook)
        np.testing.assert_allclose(errors, 0.0, atol=1e-12)

    def test_empty_units_have_zero_error(self):
        codebook = np.array([[0.0, 0.0], [100.0, 100.0]])
        data = np.array([[0.1, 0.0], [0.0, 0.1]])
        errors = unit_quantization_errors(data, codebook)
        assert errors[1] == 0.0
        assert errors[0] > 0.0

    def test_precomputed_assignments_respected(self):
        codebook = np.array([[0.0, 0.0], [10.0, 10.0]])
        data = np.array([[0.0, 1.0]])
        forced = unit_quantization_errors(data, codebook, assignments=np.array([1]))
        assert forced[1] > 0.0 and forced[0] == 0.0


class TestMapLevelErrors:
    def test_mqe_is_mean_over_populated_units(self):
        codebook = np.array([[0.0, 0.0], [5.0, 5.0], [100.0, 100.0]])
        data = np.array([[1.0, 0.0], [5.0, 6.0]])
        expected = (1.0 + 1.0) / 2.0
        assert mean_quantization_error(data, codebook) == pytest.approx(expected)

    def test_average_sample_error_leq_dataset_error(self, rng):
        """A trained-looking codebook of many units beats the single centroid."""
        data = rng.random((100, 3))
        codebook = data[rng.choice(100, 10, replace=False)]
        assert average_sample_error(data, codebook) <= dataset_quantization_error(data) + 1e-9


class TestTopographicError:
    def test_single_unit_map_has_zero_error(self, rng):
        grid = MapGrid(1, 1)
        assert topographic_error(rng.random((10, 2)), rng.random((1, 2)), grid) == 0.0

    def test_error_within_bounds(self, rng):
        grid = MapGrid(3, 3)
        error = topographic_error(rng.random((50, 4)), rng.random((9, 4)), grid)
        assert 0.0 <= error <= 1.0

    def test_ordered_codebook_preserves_topology(self):
        """A codebook laid out exactly along the grid gives zero topographic error."""
        grid = MapGrid(1, 5)
        codebook = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        data = np.linspace(0.05, 0.95, 20).reshape(-1, 1)
        assert topographic_error(data, codebook, grid) == 0.0

    def test_shuffled_codebook_breaks_topology(self, rng):
        grid = MapGrid(1, 6)
        ordered = np.linspace(0.0, 1.0, 6).reshape(-1, 1)
        shuffled = ordered[[3, 0, 5, 1, 4, 2]]
        data = rng.random((200, 1))
        assert topographic_error(data, shuffled, grid) > topographic_error(data, ordered, grid)
