"""Tests for repro.data.features (feature analysis and selection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.features import (
    correlation_matrix,
    drop_highly_correlated,
    feature_entropy,
    select_by_variance,
    select_top_k_by_entropy,
)
from repro.exceptions import DataValidationError


class TestSelectByVariance:
    def test_constant_columns_dropped(self):
        data = np.column_stack([np.ones(50), np.arange(50, dtype=float)])
        kept = select_by_variance(data)
        np.testing.assert_array_equal(kept, [1])

    def test_all_informative_columns_kept(self, rng):
        data = rng.random((100, 5))
        assert select_by_variance(data).size == 5


class TestFeatureEntropy:
    def test_constant_column_has_zero_entropy(self):
        data = np.column_stack([np.ones(100), np.random.default_rng(0).random(100)])
        entropies = feature_entropy(data)
        assert entropies[0] == 0.0
        assert entropies[1] > 0.0

    def test_uniform_has_higher_entropy_than_concentrated(self, rng):
        uniform_column = rng.random(2000)
        concentrated = np.concatenate([np.zeros(1900), rng.random(100)])
        data = np.column_stack([uniform_column, concentrated])
        entropies = feature_entropy(data)
        assert entropies[0] > entropies[1]

    def test_entropy_bounded_by_log_bins(self, rng):
        data = rng.random((500, 3))
        entropies = feature_entropy(data, n_bins=8)
        assert np.all(entropies <= np.log2(8) + 1e-9)


class TestSelectTopK:
    def test_k_columns_returned_sorted(self, rng):
        data = rng.random((200, 6))
        selected = select_top_k_by_entropy(data, 3)
        assert selected.size == 3
        assert np.all(np.diff(selected) > 0)

    def test_k_larger_than_columns_is_clamped(self, rng):
        data = rng.random((50, 4))
        assert select_top_k_by_entropy(data, 10).size == 4

    def test_non_positive_k_rejected(self, rng):
        with pytest.raises(DataValidationError):
            select_top_k_by_entropy(rng.random((10, 3)), 0)


class TestCorrelation:
    def test_identical_columns_fully_correlated(self, rng):
        column = rng.random(100)
        data = np.column_stack([column, column, rng.random(100)])
        correlation = correlation_matrix(data)
        assert correlation[0, 1] == pytest.approx(1.0)
        assert abs(correlation[0, 2]) < 0.5

    def test_diagonal_is_one(self, rng):
        correlation = correlation_matrix(rng.random((50, 4)))
        np.testing.assert_allclose(np.diag(correlation), 1.0)

    def test_constant_column_has_zero_offdiagonal(self, rng):
        data = np.column_stack([np.ones(50), rng.random(50)])
        correlation = correlation_matrix(data)
        assert correlation[0, 1] == 0.0

    def test_drop_highly_correlated_removes_duplicates(self, rng):
        column = rng.random(100)
        data = np.column_stack([column, column * 2.0 + 1e-9, rng.random(100)])
        kept = drop_highly_correlated(data, threshold=0.99)
        assert 0 in kept
        assert 1 not in kept
        assert 2 in kept
