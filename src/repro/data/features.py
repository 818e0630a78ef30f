"""Feature analysis and selection utilities.

These helpers operate on already-encoded numeric matrices (the output of
:class:`~repro.data.preprocess.PreprocessingPipeline`) and are used both by
the examples (feature studies) and by the ablation benchmarks to show that the
GHSOM detector degrades gracefully under aggressive feature reduction.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import DataValidationError
from repro.utils.validation import check_array_2d, check_positive


def select_by_variance(matrix, threshold: float = 1e-12) -> np.ndarray:
    """Indices of columns whose variance exceeds ``threshold``.

    Constant columns carry no information for a distance-based model and only
    dilute the metric, so dropping them is a cheap win.
    """
    data = check_array_2d(matrix, "matrix")
    variances = data.var(axis=0)
    return np.flatnonzero(variances > threshold)


def feature_entropy(matrix, n_bins: int = 16) -> np.ndarray:
    """Shannon entropy of each column's empirical (binned) distribution.

    Entropy is measured in bits.  Constant columns have zero entropy.
    """
    data = check_array_2d(matrix, "matrix")
    check_positive(n_bins, "n_bins")
    entropies = np.zeros(data.shape[1])
    for column in range(data.shape[1]):
        values = data[:, column]
        low, high = values.min(), values.max()
        if high == low:
            entropies[column] = 0.0
            continue
        histogram, _ = np.histogram(values, bins=int(n_bins), range=(low, high))
        probabilities = histogram / histogram.sum()
        nonzero = probabilities[probabilities > 0]
        entropies[column] = float(-np.sum(nonzero * np.log2(nonzero)))
    return entropies


def select_top_k_by_entropy(matrix, k: int, n_bins: int = 16) -> np.ndarray:
    """Indices of the ``k`` columns with the highest empirical entropy."""
    data = check_array_2d(matrix, "matrix")
    if k <= 0:
        raise DataValidationError(f"k must be positive, got {k}")
    k = min(k, data.shape[1])
    entropies = feature_entropy(data, n_bins=n_bins)
    order = np.argsort(entropies)[::-1]
    return np.sort(order[:k])


def correlation_matrix(matrix) -> np.ndarray:
    """Pearson correlation matrix of the columns (constant columns give zero rows)."""
    data = check_array_2d(matrix, "matrix")
    std = data.std(axis=0)
    safe_std = np.where(std == 0.0, 1.0, std)
    centered = (data - data.mean(axis=0)) / safe_std
    correlation = centered.T @ centered / data.shape[0]
    constant = std == 0.0
    correlation[constant, :] = 0.0
    correlation[:, constant] = 0.0
    np.fill_diagonal(correlation, 1.0)
    return correlation


def drop_highly_correlated(matrix, threshold: float = 0.98) -> np.ndarray:
    """Greedy selection of column indices keeping at most one of each highly correlated pair."""
    data = check_array_2d(matrix, "matrix")
    correlation = np.abs(correlation_matrix(data))
    n_columns = data.shape[1]
    keep: List[int] = []
    for column in range(n_columns):
        if all(correlation[column, kept] < threshold for kept in keep):
            keep.append(column)
    return np.array(keep, dtype=int)

