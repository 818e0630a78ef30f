"""Quantization and topographic error measures.

These are the quality measures GHSOM growth decisions are based on:

* the **quantization error (QE)** of a unit is the mean Euclidean distance of
  the samples mapped to it from its weight vector;
* the **mean quantization error (MQE)** of a map is the average unit QE over
  units that have at least one mapped sample;
* ``qe0`` is the quantization error of the whole dataset with respect to its
  mean — the yardstick against which both growth thresholds are measured;
* the **topographic error** measures how often a sample's first and second
  BMUs are not adjacent on the grid, i.e. how well the map preserves
  topology.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distances import euclidean
from repro.core.grid import MapGrid
from repro.utils.validation import check_array_2d


def dataset_quantization_error(data) -> float:
    """Quantization error of the dataset around its mean vector (``qe0``).

    This is the mean distance of every sample from the dataset centroid, the
    quantity the GHSOM literature calls ``qe_0`` (the error of the virtual
    layer-0 map consisting of a single unit).
    """
    matrix = check_array_2d(data, "data")
    centroid = matrix.mean(axis=0, keepdims=True)
    distances = euclidean(matrix, centroid)[:, 0]
    return float(distances.mean())


def unit_quantization_errors(
    data,
    codebook,
    assignments: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-unit quantization error: the mean distance of the samples mapped to a unit.

    Parameters
    ----------
    data:
        Sample matrix ``(n, d)``.
    codebook:
        Unit weight matrix ``(u, d)``.
    assignments:
        Optional precomputed BMU index per sample; computed if omitted.

    Returns
    -------
    numpy.ndarray
        Vector of length ``u``; units with no mapped samples get 0.
    """
    matrix = check_array_2d(data, "data")
    weights = check_array_2d(codebook, "codebook")
    distance_matrix = euclidean(matrix, weights)
    if assignments is None:
        assignments = np.argmin(distance_matrix, axis=1)
    sample_distances = distance_matrix[np.arange(matrix.shape[0]), assignments]
    n_units = weights.shape[0]
    totals = np.bincount(assignments, weights=sample_distances, minlength=n_units)
    counts = np.bincount(assignments, minlength=n_units)
    errors = np.zeros(n_units)
    populated = counts > 0
    errors[populated] = totals[populated] / counts[populated]
    return errors


def mean_quantization_error(
    data,
    codebook,
    assignments: Optional[np.ndarray] = None,
) -> float:
    """Mean of the per-unit quantization errors over *populated* units (MQE)."""
    matrix = check_array_2d(data, "data")
    weights = check_array_2d(codebook, "codebook")
    distance_matrix = euclidean(matrix, weights)
    if assignments is None:
        assignments = np.argmin(distance_matrix, axis=1)
    errors = unit_quantization_errors(matrix, weights, assignments)
    counts = np.bincount(assignments, minlength=weights.shape[0])
    populated = counts > 0
    if not np.any(populated):
        return 0.0
    return float(errors[populated].mean())


def average_sample_error(data, codebook) -> float:
    """Mean distance of each sample from its BMU (the per-sample view of map quality)."""
    matrix = check_array_2d(data, "data")
    weights = check_array_2d(codebook, "codebook")
    distance_matrix = euclidean(matrix, weights)
    return float(distance_matrix.min(axis=1).mean())


def topographic_error(data, codebook, grid: MapGrid) -> float:
    """Fraction of samples whose first and second BMUs are not grid neighbours.

    A value of 0 means perfect topology preservation.  Maps with fewer than
    two units have a topographic error of 0 by definition.
    """
    matrix = check_array_2d(data, "data")
    weights = check_array_2d(codebook, "codebook")
    if weights.shape[0] < 2:
        return 0.0
    distance_matrix = euclidean(matrix, weights)
    order = np.argsort(distance_matrix, axis=1)
    first, second = order[:, 0], order[:, 1]
    errors = 0
    for best, runner_up in zip(first, second, strict=True):
        if not grid.are_adjacent(int(best), int(runner_up)):
            errors += 1
    return errors / matrix.shape[0]
