"""A fixed-size self-organizing map (SOM).

This is the building block the growing layers are made of, and it doubles as
the "flat SOM" baseline the paper's evaluation compares against.  Training
uses the batch update rule, because each GHSOM layer is retrained several
times during growth: a Gaussian neighbourhood whose radius starts at half the
map's larger side and decays as ``exp(-4 t)`` over the epochs.  Every distance
is Euclidean.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import SomTrainingConfig
from repro.core.distances import euclidean, squared_euclidean
from repro.core.grid import MapGrid
from repro.core.quantization import (
    average_sample_error,
    mean_quantization_error,
    topographic_error,
    unit_quantization_errors,
)
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_array_2d


class Som:
    """A rectangular self-organizing map with a fixed number of units.

    Parameters
    ----------
    rows, cols:
        Grid shape.
    n_features:
        Dimensionality of the input vectors.
    config:
        Training hyper-parameters (the number of epochs).
    random_state:
        Seed or generator used for codebook initialisation and shuffling.

    Example
    -------
    >>> import numpy as np
    >>> som = Som(4, 4, n_features=3, random_state=0)
    >>> data = np.random.default_rng(0).random((50, 3))
    >>> _ = som.fit(data)
    >>> som.transform(data).shape
    (50,)
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        n_features: int,
        config: Optional[SomTrainingConfig] = None,
        random_state: RandomState = None,
    ) -> None:
        if n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {n_features}")
        self.grid = MapGrid(rows, cols)
        self.n_features = int(n_features)
        self.config = config or SomTrainingConfig()
        self._rng = ensure_rng(random_state)
        self.codebook = self._rng.random((self.grid.n_units, self.n_features))
        self._fitted = False

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def n_units(self) -> int:
        """Number of units on the map."""
        return self.grid.n_units

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    # ------------------------------------------------------------------ #
    # initialisation
    # ------------------------------------------------------------------ #
    def initialize_from_data(self, data) -> None:
        """Initialise the codebook by sampling training vectors (plus tiny noise).

        Sampling real data points spreads the initial codebook over the data
        support, which converges noticeably faster than uniform random
        initialisation for the sparse KDD feature vectors.
        """
        matrix = self._matrix(data)
        indices = self._rng.integers(0, matrix.shape[0], size=self.n_units)
        jitter = self._rng.normal(0.0, 1e-3, size=(self.n_units, self.n_features))
        self.codebook = matrix[indices].copy() + jitter

    def set_codebook(self, codebook) -> None:
        """Replace the codebook (used by the growing layer and serialization)."""
        weights = check_array_2d(codebook, "codebook")
        if weights.shape != (self.grid.n_units, self.n_features):
            raise ConfigurationError(
                f"codebook shape {weights.shape} does not match "
                f"({self.grid.n_units}, {self.n_features})"
            )
        self.codebook = weights.copy()

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, data, *, reinitialize: bool = True) -> "Som":
        """Train the map on ``data`` for ``config.epochs`` epochs (batch rule)."""
        matrix = self._matrix(data)
        if reinitialize:
            self.initialize_from_data(matrix)
        grid_distances = self.grid.grid_distances()
        # |x|^2 per sample is the same in every epoch's BMU search.
        norms = np.einsum("ij,ij->i", matrix, matrix)
        initial_radius = self.grid.initial_radius()
        epochs = self.config.epochs
        for epoch in range(epochs):
            progress = epoch / max(epochs - 1, 1)
            radius = initial_radius * float(np.exp(-4.0 * progress))
            self._batch_epoch(matrix, norms, grid_distances, radius)
        self._fitted = True
        return self

    def _batch_epoch(
        self, matrix: np.ndarray, norms: np.ndarray, grid_distances: np.ndarray, radius: float
    ) -> None:
        """One batch update: every unit moves to the neighbourhood-weighted data mean.

        ``norms`` is ``|x|^2`` per row of ``matrix``.  ``radius`` is at least
        ``exp(-4)``, as every map's initial radius is at least 1.
        """
        bmus = np.argmin(squared_euclidean(matrix, self.codebook, norms), axis=1)
        influence = np.exp(-np.square(grid_distances) / (2.0 * radius * radius))  # (units, units)
        # weights_per_sample[i, j] = influence of sample i on unit j
        weights_per_sample = influence[bmus]  # (n, units)
        denominator = weights_per_sample.sum(axis=0)  # (units,)
        numerator = weights_per_sample.T @ matrix  # (units, d)
        populated = denominator > 1e-12
        updated = self.codebook.copy()
        updated[populated] = numerator[populated] / denominator[populated, None]
        self.codebook = updated

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("Som must be fitted before it can be used for inference")

    def _matrix(self, data) -> np.ndarray:
        """``data`` as a validated float64 matrix exactly ``n_features`` wide."""
        matrix = check_array_2d(data, "data")
        if matrix.shape[1] != self.n_features:
            raise DataValidationError(
                f"data has {matrix.shape[1]} features, the map expects {self.n_features}"
            )
        return matrix

    def transform(self, data) -> np.ndarray:
        """Best matching unit index for each sample."""
        self._check_fitted()
        return np.argmin(squared_euclidean(self._matrix(data), self.codebook), axis=1)

    def quantization_distances(self, data) -> np.ndarray:
        """Euclidean distance of each sample to its BMU."""
        self._check_fitted()
        return euclidean(self._matrix(data), self.codebook).min(axis=1)

    def unit_errors(self, data) -> np.ndarray:
        """Per-unit mean quantization error of ``data`` on this map."""
        self._check_fitted()
        return unit_quantization_errors(self._matrix(data), self.codebook)

    def mean_quantization_error(self, data) -> float:
        """Mean per-unit quantization error (MQE) of ``data`` on this map."""
        self._check_fitted()
        return mean_quantization_error(self._matrix(data), self.codebook)

    def average_sample_error(self, data) -> float:
        """Mean BMU distance per sample."""
        self._check_fitted()
        return average_sample_error(self._matrix(data), self.codebook)

    def topographic_error(self, data) -> float:
        """Topology-preservation error of the map on ``data``."""
        self._check_fitted()
        return topographic_error(self._matrix(data), self.codebook, self.grid)

    def unit_counts(self, data) -> np.ndarray:
        """Number of samples mapped to each unit."""
        assignments = self.transform(data)
        return np.bincount(assignments, minlength=self.n_units)
