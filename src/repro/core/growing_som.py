"""A single growing SOM layer (horizontal growth).

The layer starts as a small map (2x2 by default), is trained for a fixed
number of epochs, and then checks its mean quantization error (MQE) against
the breadth threshold ``tau1 * parent_qe``:

* while the MQE is too high, a new row or column of units is inserted between
  the *error unit* (the populated unit with the highest quantization error)
  and its most dissimilar neighbour, initialised to the mean of its two
  neighbours, and the layer is retrained;
* growth stops when the MQE criterion is met, when the layer reaches
  ``max_map_size`` units, or after ``max_growth_rounds`` insertions.

The full growth trajectory (units and MQE per round) is recorded so the
growth-curve experiment (Figure 3) can be regenerated without re-instrumenting
the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import GhsomConfig
from repro.core.grid import MapGrid
from repro.core.som import Som
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_array_2d


@dataclass(frozen=True)
class GrowthEvent:
    """One point of the growth trajectory of a layer."""

    round_index: int
    rows: int
    cols: int
    n_units: int
    mqe: float
    inserted: str  # "row", "col", or "none" for the final round


class GrowingSom:
    """A SOM layer that grows horizontally until its MQE target is met.

    Parameters
    ----------
    n_features:
        Input dimensionality.
    config:
        GHSOM configuration; ``tau1``, map-size limits and the nested SOM
        training settings are used here.
    parent_qe:
        Quantization error of the parent unit (or ``qe0`` for the root
        layer); the growth target is ``tau1 * parent_qe``.
    random_state:
        Seed or generator for initialisation.
    """

    def __init__(
        self,
        n_features: int,
        config: Optional[GhsomConfig] = None,
        parent_qe: float = 1.0,
        random_state: RandomState = None,
    ) -> None:
        if n_features < 1:
            raise ConfigurationError(f"n_features must be >= 1, got {n_features}")
        if parent_qe < 0:
            raise ConfigurationError(f"parent_qe must be >= 0, got {parent_qe}")
        self.n_features = int(n_features)
        self.config = config or GhsomConfig()
        self.parent_qe = float(parent_qe)
        self._rng = ensure_rng(random_state)
        self.som = Som(
            self.config.initial_rows,
            self.config.initial_cols,
            n_features=self.n_features,
            config=self.config.training,
            random_state=self._rng,
        )
        self.growth_history: List[GrowthEvent] = []
        self._fitted = False

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> MapGrid:
        """Grid geometry of the underlying map."""
        return self.som.grid

    @property
    def codebook(self) -> np.ndarray:
        """Unit weight matrix ``(n_units, n_features)``."""
        return self.som.codebook

    @property
    def n_units(self) -> int:
        """Number of units on the layer."""
        return self.som.n_units

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    @property
    def mqe_target(self) -> float:
        """The breadth-growth stopping target ``tau1 * parent_qe``."""
        return self.config.tau1 * self.parent_qe

    # ------------------------------------------------------------------ #
    def fit(self, data) -> "GrowingSom":
        """Grow and train the layer on ``data``."""
        matrix = check_array_2d(data, "data", min_cols=self.n_features)
        if matrix.shape[1] != self.n_features:
            raise DataValidationError(
                f"data has {matrix.shape[1]} features, the layer expects {self.n_features}"
            )
        self.growth_history = []
        target = self.mqe_target
        round_index = 0
        while True:
            self.som.fit(matrix, reinitialize=(round_index == 0))
            mqe = self.som.mean_quantization_error(matrix)
            reached_target = mqe <= target
            # Stop before an insertion would push the layer past the size cap:
            # growing adds a full row or column, whichever is larger.
            next_size = self.n_units + max(self.grid.rows, self.grid.cols)
            reached_size = next_size > self.config.max_map_size
            reached_rounds = round_index >= self.config.max_growth_rounds
            if reached_target or reached_size or reached_rounds:
                self.growth_history.append(
                    GrowthEvent(
                        round_index=round_index,
                        rows=self.grid.rows,
                        cols=self.grid.cols,
                        n_units=self.n_units,
                        mqe=float(mqe),
                        inserted="none",
                    )
                )
                break
            inserted = self._grow_once(matrix)
            self.growth_history.append(
                GrowthEvent(
                    round_index=round_index,
                    rows=self.grid.rows,
                    cols=self.grid.cols,
                    n_units=self.n_units,
                    mqe=float(mqe),
                    inserted=inserted,
                )
            )
            round_index += 1
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    # growth machinery
    # ------------------------------------------------------------------ #
    def _grow_once(self, matrix: np.ndarray) -> str:
        """Insert one row or column next to the current error unit.

        Returns the kind of insertion performed (``"row"`` or ``"col"``).
        """
        error_unit, dissimilar_neighbor = self._find_error_unit(matrix)
        error_row, error_col = self.grid.position(error_unit)
        neighbor_row, neighbor_col = self.grid.position(dissimilar_neighbor)
        if error_row == neighbor_row:
            # Neighbour lies to the left/right: insert a column between them.
            after_col = min(error_col, neighbor_col)
            self._insert_column(after_col)
            return "col"
        # Neighbour lies above/below: insert a row between them.
        after_row = min(error_row, neighbor_row)
        self._insert_row(after_row)
        return "row"

    def _find_error_unit(self, matrix: np.ndarray) -> Tuple[int, int]:
        """The populated unit with the highest QE and its most dissimilar neighbour."""
        errors = self.som.unit_errors(matrix)
        counts = self.som.unit_counts(matrix)
        candidate_errors = np.where(counts > 0, errors, -np.inf)
        error_unit = int(np.argmax(candidate_errors))
        neighbors = self.grid.neighbors(error_unit)
        if not neighbors:
            raise ConfigurationError("cannot grow a map whose error unit has no neighbours")
        error_weight = self.codebook[error_unit]
        neighbor_weights = self.codebook[neighbors]
        dissimilarities = np.linalg.norm(neighbor_weights - error_weight[None, :], axis=1)
        dissimilar_neighbor = int(neighbors[int(np.argmax(dissimilarities))])
        return error_unit, dissimilar_neighbor

    def _insert_row(self, after_row: int) -> None:
        """Insert a row after ``after_row``, initialised to the mean of its neighbours."""
        rows, cols = self.grid.rows, self.grid.cols
        cube = self.codebook.reshape(rows, cols, self.n_features)
        above = cube[after_row]
        below = cube[min(after_row + 1, rows - 1)]
        new_row = (above + below) / 2.0
        expanded = np.insert(cube, after_row + 1, new_row, axis=0)
        self._replace_map(MapGrid(rows + 1, cols), expanded.reshape(-1, self.n_features))

    def _insert_column(self, after_col: int) -> None:
        """Insert a column after ``after_col``, initialised to the mean of its neighbours."""
        rows, cols = self.grid.rows, self.grid.cols
        cube = self.codebook.reshape(rows, cols, self.n_features)
        left = cube[:, after_col]
        right = cube[:, min(after_col + 1, cols - 1)]
        new_col = (left + right) / 2.0
        expanded = np.insert(cube, after_col + 1, new_col, axis=1)
        self._replace_map(MapGrid(rows, cols + 1), expanded.reshape(-1, self.n_features))

    def _replace_map(self, grid: MapGrid, codebook: np.ndarray) -> None:
        """Swap in a larger map, preserving the trained weights."""
        som = Som(
            grid.rows,
            grid.cols,
            n_features=self.n_features,
            config=self.config.training,
            random_state=self._rng,
        )
        som.set_codebook(codebook)
        self.som = som

    # ------------------------------------------------------------------ #
    # inference (delegated to the underlying SOM)
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("GrowingSom must be fitted before it can be used")

    def transform(self, data) -> np.ndarray:
        """BMU index per sample."""
        self._check_fitted()
        return self.som.transform(data)

    def quantization_distances(self, data) -> np.ndarray:
        """Distance of each sample to its BMU."""
        self._check_fitted()
        return self.som.quantization_distances(data)

    def unit_errors(self, data) -> np.ndarray:
        """Per-unit mean quantization errors of ``data`` on the layer."""
        self._check_fitted()
        return self.som.unit_errors(data)

    def unit_counts(self, data) -> np.ndarray:
        """Samples mapped to each unit."""
        self._check_fitted()
        return self.som.unit_counts(data)

    def mean_quantization_error(self, data) -> float:
        """MQE of ``data`` on the layer."""
        self._check_fitted()
        return self.som.mean_quantization_error(data)
