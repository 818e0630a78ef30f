"""Preprocessing: categorical encoding, scaling and the end-to-end pipeline.

SOM-family models operate on numeric vectors in a bounded range, so a raw
KDD-style :class:`~repro.data.records.Dataset` must be transformed before
training:

1. symbolic features (``protocol_type``, ``service``, ``flag``) are one-hot or
   ordinal encoded,
2. heavy-tailed volume features (bytes, counts, duration) are compressed with
   ``log1p``,
3. everything is scaled to ``[0, 1]`` (min-max) or standardised (z-score).

:class:`PreprocessingPipeline` bundles the three steps behind a scikit-learn
style ``fit`` / ``transform`` interface and remembers the produced feature
names so model inspection can refer back to meaningful columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.records import Dataset
from repro.data.schema import KddSchema
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError
from repro.utils.validation import check_array_2d

#: Heavy-tailed features that benefit from a log1p transform before scaling.
LOG_SCALE_FEATURES: Tuple[str, ...] = (
    "duration",
    "src_bytes",
    "dst_bytes",
    "hot",
    "num_compromised",
    "num_root",
    "count",
    "srv_count",
    "dst_host_count",
    "dst_host_srv_count",
)


class _CategoryEncoder:
    """A fixed tuple of categories, encoded by looking up one table row per value.

    A value's code is its position in :attr:`categories` and its encoding is
    that row of the subclass's table; a value outside the categories gets
    code ``-1``, the table's last row.  ``transform`` compares values as
    ``str(value)``.
    """

    def __init__(self, categories: Optional[Sequence[str]] = None) -> None:
        self._categories: Optional[Tuple[str, ...]] = (
            tuple(categories) if categories is not None else None
        )
        self._index: Optional[Dict[str, int]] = None
        self._table: Optional[np.ndarray] = None

    @property
    def categories(self) -> Tuple[str, ...]:
        if self._categories is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self._categories

    def fit(self, values: Sequence[str]) -> "_CategoryEncoder":
        if self._categories is None:
            self._categories = tuple(sorted({str(value) for value in values}))
        self._index = {value: position for position, value in enumerate(self._categories)}
        self._table = self._lookup_table(len(self._categories))
        return self

    @staticmethod
    def _lookup_table(n_categories: int) -> np.ndarray:
        raise NotImplementedError

    def encode(self, values: Sequence[str]) -> np.ndarray:
        """The ``(len(values), width)`` encoding of the strings in ``values``."""
        if self._index is None or self._table is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        codes = np.fromiter(
            map(self._index.get, values, repeat(-1)), dtype=np.intp, count=len(values)
        )
        return np.take(self._table, codes, axis=0)

    def fit_transform(self, values: Sequence[str]) -> np.ndarray:
        return self.fit(values).transform(values)

    def transform(self, values: Sequence[str]) -> np.ndarray:
        raise NotImplementedError


class OneHotEncoder(_CategoryEncoder):
    """One-hot encoder for a single categorical column.

    Unknown values at transform time map to the all-zeros vector (an explicit
    "none of the known categories" encoding) rather than raising, because test
    traffic routinely contains service values never seen in training.
    """

    @staticmethod
    def _lookup_table(n_categories: int) -> np.ndarray:
        # The identity, then the all-zero row of an unknown value.
        return np.eye(n_categories + 1, n_categories)

    def transform(self, values: Sequence[str]) -> np.ndarray:
        return self.encode(list(map(str, values)))


class OrdinalEncoder(_CategoryEncoder):
    """Maps categorical values to integer codes (unknown values get ``-1``)."""

    @staticmethod
    def _lookup_table(n_categories: int) -> np.ndarray:
        return np.append(np.arange(n_categories, dtype=float), -1.0).reshape(-1, 1)

    def transform(self, values: Sequence[str]) -> np.ndarray:
        return self.encode(list(map(str, values)))[:, 0]


class MinMaxScaler:
    """Scales each column to ``[0, 1]`` based on the training data range.

    Columns that are constant in the training data are mapped to zero.  Values
    outside the training range at transform time are clipped, which keeps SOM
    inputs bounded even under distribution shift.
    """

    def __init__(self, *, clip: bool = True) -> None:
        self.clip = clip
        self._minimum: Optional[np.ndarray] = None
        self._range: Optional[np.ndarray] = None

    def fit(self, matrix) -> "MinMaxScaler":
        data = check_array_2d(matrix, "matrix")
        self._minimum = data.min(axis=0)
        spread = data.max(axis=0) - self._minimum
        spread[spread == 0.0] = 1.0
        self._range = spread
        return self

    def transform(self, matrix) -> np.ndarray:
        if self._minimum is None or self._range is None:
            raise NotFittedError("MinMaxScaler is not fitted")
        data = check_array_2d(matrix, "matrix")
        if data.shape[1] != self._minimum.shape[0]:
            raise DataValidationError(
                f"matrix has {data.shape[1]} columns but the scaler was fitted on "
                f"{self._minimum.shape[0]}"
            )
        # One output array: the divide and the clip run in place into it.
        scaled = np.subtract(data, self._minimum)
        np.divide(scaled, self._range, out=scaled)
        if self.clip:
            np.clip(scaled, 0.0, 1.0, out=scaled)
        return scaled

    def fit_transform(self, matrix) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def inverse_transform(self, matrix) -> np.ndarray:
        if self._minimum is None or self._range is None:
            raise NotFittedError("MinMaxScaler is not fitted")
        data = check_array_2d(matrix, "matrix")
        return data * self._range + self._minimum


class StandardScaler:
    """Standardises each column to zero mean and unit variance."""

    def __init__(self) -> None:
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def fit(self, matrix) -> "StandardScaler":
        data = check_array_2d(matrix, "matrix")
        self._mean = data.mean(axis=0)
        std = data.std(axis=0)
        std[std == 0.0] = 1.0
        self._std = std
        return self

    def transform(self, matrix) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise NotFittedError("StandardScaler is not fitted")
        data = check_array_2d(matrix, "matrix")
        if data.shape[1] != self._mean.shape[0]:
            raise DataValidationError(
                f"matrix has {data.shape[1]} columns but the scaler was fitted on "
                f"{self._mean.shape[0]}"
            )
        return (data - self._mean) / self._std

    def fit_transform(self, matrix) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def inverse_transform(self, matrix) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise NotFittedError("StandardScaler is not fitted")
        data = check_array_2d(matrix, "matrix")
        return data * self._std + self._mean


def _flag(value: object, name: str) -> bool:
    """A stored pipeline flag: a real bool only (``bool("false")`` is True)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ConfigurationError(f"pipeline flag {name} must be a bool, got {value!r}")


@dataclass
class _FittedColumns:
    """Bookkeeping for the columns produced by the pipeline."""

    feature_names: List[str]
    numeric_names: List[str]
    categorical_names: List[str]


@dataclass(frozen=True)
class _Layout:
    """Where each input column lands in the unscaled matrix."""

    columns: _FittedColumns
    #: (block columns, output columns) of each run of adjacent numeric features.
    numeric_runs: Tuple[Tuple[slice, slice], ...]
    #: Block columns that take ``log1p``, and their output columns.
    log_block: np.ndarray
    log_out: np.ndarray
    #: Per symbolic feature: its name, output columns and fitted encoder.
    symbolic: Tuple[Tuple[str, slice, _CategoryEncoder], ...]


class PreprocessingPipeline:
    """Raw :class:`Dataset` -> numeric feature matrix ready for SOM training.

    Parameters
    ----------
    categorical_encoding:
        ``"onehot"`` (default) or ``"ordinal"``.
    scaling:
        ``"minmax"`` (default), ``"zscore"`` or ``"none"``.
    log_transform:
        Apply ``log1p`` to the heavy-tailed volume features before scaling.
    schema:
        Feature schema; defaults to the full KDD schema.
    """

    def __init__(
        self,
        *,
        categorical_encoding: str = "onehot",
        scaling: str = "minmax",
        log_transform: bool = True,
        schema: Optional[KddSchema] = None,
    ) -> None:
        if categorical_encoding not in ("onehot", "ordinal"):
            raise ConfigurationError(
                f"categorical_encoding must be 'onehot' or 'ordinal', got {categorical_encoding!r}"
            )
        if scaling not in ("minmax", "zscore", "none"):
            raise ConfigurationError(
                f"scaling must be 'minmax', 'zscore' or 'none', got {scaling!r}"
            )
        self.categorical_encoding = categorical_encoding
        self.scaling = scaling
        self.log_transform = log_transform
        self.schema = schema or KddSchema()
        self._layout = self._lay_out()
        self._scaler: Optional[object] = None
        self._columns: Optional[_FittedColumns] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._columns is not None

    @property
    def feature_names_out(self) -> List[str]:
        """Names of the columns of the transformed matrix."""
        if self._columns is None:
            raise NotFittedError("PreprocessingPipeline is not fitted")
        return list(self._columns.feature_names)

    @property
    def n_features_out(self) -> int:
        """Number of columns of the transformed matrix."""
        return len(self.feature_names_out)

    # ------------------------------------------------------------------ #
    def fit(self, dataset: Dataset) -> "PreprocessingPipeline":
        """Learn the scaler statistics from ``dataset`` (the encoders follow the schema)."""
        unscaled = self._encode(dataset)
        self._columns = self._layout.columns
        if self.scaling == "minmax":
            self._scaler = MinMaxScaler().fit(unscaled)
        elif self.scaling == "zscore":
            self._scaler = StandardScaler().fit(unscaled)
        else:
            self._scaler = None
        return self

    def transform(self, dataset: Dataset) -> np.ndarray:
        """Transform ``dataset`` into the fitted numeric representation."""
        if self._columns is None:
            raise NotFittedError("PreprocessingPipeline is not fitted")
        unscaled = self._encode(dataset)
        if self._scaler is None:
            return unscaled
        return self._scaler.transform(unscaled)

    def fit_transform(self, dataset: Dataset) -> np.ndarray:
        """Fit on ``dataset`` and return its transformed matrix."""
        return self.fit(dataset).transform(dataset)

    # ------------------------------------------------------------------ #
    def _lay_out(self) -> _Layout:
        """Fit the encoders on the schema's value sets and place every input column.

        The output keeps schema order, with each symbolic feature expanded in
        place (one column per category when one-hot encoded).
        """
        encoder_type = OneHotEncoder if self.categorical_encoding == "onehot" else OrdinalEncoder
        names: List[str] = []
        numeric_out: List[int] = []
        numeric_names: List[str] = []
        categorical_names: List[str] = []
        symbolic: List[Tuple[str, slice, _CategoryEncoder]] = []
        for name in self.schema.feature_names:
            if not self.schema.is_categorical(name):
                numeric_out.append(len(names))
                numeric_names.append(name)
                names.append(name)
                continue
            values = self.schema.values_for(name)
            encoder = encoder_type(categories=values).fit(values)
            produced = (
                [f"{name}={value}" for value in encoder.categories]
                if isinstance(encoder, OneHotEncoder)
                else [name]
            )
            symbolic.append((name, slice(len(names), len(names) + len(produced)), encoder))
            names.extend(produced)
            categorical_names.extend(produced)
        log_block = [
            column
            for column, name in enumerate(numeric_names)
            if self.log_transform and name in LOG_SCALE_FEATURES
        ]
        return _Layout(
            columns=_FittedColumns(names, numeric_names, categorical_names),
            numeric_runs=_runs(numeric_out),
            log_block=np.array(log_block, dtype=np.intp),
            log_out=np.array([numeric_out[column] for column in log_block], dtype=np.intp),
            symbolic=tuple(symbolic),
        )

    def _encode(self, dataset: Dataset) -> np.ndarray:
        """The unscaled matrix: the numeric block in its columns, the symbolic ones encoded."""
        if dataset.schema.feature_names != self.schema.feature_names:
            raise DataValidationError("dataset schema does not match the pipeline schema")
        layout = self._layout
        block = dataset.numeric_matrix()
        unscaled = np.empty((len(dataset), len(layout.columns.feature_names)))
        for source, target in layout.numeric_runs:
            unscaled[:, target] = block[:, source]
        unscaled[:, layout.log_out] = np.log1p(np.maximum(block[:, layout.log_block], 0.0))
        for name, columns, encoder in layout.symbolic:
            unscaled[:, columns] = encoder.encode(dataset.column(name))
        return unscaled

    # ------------------------------------------------------------------ #
    # serialization (used by the CLI to bundle the pipeline with a model)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of a fitted pipeline."""
        if self._columns is None:
            raise NotFittedError("PreprocessingPipeline is not fitted")
        scaler_payload: Optional[Dict[str, object]] = None
        if isinstance(self._scaler, MinMaxScaler):
            scaler_payload = {
                "kind": "minmax",
                "clip": self._scaler.clip,
                "minimum": self._scaler._minimum.tolist(),
                "range": self._scaler._range.tolist(),
            }
        elif isinstance(self._scaler, StandardScaler):
            scaler_payload = {
                "kind": "zscore",
                "mean": self._scaler._mean.tolist(),
                "std": self._scaler._std.tolist(),
            }
        return {
            "kind": "preprocessing_pipeline",
            "categorical_encoding": self.categorical_encoding,
            "scaling": self.scaling,
            "log_transform": self.log_transform,
            "columns": {
                "feature_names": list(self._columns.feature_names),
                "numeric_names": list(self._columns.numeric_names),
                "categorical_names": list(self._columns.categorical_names),
            },
            "scaler": scaler_payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PreprocessingPipeline":
        """Rebuild a fitted pipeline from :meth:`to_dict` output."""
        if data.get("kind") != "preprocessing_pipeline":
            raise ConfigurationError(
                f"payload is not a preprocessing pipeline (kind={data.get('kind')!r})"
            )
        pipeline = cls(
            categorical_encoding=str(data["categorical_encoding"]),
            scaling=str(data["scaling"]),
            log_transform=_flag(data["log_transform"], "log_transform"),
        )
        columns = dict(data["columns"])
        pipeline._columns = _FittedColumns(
            feature_names=[str(name) for name in columns["feature_names"]],
            numeric_names=[str(name) for name in columns["numeric_names"]],
            categorical_names=[str(name) for name in columns["categorical_names"]],
        )
        scaler_payload = data.get("scaler")
        if scaler_payload is None:
            pipeline._scaler = None
        elif scaler_payload["kind"] == "minmax":
            scaler = MinMaxScaler(clip=_flag(scaler_payload["clip"], "clip"))
            scaler._minimum = np.asarray(scaler_payload["minimum"], dtype=float)
            scaler._range = np.asarray(scaler_payload["range"], dtype=float)
            pipeline._scaler = scaler
        elif scaler_payload["kind"] == "zscore":
            scaler = StandardScaler()
            scaler._mean = np.asarray(scaler_payload["mean"], dtype=float)
            scaler._std = np.asarray(scaler_payload["std"], dtype=float)
            pipeline._scaler = scaler
        else:
            raise ConfigurationError(f"unknown scaler kind {scaler_payload['kind']!r}")
        return pipeline


def _runs(targets: Sequence[int]) -> Tuple[Tuple[slice, slice], ...]:
    """The moves ``column i -> targets[i]`` as (source, target) slices, one per adjacent run."""
    runs: List[Tuple[slice, slice]] = []
    for column, target in enumerate(targets):
        if runs and runs[-1][1].stop == target:
            source, output = runs[-1]
            runs[-1] = (slice(source.start, column + 1), slice(output.start, target + 1))
        else:
            runs.append((slice(column, column + 1), slice(target, target + 1)))
    return tuple(runs)
