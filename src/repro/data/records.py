"""Containers for connection records and labelled datasets.

Two layers of representation are used throughout the library:

* :class:`ConnectionRecord` — a single raw record holding the 41 schema
  features (mixed symbolic / numeric values) together with its label, mainly
  produced by the :mod:`repro.netsim` feature extractor and the synthetic
  generator.
* :class:`Dataset` — a column-oriented table of many records: a float64
  block of the numeric features, one string array per symbolic feature, the
  label vector, and the :class:`~repro.data.schema.KddSchema` describing the
  columns.  Datasets are what the preprocessing pipeline consumes and what
  the loader reads/writes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.data.schema import KddSchema, attack_category
from repro.exceptions import DataValidationError, SchemaError
from repro.utils.rng import RandomState, ensure_rng


@dataclass
class ConnectionRecord:
    """One network connection summarised into KDD-style features.

    Parameters
    ----------
    values:
        Mapping from feature name to value.  Must contain exactly the features
        of ``schema`` (extra keys raise, missing keys raise).
    label:
        The traffic label, either a named attack (``"smurf"``) or a category
        (``"normal"``, ``"dos"``, ...).
    schema:
        The feature schema; defaults to the full 41-feature KDD schema.
    """

    values: Dict[str, Union[str, float]]
    label: str = "normal"
    schema: KddSchema = field(default_factory=KddSchema)

    def __post_init__(self) -> None:
        expected = set(self.schema.feature_names)
        provided = set(self.values)
        missing = expected - provided
        extra = provided - expected
        if missing:
            raise SchemaError(f"record is missing features: {sorted(missing)}")
        if extra:
            raise SchemaError(f"record has unknown features: {sorted(extra)}")
        # Validate categorical values eagerly so bad records fail at creation.
        for name in self.schema.categorical:
            value = self.values[name]
            if value not in self.schema.values_for(name):
                raise SchemaError(
                    f"value {value!r} is not admissible for categorical feature {name!r}"
                )

    @property
    def category(self) -> str:
        """High-level attack category of this record."""
        return attack_category(self.label)

    @property
    def is_attack(self) -> bool:
        """Whether the record is anything other than normal traffic."""
        return self.category != "normal"

    def as_row(self) -> List[Union[str, float]]:
        """The record as a list ordered by the schema's feature order."""
        return [self.values[name] for name in self.schema.feature_names]

    def numeric_vector(self) -> np.ndarray:
        """The numeric features only, as a float vector in schema order."""
        return np.array(
            [float(self.values[name]) for name in self.schema.numeric_features], dtype=float
        )


class Dataset:
    """A labelled, column-oriented table of connection records.

    The numeric features are one float64 block and each symbolic feature is
    one object array of strings, so no per-record object is kept between the
    feature extractor and the preprocessing pipeline.  The block and the
    symbolic arrays are read-only.

    Attributes
    ----------
    labels:
        Array of per-record labels (named attacks or categories).
    schema:
        The :class:`KddSchema` describing the columns.

    ``Dataset(raw, labels, schema=)`` builds a dataset from rows (the loader,
    the synthetic generator); :meth:`from_columns` takes the columns as they
    are (the feature extractor).
    """

    def __init__(
        self,
        raw: Sequence[Sequence[Union[str, float]]],
        labels: Sequence[str],
        schema: Optional[KddSchema] = None,
    ) -> None:
        schema = schema or KddSchema()
        raw_array = np.asarray(raw, dtype=object)
        if raw_array.ndim == 1:
            raw_array = raw_array.reshape(1, -1)
        if raw_array.ndim != 2:
            raise DataValidationError(f"raw data must be 2-dimensional, got shape {raw_array.shape}")
        if raw_array.shape[1] != schema.n_features:
            raise DataValidationError(
                f"raw data has {raw_array.shape[1]} columns but the schema defines "
                f"{schema.n_features}"
            )
        symbolic = [
            list(map(str, raw_array[:, schema.index_of(name)])) for name in schema.categorical
        ]
        self._set_columns(schema, _numeric_block(raw_array, schema), symbolic, labels)

    @classmethod
    def from_columns(
        cls,
        numeric: np.ndarray,
        symbolic: Sequence[Sequence[str]],
        labels: Sequence[str],
        *,
        schema: Optional[KddSchema] = None,
    ) -> "Dataset":
        """A dataset from its columns, without building any row.

        ``numeric`` is the ``(n_records, n_numeric)`` float block in
        ``schema.numeric_features`` order, ``symbolic`` holds the string values
        of each ``schema.categorical`` feature, in that order.
        """
        dataset = cls.__new__(cls)
        dataset._set_columns(schema or KddSchema(), numeric, symbolic, labels)
        return dataset

    def _set_columns(
        self,
        schema: KddSchema,
        numeric: np.ndarray,
        symbolic: Sequence[Sequence[str]],
        labels: Sequence[str],
    ) -> None:
        block = np.asarray(numeric, dtype=np.float64)
        columns = tuple(np.asarray(values, dtype=object) for values in symbolic)
        labels_array = np.asarray(list(labels), dtype=object)
        n_records = labels_array.shape[0]
        shapes = [block.shape] + [column.shape for column in columns]
        expected = [(n_records, len(schema.numeric_features))] + [(n_records,)] * len(
            schema.categorical
        )
        if shapes != expected:
            raise DataValidationError(
                f"columns of shapes {shapes} do not match {n_records} labels and the schema, "
                f"which needs {expected}"
            )
        self.schema = schema
        self._numeric = _read_only(block)
        self._symbolic = tuple(_read_only(column) for column in columns)
        self.labels = labels_array

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, records: Iterable[ConnectionRecord]) -> "Dataset":
        """Build a dataset from an iterable of :class:`ConnectionRecord`."""
        records = list(records)
        if not records:
            raise DataValidationError("cannot build a Dataset from zero records")
        schema = records[0].schema
        rows = [record.as_row() for record in records]
        labels = [record.label for record in records]
        return cls(rows, labels, schema=schema)

    @classmethod
    def empty_like(cls, other: "Dataset") -> "Dataset":
        """An empty dataset sharing ``other``'s schema (useful for accumulation)."""
        return cls.from_columns(
            other._numeric[:0], [column[:0] for column in other._symbolic], [], schema=other.schema
        )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.labels.shape[0]

    def __iter__(self) -> Iterator[ConnectionRecord]:
        for index in range(len(self)):
            yield self.record(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(n_records={len(self)}, n_features={self.schema.n_features}, "
            f"classes={sorted(self.class_counts())})"
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def raw(self) -> np.ndarray:
        """The records as a read-only ``(n_records, n_features)`` object array in schema order.

        Numeric cells are Python floats, symbolic cells strings.  The array is
        built on every access; the dataset keeps only its columns.
        """
        schema = self.schema
        raw = np.empty((len(self), schema.n_features), dtype=object)
        raw[:, [schema.index_of(name) for name in schema.numeric_features]] = self._numeric
        for name, column in zip(schema.categorical, self._symbolic, strict=True):
            raw[:, schema.index_of(name)] = column
        raw.flags.writeable = False
        return raw

    def record(self, index: int) -> ConnectionRecord:
        """Materialise record ``index`` as a :class:`ConnectionRecord`."""
        values: Dict[str, Union[str, float]] = dict(
            zip(self.schema.numeric_features, self._numeric[index].tolist(), strict=True)
        )
        for name, column in zip(self.schema.categorical, self._symbolic, strict=True):
            values[name] = column[index]
        return ConnectionRecord(values=values, label=str(self.labels[index]), schema=self.schema)

    def column(self, feature: str) -> np.ndarray:
        """The read-only column of ``feature``: floats if numeric, strings if symbolic."""
        if self.schema.is_categorical(feature):
            return self._symbolic[self.schema.categorical.index(feature)]
        return self._numeric[:, self.schema.numeric_features.index(feature)]

    def numeric_matrix(self) -> np.ndarray:
        """The read-only float block of the numeric features, in ``schema.numeric_features`` order."""
        return self._numeric

    @property
    def categories(self) -> np.ndarray:
        """Per-record high-level attack categories (each distinct label is mapped once)."""
        labels = self.labels.tolist()
        category = {label: attack_category(str(label)) for label in set(labels)}
        return np.array(list(map(category.__getitem__, labels)), dtype=object)

    @property
    def is_attack(self) -> np.ndarray:
        """Boolean vector: ``True`` where the record is an attack."""
        return self.categories != "normal"

    def class_counts(self, *, by_category: bool = True) -> Dict[str, int]:
        """Record counts per class (by category by default, else by raw label)."""
        values = self.categories if by_category else self.labels
        return dict(Counter(str(value) for value in values))

    # ------------------------------------------------------------------ #
    # manipulation
    # ------------------------------------------------------------------ #
    def subset(self, indices: Sequence[int]) -> "Dataset":
        """A new dataset containing only the rows in ``indices`` (order preserved)."""
        index_array = np.asarray(indices, dtype=int)
        return Dataset.from_columns(
            self._numeric[index_array],
            [column[index_array] for column in self._symbolic],
            self.labels[index_array],
            schema=self.schema,
        )

    def filter_by_category(self, *categories: str) -> "Dataset":
        """Keep only records whose category is in ``categories``."""
        return self.subset(np.flatnonzero(np.isin(self.categories, list(categories))))

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets sharing the same schema."""
        if (other.schema.feature_names, other.schema.categorical) != (
            self.schema.feature_names,
            self.schema.categorical,
        ):
            raise DataValidationError("cannot concatenate datasets with different schemas")
        return Dataset.from_columns(
            np.concatenate([self._numeric, other._numeric], axis=0),
            [
                np.concatenate(pair)
                for pair in zip(self._symbolic, other._symbolic, strict=True)
            ],
            np.concatenate([self.labels, other.labels], axis=0),
            schema=self.schema,
        )

    def shuffled(self, random_state: RandomState = None) -> "Dataset":
        """A new dataset with rows in random order."""
        rng = ensure_rng(random_state)
        order = rng.permutation(len(self))
        return self.subset(order)

    def sample(
        self,
        n: int,
        *,
        replace: bool = False,
        random_state: RandomState = None,
    ) -> "Dataset":
        """Random sample of ``n`` records."""
        if n <= 0:
            raise DataValidationError(f"sample size must be positive, got {n}")
        if not replace and n > len(self):
            raise DataValidationError(
                f"cannot sample {n} records without replacement from {len(self)}"
            )
        rng = ensure_rng(random_state)
        indices = rng.choice(len(self), size=n, replace=replace)
        return self.subset(indices)

    def summary(self) -> Dict[str, object]:
        """A small dictionary summarising the dataset (used by Table 1)."""
        counts = self.class_counts()
        total = len(self)
        return {
            "n_records": total,
            "n_features": self.schema.n_features,
            "class_counts": counts,
            "attack_fraction": float(np.mean(self.is_attack)) if total else 0.0,
        }


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the array itself stays writeable)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _numeric_block(raw: np.ndarray, schema: KddSchema) -> np.ndarray:
    """The numeric columns of ``raw`` as one float block; a non-number names its feature."""
    names = schema.numeric_features
    block = np.empty((raw.shape[0], len(names)))
    for column, name in enumerate(names):
        try:
            block[:, column] = raw[:, schema.index_of(name)]
        except (TypeError, ValueError) as exc:
            raise DataValidationError(
                f"numeric feature {name!r} holds a non-numeric value: {exc}"
            ) from exc
    return block
