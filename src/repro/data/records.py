"""The labelled, column-oriented dataset of connection records.

A :class:`Dataset` is its columns: a float64 block of the numeric features,
one string array per symbolic feature, the label vector, and the
:class:`~repro.data.schema.KddSchema` describing them.  The feature
extractor, the synthetic generator and the CSV loader all build the columns
directly, and the preprocessing pipeline consumes them; no per-record object
exists anywhere on that path.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.schema import KddSchema, attack_category
from repro.exceptions import DataValidationError
from repro.utils.rng import RandomState, ensure_rng


class Dataset:
    """A labelled, column-oriented table of connection records.

    ``numeric`` is the ``(n_records, n_numeric)`` float block in
    ``schema.numeric_features`` order and ``symbolic`` holds the string values
    of each ``schema.categorical`` feature, in that order; the schema defaults
    to the full 41-feature KDD schema.  Their shapes must agree with the
    labels.  The block and the symbolic arrays are kept read-only.

    Attributes
    ----------
    labels:
        Array of per-record labels (named attacks or categories).
    schema:
        The :class:`KddSchema` describing the columns.
    """

    def __init__(
        self,
        numeric: np.ndarray,
        symbolic: Sequence[Sequence[str]],
        labels: Sequence[str],
        *,
        schema: Optional[KddSchema] = None,
    ) -> None:
        schema = schema or KddSchema()
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
    def empty_like(cls, other: "Dataset") -> "Dataset":
        """An empty dataset sharing ``other``'s schema (useful for accumulation)."""
        return cls(
            other._numeric[:0], [column[:0] for column in other._symbolic], [], schema=other.schema
        )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.labels.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset(n_records={len(self)}, n_features={self.schema.n_features}, "
            f"classes={sorted(self.class_counts())})"
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
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
        return Dataset(
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
        return Dataset(
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

