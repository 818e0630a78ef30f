"""Records as rows of schema-ordered Python values, for the row-wise test oracles.

A :class:`~repro.data.records.Dataset` is its columns.  The object-array
preprocessing oracle (``tests/test_data_preprocess_oracle.py``), the per-event
extractor oracle and the hypothesis strategies that perturb single cells work
on rows of the 41 schema features instead.  These two helpers convert between
the forms: numeric cells are Python floats, symbolic cells strings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.records import Dataset
from repro.data.schema import KddSchema


def rows_to_dataset(
    rows: Sequence[Sequence[object]],
    labels: Sequence[str],
    schema: Optional[KddSchema] = None,
) -> Dataset:
    """Split rows into columns: numbers (or numeric strings) to floats, symbols to strings."""
    schema = schema or KddSchema()
    raw = np.asarray(rows, dtype=object).reshape(-1, schema.n_features)
    numeric = raw[:, [schema.index_of(name) for name in schema.numeric_features]].astype(float)
    symbolic = [list(map(str, raw[:, schema.index_of(name)])) for name in schema.categorical]
    return Dataset(numeric, symbolic, labels, schema=schema)


def dataset_to_rows(dataset: Dataset) -> List[List[object]]:
    """The records of ``dataset`` as rows in schema order."""
    columns = [dataset.column(name).tolist() for name in dataset.schema.feature_names]
    return [list(row) for row in zip(*columns, strict=True)]
