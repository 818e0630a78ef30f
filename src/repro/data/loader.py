"""Loading, saving and splitting of KDD-style datasets.

The on-disk format mirrors the original KDD Cup 99 files: one comma-separated
record per line, 41 feature fields followed by the label (optionally with the
trailing dot used in the original distribution).  A header line is optional
and auto-detected.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data.records import Dataset
from repro.data.schema import KddSchema
from repro.exceptions import DataValidationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_fraction

PathLike = Union[str, Path]


def save_csv(dataset: Dataset, path: PathLike, *, header: bool = True) -> None:
    """Write ``dataset`` to ``path`` in KDD CSV format (features + label)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(list(dataset.schema.feature_names) + ["label"])
        columns = [
            map(_format_field, dataset.column(name).tolist())
            for name in dataset.schema.feature_names
        ]
        writer.writerows(zip(*columns, map(str, dataset.labels), strict=True))


def _format_field(value: object) -> str:
    """Render a raw field: integers without a decimal point, other floats by
    their shortest repr, which reads back to the same float."""
    if isinstance(value, str):
        return value
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def load_csv(path: PathLike, *, schema: Optional[KddSchema] = None) -> Dataset:
    """Read a KDD-format CSV file into a :class:`Dataset`.

    A header line is detected by checking whether the first field of the first
    row matches the first schema feature name.
    """
    path = Path(path)
    schema = schema or KddSchema()
    if not path.exists():
        raise DataValidationError(f"dataset file does not exist: {path}")
    numeric_names = schema.numeric_features
    numeric_at = [schema.index_of(name) for name in numeric_names]
    symbolic_at = [schema.index_of(name) for name in schema.categorical]
    numbers: List[float] = []
    symbolic: List[List[str]] = [[] for _ in symbolic_at]
    labels: List[str] = []
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        for line_number, fields in enumerate(reader):
            if not fields:
                continue
            if line_number == 0 and fields[0].strip() == schema.feature_names[0]:
                continue  # header line
            if len(fields) != schema.n_features + 1:
                raise DataValidationError(
                    f"line {line_number + 1} of {path} has {len(fields)} fields; "
                    f"expected {schema.n_features + 1}"
                )
            numbers.extend(
                _parse_number(fields[index].strip(), name)
                for index, name in zip(numeric_at, numeric_names, strict=True)
            )
            for column, index in zip(symbolic, symbolic_at, strict=True):
                column.append(fields[index].strip())
            labels.append(fields[-1].strip().rstrip("."))
    if not labels:
        raise DataValidationError(f"dataset file {path} contains no records")
    numeric = np.array(numbers, dtype=np.float64).reshape(len(labels), len(numeric_names))
    return Dataset(numeric, symbolic, labels, schema=schema)


def _parse_number(field: str, name: str) -> float:
    try:
        return float(field)
    except ValueError as exc:
        raise DataValidationError(
            f"could not parse numeric feature {name!r} from value {field!r}"
        ) from exc


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.3,
    *,
    random_state: RandomState = None,
) -> Tuple[Dataset, Dataset]:
    """Random split of ``dataset`` into a train and test part."""
    fraction = check_fraction(test_fraction, "test_fraction", inclusive=False)
    rng = ensure_rng(random_state)
    n_records = len(dataset)
    n_test = max(1, int(round(n_records * fraction)))
    if n_test >= n_records:
        raise DataValidationError(
            f"test_fraction={fraction} leaves no training records for a dataset of size {n_records}"
        )
    order = rng.permutation(n_records)
    test_indices = order[:n_test]
    train_indices = order[n_test:]
    return dataset.subset(train_indices), dataset.subset(test_indices)


def stratified_split(
    dataset: Dataset,
    test_fraction: float = 0.3,
    *,
    by_category: bool = True,
    random_state: RandomState = None,
) -> Tuple[Dataset, Dataset]:
    """Split keeping the per-class proportions identical in train and test.

    Classes with a single record are placed in the training set.
    """
    fraction = check_fraction(test_fraction, "test_fraction", inclusive=False)
    rng = ensure_rng(random_state)
    keys = (dataset.categories if by_category else dataset.labels).astype(str)
    train_indices: List[int] = []
    test_indices: List[int] = []
    for value in np.unique(keys):
        class_indices = np.flatnonzero(keys == value)
        rng.shuffle(class_indices)
        n_test = int(round(len(class_indices) * fraction))
        if len(class_indices) > 1:
            n_test = min(max(n_test, 1), len(class_indices) - 1)
        else:
            n_test = 0
        test_indices.extend(class_indices[:n_test].tolist())
        train_indices.extend(class_indices[n_test:].tolist())
    rng.shuffle(train_indices)
    rng.shuffle(test_indices)
    return dataset.subset(train_indices), dataset.subset(test_indices)


def class_balance(dataset: Dataset) -> Dict[str, float]:
    """Fraction of records per category (sums to 1)."""
    counts = dataset.class_counts()
    total = sum(counts.values())
    if total == 0:
        return {}
    return {label: count / total for label, count in sorted(counts.items())}
