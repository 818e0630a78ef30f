"""The columnar preprocessing path against the object-array path it replaced.

``ObjectArrayPipeline`` below is the preprocessing as it ran while
``Dataset`` stored an ``(n, 41)`` object array: ``_assemble`` unboxes each
numeric column with its own ``astype(float)`` and log-compresses it, and the
per-value encoders look every symbolic value up one at a time.  It is slow
but plainly right, so it serves as the oracle: ``PreprocessingPipeline``
must produce byte-identical matrices and the same output names, for every
encoding, scaling and log setting, on synthetic rows and on netsim chunks,
including symbolic values the schema does not know.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.preprocess import (
    LOG_SCALE_FEATURES,
    MinMaxScaler,
    PreprocessingPipeline,
    StandardScaler,
)
from repro.data.records import Dataset
from repro.data.schema import KddSchema
from repro.data.synthetic import KddSyntheticGenerator
from repro.netsim.extractor import KddFeatureExtractor
from repro.netsim.simulator import ATTACK_REGISTRY, AttackInjection, TrafficSimulator

from record_rows import dataset_to_rows, rows_to_dataset


class PerValueOneHotEncoder:
    """One-hot encoding, one dictionary lookup per value (all zeros when unknown)."""

    def __init__(self, categories: Sequence[str]) -> None:
        self.categories = tuple(categories)
        self._index = {value: position for position, value in enumerate(self.categories)}

    def transform(self, values: Sequence[object]) -> np.ndarray:
        encoded = np.zeros((len(values), len(self.categories)), dtype=float)
        for row, value in enumerate(values):
            column = self._index.get(str(value))
            if column is not None:
                encoded[row, column] = 1.0
        return encoded


class PerValueOrdinalEncoder:
    """Ordinal codes, one dictionary lookup per value (``-1`` when unknown)."""

    def __init__(self, categories: Sequence[str]) -> None:
        self.categories = tuple(categories)
        self._index = {value: position for position, value in enumerate(self.categories)}

    def transform(self, values: Sequence[object]) -> np.ndarray:
        return np.array([self._index.get(str(value), -1) for value in values], dtype=float)


class ObjectArrayPipeline:
    """The reference preprocessing over an ``(n, n_features)`` object array of rows."""

    def __init__(
        self,
        *,
        categorical_encoding: str = "onehot",
        scaling: str = "minmax",
        log_transform: bool = True,
        schema: Optional[KddSchema] = None,
    ) -> None:
        self.categorical_encoding = categorical_encoding
        self.scaling = scaling
        self.log_transform = log_transform
        self.schema = schema or KddSchema()
        encoder = (
            PerValueOneHotEncoder if categorical_encoding == "onehot" else PerValueOrdinalEncoder
        )
        self._encoders = {
            name: encoder(self.schema.values_for(name)) for name in self.schema.categorical
        }
        self._scaler: Optional[object] = None
        self.feature_names_out: List[str] = []

    def fit(self, raw: np.ndarray) -> "ObjectArrayPipeline":
        unscaled, self.feature_names_out = self._assemble(raw)
        if self.scaling == "minmax":
            self._scaler = MinMaxScaler().fit(unscaled)
        elif self.scaling == "zscore":
            self._scaler = StandardScaler().fit(unscaled)
        return self

    def transform(self, raw: np.ndarray) -> np.ndarray:
        unscaled, _ = self._assemble(raw)
        if self._scaler is None:
            return unscaled
        return self._scaler.transform(unscaled)

    def _assemble(self, raw: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        blocks: List[np.ndarray] = []
        names: List[str] = []
        for name in self.schema.feature_names:
            column = raw[:, self.schema.index_of(name)]
            if self.schema.is_categorical(name):
                encoder = self._encoders[name]
                if isinstance(encoder, PerValueOneHotEncoder):
                    blocks.append(encoder.transform(column))
                    names.extend(f"{name}={value}" for value in encoder.categories)
                else:
                    blocks.append(encoder.transform(column).reshape(-1, 1))
                    names.append(name)
            else:
                numeric = column.astype(float).reshape(-1, 1)
                if self.log_transform and name in LOG_SCALE_FEATURES:
                    numeric = np.log1p(np.maximum(numeric, 0.0))
                blocks.append(numeric)
                names.append(name)
        return np.concatenate(blocks, axis=1), names


def cells(raw: np.ndarray) -> List[List[Tuple[str, object]]]:
    """Every cell as (type, exact value): equal lists mean byte-identical rows."""
    return [
        [(type(value).__name__, value.hex() if isinstance(value, float) else value) for value in row]
        for row in np.asarray(raw, dtype=object).tolist()
    ]


def assert_matches_oracle(train_rows, train_labels, rows, labels, **params) -> None:
    """Fit both pipelines on the training rows; the other rows must transform byte for byte."""
    train, dataset = rows_to_dataset(train_rows, train_labels), rows_to_dataset(rows, labels)
    pipeline = PreprocessingPipeline(**params)
    oracle = ObjectArrayPipeline(**params).fit(np.asarray(train_rows, dtype=object))
    assert pipeline.fit_transform(train).tobytes() == oracle.transform(
        np.asarray(train_rows, dtype=object)
    ).tobytes()
    assert pipeline.feature_names_out == oracle.feature_names_out
    got = pipeline.transform(dataset)
    want = oracle.transform(np.asarray(rows, dtype=object))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
SCHEMA = KddSchema()
#: Symbolic values outside every value set of the schema.
UNSEEN = ("unseen", "HTTP", "", "tcp ", "S1")
#: Numeric cells the generator never draws: negatives (clamped before log1p),
#: signed zeros, fractions, huge counts, ints and numeric strings.
ODD_NUMBERS = (-3.5, -0.0, 0.0, 0.5, 1e12, 7, "2.25", 2**40)
pipeline_params = st.fixed_dictionaries(
    {
        "categorical_encoding": st.sampled_from(["onehot", "ordinal"]),
        "scaling": st.sampled_from(["minmax", "zscore", "none"]),
        "log_transform": st.booleans(),
    }
)


@st.composite
def synthetic_rows(draw, max_size: int = 120):
    """Generated rows with some cells swapped for unseen symbols and odd numbers."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, max_size))
    dataset = KddSyntheticGenerator(random_state=seed).generate(n)
    rows = dataset_to_rows(dataset)
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 2 * n))):
        row, column = rng.randrange(n), rng.randrange(SCHEMA.n_features)
        if SCHEMA.is_categorical(SCHEMA.feature_names[column]):
            rows[row][column] = rng.choice(UNSEEN)
        else:
            rows[row][column] = rng.choice(ODD_NUMBERS)
    return rows, list(dataset.labels)


@lru_cache(maxsize=1)
def netsim_events():
    """A seeded trace with every registered attack (about 2,400 events)."""
    names = sorted(ATTACK_REGISTRY)
    return TrafficSimulator(
        120.0,
        sessions_per_second=5.0,
        injections=[
            AttackInjection(name, start_time=120.0 * (index + 1) / (len(names) + 1))
            for index, name in enumerate(names)
        ],
        random_state=5,
    ).simulate_events()


@st.composite
def netsim_chunk(draw):
    """A run of consecutive events of :func:`netsim_events`, extracted as one chunk."""
    events = netsim_events()
    size = draw(st.integers(1, 250))
    start = draw(st.integers(0, len(events) - size))
    return KddFeatureExtractor().extract(events[start : start + size])


ORACLE_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# transform
# --------------------------------------------------------------------------- #
class TestTransformAgainstObjectArrays:
    @ORACLE_SETTINGS
    @given(train=synthetic_rows(), test=synthetic_rows(), params=pipeline_params)
    def test_synthetic_rows_are_byte_identical(self, train, test, params):
        assert_matches_oracle(*train, *test, **params)

    @ORACLE_SETTINGS
    @given(train=netsim_chunk(), chunk=netsim_chunk(), params=pipeline_params)
    def test_netsim_chunks_are_byte_identical(self, train, chunk, params):
        # An extracted chunk has no rows of its own: its rows are what the
        # extractor used to box.
        assert_matches_oracle(
            dataset_to_rows(train), train.labels, dataset_to_rows(chunk), chunk.labels, **params
        )

    @pytest.mark.parametrize("encoding", ["onehot", "ordinal"])
    def test_every_symbolic_value_unseen(self, encoding):
        train = KddSyntheticGenerator(random_state=1).generate(30)
        labels = train.labels.tolist()
        rows = dataset_to_rows(train)
        for row in rows:
            for name in SCHEMA.categorical:
                row[SCHEMA.index_of(name)] = "never-seen"
        train_rows = dataset_to_rows(train)
        assert_matches_oracle(train_rows, labels, rows, labels, categorical_encoding=encoding)
        pipeline = PreprocessingPipeline(categorical_encoding=encoding, scaling="none").fit(train)
        encoded = pipeline.transform(rows_to_dataset(rows, labels))
        symbolic = [
            column
            for column, name in enumerate(pipeline.feature_names_out)
            if name.split("=")[0] in SCHEMA.categorical
        ]
        unknown = 0.0 if encoding == "onehot" else -1.0
        assert np.all(encoded[:, symbolic] == unknown)

    def test_round_trip_through_a_bundle_payload(self):
        rows = KddSyntheticGenerator(random_state=2).generate(80)
        pipeline = PreprocessingPipeline(scaling="zscore").fit(rows)
        reloaded = PreprocessingPipeline.from_dict(pipeline.to_dict())
        assert reloaded.transform(rows).tobytes() == pipeline.transform(rows).tobytes()


# --------------------------------------------------------------------------- #
# the dataset's own round trips
# --------------------------------------------------------------------------- #
def _index_lists(n: int):
    return st.lists(st.integers(0, n - 1), max_size=2 * n)


class TestDatasetRoundTrips:
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_rows_split_into_columns_and_back(self, data):
        rows, labels = data.draw(synthetic_rows())
        dataset = rows_to_dataset(rows, labels)
        back = dataset_to_rows(dataset)
        assert cells(dataset_to_rows(rows_to_dataset(back, dataset.labels))) == cells(back)
        numeric = [SCHEMA.index_of(name) for name in SCHEMA.numeric_features]
        expected = np.asarray(rows, dtype=object)[:, numeric].astype(float)
        assert dataset.numeric_matrix().tobytes() == expected.tobytes()
        for name in SCHEMA.categorical:
            column = [str(row[SCHEMA.index_of(name)]) for row in rows]
            assert dataset.column(name).tolist() == column

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_subset_matches_the_rows_it_selects(self, data):
        dataset = data.draw(
            st.one_of(synthetic_rows().map(lambda pair: rows_to_dataset(*pair)), netsim_chunk())
        )
        indices = data.draw(_index_lists(len(dataset)))
        subset = dataset.subset(indices)
        all_rows = dataset_to_rows(dataset)
        assert cells(dataset_to_rows(subset)) == cells([all_rows[index] for index in indices])
        assert subset.labels.tolist() == [dataset.labels[index] for index in indices]
        if indices:  # the scalers refuse an empty matrix, as they always did
            pipeline = PreprocessingPipeline().fit(dataset)
            rows = pipeline.transform(dataset)[np.asarray(indices, dtype=int)]
            assert pipeline.transform(subset).tobytes() == rows.tobytes()

    @ORACLE_SETTINGS
    @given(first=netsim_chunk(), second=synthetic_rows())
    def test_concat_stacks_the_rows(self, first, second):
        second = rows_to_dataset(*second)
        joined = first.concat(second)
        assert cells(dataset_to_rows(joined)) == cells(dataset_to_rows(first)) + cells(
            dataset_to_rows(second)
        )
        assert joined.labels.tolist() == first.labels.tolist() + second.labels.tolist()
        empty_first = Dataset.empty_like(first).concat(first)
        assert cells(dataset_to_rows(empty_first)) == cells(dataset_to_rows(first))

    def test_columns_are_read_only(self):
        dataset = KddSyntheticGenerator(random_state=3).generate(5)
        columns = (dataset.numeric_matrix(), dataset.column("src_bytes"), dataset.column("service"))
        for array in columns:
            with pytest.raises(ValueError):
                array[0] = array[1]
        writable = dataset.numeric_matrix().copy()
        writable[0, 0] = 1.0
        # The arrays handed to the constructor stay the caller's to write.
        block = np.zeros((1, len(SCHEMA.numeric_features)))
        Dataset(block, [["tcp"], ["http"], ["SF"]], ["normal"])
        block[0, 0] = 1.0
