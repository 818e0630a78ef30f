"""Tests for repro.data.records (Dataset)."""

from __future__ import annotations

import numpy as np
import pytest

from record_rows import dataset_to_rows, rows_to_dataset
from repro.data.records import Dataset
from repro.data.schema import KddSchema, attack_category
from repro.exceptions import DataValidationError, SchemaError


def _columns(n: int):
    """An all-zero numeric block and the first admissible value of each symbolic feature."""
    schema = KddSchema()
    numeric = np.zeros((n, len(schema.numeric_features)))
    symbolic = [[schema.values_for(name)[0]] * n for name in schema.categorical]
    return numeric, symbolic


def _symbolic(dataset: Dataset):
    return [dataset.column(name) for name in dataset.schema.categorical]


class TestDataset:
    def test_length_and_counts(self, small_dataset):
        assert len(small_dataset) == 600
        counts = small_dataset.class_counts()
        assert sum(counts.values()) == 600
        assert "normal" in counts

    def test_mismatched_labels_raise(self, small_dataset):
        with pytest.raises(DataValidationError):
            Dataset(
                small_dataset.numeric_matrix(),
                _symbolic(small_dataset),
                small_dataset.labels[:-1],
                schema=small_dataset.schema,
            )

    def test_wrong_column_count_raises(self):
        with pytest.raises(DataValidationError):
            Dataset(np.zeros((3, 5)), _columns(3)[1], ["normal"] * 3)

    def test_column_access(self, small_dataset):
        column = small_dataset.column("protocol_type")
        assert set(np.unique(column)).issubset({"tcp", "udp", "icmp"})

    def test_numeric_matrix_shape(self, small_dataset):
        matrix = small_dataset.numeric_matrix()
        assert matrix.shape == (len(small_dataset), 38)
        assert matrix.dtype == float

    def test_categories_and_is_attack_agree(self, small_dataset):
        categories = small_dataset.categories
        attacks = small_dataset.is_attack
        np.testing.assert_array_equal(attacks, categories != "normal")

    def test_subset_preserves_order(self, small_dataset):
        indices = [5, 2, 9]
        subset = small_dataset.subset(indices)
        for position, index in enumerate(indices):
            assert subset.labels[position] == small_dataset.labels[index]

    def test_filter_by_category(self, small_dataset):
        dos_only = small_dataset.filter_by_category("dos")
        assert len(dos_only) > 0
        assert set(dos_only.categories) == {"dos"}

    def test_concat(self, small_dataset):
        first = small_dataset.subset(range(10))
        second = small_dataset.subset(range(10, 30))
        combined = first.concat(second)
        assert len(combined) == 30

    def test_shuffled_preserves_multiset(self, small_dataset):
        shuffled = small_dataset.shuffled(random_state=0)
        assert sorted(map(str, shuffled.labels)) == sorted(map(str, small_dataset.labels))

    def test_sample_without_replacement_bounds(self, small_dataset):
        with pytest.raises(DataValidationError):
            small_dataset.sample(len(small_dataset) + 1)

    def test_sample_with_replacement_allows_oversampling(self, small_dataset):
        sample = small_dataset.sample(len(small_dataset) + 5, replace=True, random_state=0)
        assert len(sample) == len(small_dataset) + 5

    def test_sample_rejects_non_positive(self, small_dataset):
        with pytest.raises(DataValidationError):
            small_dataset.sample(0)

    def test_empty_like(self, small_dataset):
        empty = Dataset.empty_like(small_dataset)
        assert len(empty) == 0
        assert empty.schema.feature_names == small_dataset.schema.feature_names

    def test_summary_fields(self, small_dataset):
        summary = small_dataset.summary()
        assert summary["n_records"] == len(small_dataset)
        assert 0.0 <= summary["attack_fraction"] <= 1.0

    def test_subset_keeps_columns_aligned(self, small_dataset):
        indices = [7, 3, 7]
        subset = small_dataset.subset(indices)
        for name in small_dataset.schema.feature_names:
            assert subset.column(name).tolist() == small_dataset.column(name)[indices].tolist()
        assert subset.labels.tolist() == small_dataset.labels[indices].tolist()

    def test_rows_round_trip(self, small_dataset):
        subset = small_dataset.subset(range(25))
        rebuilt = rows_to_dataset(dataset_to_rows(subset), subset.labels, subset.schema)
        assert rebuilt.numeric_matrix().tobytes() == subset.numeric_matrix().tobytes()
        for name in subset.schema.categorical:
            assert rebuilt.column(name).tolist() == subset.column(name).tolist()
        assert rebuilt.labels.tolist() == subset.labels.tolist()

    def test_empty_dataset_is_allowed(self):
        empty = Dataset(*_columns(0), [])
        assert len(empty) == 0
        assert empty.numeric_matrix().shape == (0, 38)
        assert empty.class_counts() == {}
        assert empty.summary()["attack_fraction"] == 0.0

    def test_concat_keeps_column_values(self, small_dataset):
        first = small_dataset.subset(range(4))
        second = small_dataset.subset(range(10, 13))
        combined = first.concat(second)
        np.testing.assert_array_equal(
            combined.numeric_matrix(),
            np.vstack([first.numeric_matrix(), second.numeric_matrix()]),
        )
        for name in small_dataset.schema.categorical:
            assert combined.column(name).tolist() == (
                first.column(name).tolist() + second.column(name).tolist()
            )
        assert combined.labels.tolist() == first.labels.tolist() + second.labels.tolist()

    def test_concat_rejects_different_schemas(self, small_dataset):
        reduced = KddSchema(
            feature_names=("duration", "protocol_type", "src_bytes"),
            categorical=("protocol_type",),
        )
        other = Dataset(np.zeros((1, 2)), [["tcp"]], ["normal"], schema=reduced)
        with pytest.raises(DataValidationError, match="different schemas"):
            small_dataset.concat(other)

    def test_column_of_unknown_feature_raises(self, small_dataset):
        with pytest.raises(SchemaError):
            small_dataset.column("no_such_feature")

    def test_callers_block_stays_writeable(self):
        numeric, symbolic = _columns(2)
        dataset = Dataset(numeric, symbolic, ["normal"] * 2)
        assert numeric.flags.writeable
        assert not dataset.numeric_matrix().flags.writeable


class TestSingleRecord:
    def test_attack_record_has_its_category(self):
        record = Dataset(*_columns(1), ["smurf"])
        assert record.categories.tolist() == ["dos"]
        assert record.is_attack.tolist() == [True]
        assert record.numeric_matrix().shape == (1, len(record.schema.numeric_features))
        assert len(dataset_to_rows(record)[0]) == record.schema.n_features

    def test_normal_record_is_not_attack(self):
        record = Dataset(*_columns(1), ["normal"])
        assert record.is_attack.tolist() == [False]

    def test_missing_numeric_feature_raises(self):
        numeric, symbolic = _columns(1)
        with pytest.raises(DataValidationError, match=r"\(1, 38\)"):
            Dataset(numeric[:, 1:], symbolic, ["normal"])

    def test_extra_numeric_feature_raises(self):
        numeric, symbolic = _columns(1)
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(np.hstack([numeric, numeric[:, :1]]), symbolic, ["normal"])

    def test_extra_symbolic_column_raises(self):
        numeric, symbolic = _columns(1)
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(numeric, [*symbolic, ["tcp"]], ["normal"])


#: Named attacks and categories, as KDD files spell them (trailing dots, case, spaces).
MIXED_LABELS = [
    "normal", "normal.", "smurf.", "smurf", "Neptune.", " portsweep.", "guess_passwd",
    "dos", "u2r", "buffer_overflow.", "normal", "smurf.",
]


class TestCategories:
    def test_matches_the_per_record_mapping(self):
        dataset = Dataset(*_columns(len(MIXED_LABELS)), MIXED_LABELS)
        expected = np.array([attack_category(str(label)) for label in MIXED_LABELS], dtype=object)
        categories = dataset.categories
        assert categories.dtype == object
        assert [type(value) for value in categories] == [str] * len(MIXED_LABELS)
        assert categories.tolist() == expected.tolist()
        np.testing.assert_array_equal(dataset.is_attack, expected != "normal")
        assert dataset.class_counts() == {"normal": 3, "dos": 5, "probe": 1, "r2l": 1, "u2r": 2}

    def test_subsets_and_empty_datasets(self):
        dataset = Dataset(*_columns(len(MIXED_LABELS)), MIXED_LABELS)
        assert dataset.filter_by_category("u2r", "probe").labels.tolist() == [
            " portsweep.", "u2r", "buffer_overflow.",
        ]
        assert Dataset.empty_like(dataset).categories.shape == (0,)
        assert len(dataset.filter_by_category()) == 0

    def test_unknown_label_still_raises(self):
        dataset = Dataset(*_columns(3), ["normal", "not_an_attack.", "smurf"])
        with pytest.raises(SchemaError, match="not_an_attack"):
            dataset.categories


class TestColumnarConstruction:
    def test_numeric_block_is_float64(self):
        numeric, symbolic = _columns(2)
        numeric = numeric.astype(int)
        numeric[:, KddSchema().numeric_features.index("src_bytes")] = [12, 7]
        dataset = Dataset(numeric, symbolic, ["normal"] * 2)
        assert dataset.numeric_matrix().dtype == np.float64
        assert dataset.column("src_bytes").tolist() == [12.0, 7.0]

    def test_constructor_checks_shapes(self):
        schema = KddSchema()
        block = np.zeros((2, len(schema.numeric_features)))
        symbolic = [["tcp", "udp"], ["http", "dns"], ["SF", "S0"]]
        dataset = Dataset(block, symbolic, ["normal", "smurf"], schema=schema)
        assert dataset.numeric_matrix().tobytes() == block.tobytes()
        assert [column.tolist() for column in _symbolic(dataset)] == symbolic
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(block[:, 1:], symbolic, ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(block, symbolic[:2], ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(block, [["tcp"], *symbolic[1:]], ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset(block, symbolic, ["normal"])
