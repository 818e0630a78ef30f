"""Tests for repro.data.records (ConnectionRecord and Dataset)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import ConnectionRecord, Dataset
from repro.data.schema import KddSchema, attack_category
from repro.exceptions import DataValidationError, SchemaError


def _record_values(schema: KddSchema, **overrides):
    values = {}
    for name in schema.feature_names:
        if schema.is_categorical(name):
            values[name] = schema.values_for(name)[0]
        else:
            values[name] = 0.0
    values.update(overrides)
    return values


class TestConnectionRecord:
    def test_valid_record_roundtrip(self):
        schema = KddSchema()
        record = ConnectionRecord(_record_values(schema, duration=5.0), label="smurf")
        assert record.category == "dos"
        assert record.is_attack
        assert len(record.as_row()) == schema.n_features
        assert record.numeric_vector().shape == (len(schema.numeric_features),)

    def test_missing_feature_raises(self):
        schema = KddSchema()
        values = _record_values(schema)
        values.pop("duration")
        with pytest.raises(SchemaError):
            ConnectionRecord(values)

    def test_extra_feature_raises(self):
        schema = KddSchema()
        values = _record_values(schema)
        values["bogus"] = 1.0
        with pytest.raises(SchemaError):
            ConnectionRecord(values)

    def test_bad_categorical_value_raises(self):
        schema = KddSchema()
        values = _record_values(schema, protocol_type="quic")
        with pytest.raises(SchemaError):
            ConnectionRecord(values)

    def test_normal_record_is_not_attack(self):
        record = ConnectionRecord(_record_values(KddSchema()), label="normal")
        assert not record.is_attack


class TestDataset:
    def test_length_and_counts(self, small_dataset):
        assert len(small_dataset) == 600
        counts = small_dataset.class_counts()
        assert sum(counts.values()) == 600
        assert "normal" in counts

    def test_mismatched_labels_raise(self, small_dataset):
        with pytest.raises(DataValidationError):
            Dataset(small_dataset.raw, small_dataset.labels[:-1], schema=small_dataset.schema)

    def test_wrong_column_count_raises(self):
        with pytest.raises(DataValidationError):
            Dataset(np.zeros((3, 5), dtype=object), ["normal"] * 3)

    def test_record_materialisation(self, small_dataset):
        record = small_dataset.record(0)
        assert isinstance(record, ConnectionRecord)
        assert record.label == str(small_dataset.labels[0])

    def test_iteration_yields_all_records(self, small_dataset):
        subset = small_dataset.subset(range(10))
        assert len(list(subset)) == 10

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

    def test_from_records_roundtrip(self, small_dataset):
        records = [small_dataset.record(index) for index in range(5)]
        rebuilt = Dataset.from_records(records)
        assert len(rebuilt) == 5
        assert list(rebuilt.labels) == [record.label for record in records]

    def test_from_records_empty_raises(self):
        with pytest.raises(DataValidationError):
            Dataset.from_records([])

    def test_empty_like(self, small_dataset):
        empty = Dataset.empty_like(small_dataset)
        assert len(empty) == 0
        assert empty.schema.feature_names == small_dataset.schema.feature_names

    def test_summary_fields(self, small_dataset):
        summary = small_dataset.summary()
        assert summary["n_records"] == len(small_dataset)
        assert 0.0 <= summary["attack_fraction"] <= 1.0


#: Named attacks and categories, as KDD files spell them (trailing dots, case, spaces).
MIXED_LABELS = [
    "normal", "normal.", "smurf.", "smurf", "Neptune.", " portsweep.", "guess_passwd",
    "dos", "u2r", "buffer_overflow.", "normal", "smurf.",
]


def _rows(n: int):
    row = [_record_values(KddSchema())[name] for name in KddSchema().feature_names]
    return [list(row) for _ in range(n)]


class TestCategories:
    def test_matches_the_per_record_mapping(self):
        dataset = Dataset(_rows(len(MIXED_LABELS)), MIXED_LABELS)
        expected = np.array([attack_category(str(label)) for label in MIXED_LABELS], dtype=object)
        categories = dataset.categories
        assert categories.dtype == object
        assert [type(value) for value in categories] == [str] * len(MIXED_LABELS)
        assert categories.tolist() == expected.tolist()
        np.testing.assert_array_equal(dataset.is_attack, expected != "normal")
        assert dataset.class_counts() == {"normal": 3, "dos": 5, "probe": 1, "r2l": 1, "u2r": 2}

    def test_subsets_and_empty_datasets(self):
        dataset = Dataset(_rows(len(MIXED_LABELS)), MIXED_LABELS)
        assert dataset.filter_by_category("u2r", "probe").labels.tolist() == [
            " portsweep.", "u2r", "buffer_overflow.",
        ]
        assert Dataset.empty_like(dataset).categories.shape == (0,)
        assert len(dataset.filter_by_category()) == 0

    def test_unknown_label_still_raises(self):
        dataset = Dataset(_rows(3), ["normal", "not_an_attack.", "smurf"])
        with pytest.raises(SchemaError, match="not_an_attack"):
            dataset.categories


class TestColumnarConstruction:
    def test_non_numeric_value_names_its_feature(self):
        rows = _rows(3)
        rows[1][KddSchema().index_of("src_bytes")] = "abc"
        with pytest.raises(DataValidationError, match="src_bytes"):
            Dataset(rows, ["normal"] * 3)

    def test_numeric_strings_and_ints_are_parsed_once(self):
        rows = _rows(2)
        column = KddSchema().index_of("src_bytes")
        rows[0][column], rows[1][column] = "12.5", 7
        dataset = Dataset(rows, ["normal"] * 2)
        assert dataset.column("src_bytes").tolist() == [12.5, 7.0]
        assert [type(value) for value in dataset.raw[:, column]] == [float, float]

    def test_symbolic_values_are_kept_as_strings(self):
        rows = _rows(1)
        rows[0][KddSchema().index_of("service")] = 42
        assert Dataset(rows, ["normal"]).column("service").tolist() == ["42"]

    def test_from_columns_checks_shapes(self):
        schema = KddSchema()
        block = np.zeros((2, len(schema.numeric_features)))
        symbolic = [["tcp", "udp"], ["http", "dns"], ["SF", "S0"]]
        dataset = Dataset.from_columns(block, symbolic, ["normal", "smurf"], schema=schema)
        assert dataset.raw.tolist() == Dataset(dataset.raw, dataset.labels).raw.tolist()
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset.from_columns(block[:, 1:], symbolic, ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset.from_columns(block, symbolic[:2], ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset.from_columns(block, [["tcp"], *symbolic[1:]], ["normal", "smurf"])
        with pytest.raises(DataValidationError, match="do not match"):
            Dataset.from_columns(block, symbolic, ["normal"])
