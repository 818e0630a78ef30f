"""Tests for repro.data.loader (CSV IO and splitting)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.loader import (
    class_balance,
    load_csv,
    save_csv,
    stratified_split,
    train_test_split,
)
from repro.data.records import Dataset
from repro.data.schema import KddSchema
from repro.exceptions import DataValidationError


class TestCsvRoundtrip:
    def test_save_and_load_preserves_records(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.csv"
        save_csv(small_dataset, path)
        loaded = load_csv(path)
        assert len(loaded) == len(small_dataset)
        assert list(map(str, loaded.labels)) == list(map(str, small_dataset.labels))
        np.testing.assert_allclose(
            loaded.numeric_matrix(), small_dataset.numeric_matrix(), rtol=1e-4, atol=1e-4
        )
        for name in small_dataset.schema.categorical:
            assert loaded.column(name).tolist() == small_dataset.column(name).tolist()
        # Integer-valued cells are written without a decimal point and come back exactly.
        original = small_dataset.numeric_matrix()
        integral = original == np.round(original)
        assert integral.any()
        np.testing.assert_array_equal(loaded.numeric_matrix()[integral], original[integral])
        # Every numeric cell comes back exactly, fractional ones included.
        assert not integral.all()
        assert loaded.numeric_matrix().tobytes() == original.tobytes()

    def test_load_without_header(self, small_dataset, tmp_path):
        path = tmp_path / "noheader.csv"
        save_csv(small_dataset.subset(range(20)), path, header=False)
        loaded = load_csv(path)
        assert len(loaded) == 20

    def test_trailing_dot_in_label_stripped(self, small_dataset, tmp_path):
        path = tmp_path / "dots.csv"
        subset = small_dataset.subset(range(5))
        save_csv(subset, path, header=False)
        content = path.read_text().strip().splitlines()
        content = [line + "." for line in content]
        path.write_text("\n".join(content) + "\n")
        loaded = load_csv(path)
        assert all(not str(label).endswith(".") for label in loaded.labels)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_csv(tmp_path / "nope.csv")

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(DataValidationError):
            load_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError):
            load_csv(path)

    def test_non_numeric_value_in_numeric_column_raises(self, small_dataset, tmp_path):
        path = tmp_path / "corrupt.csv"
        save_csv(small_dataset.subset(range(2)), path, header=False)
        lines = path.read_text().strip().splitlines()
        fields = lines[0].split(",")
        fields[4] = "not-a-number"
        lines[0] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="'src_bytes'"):
            load_csv(path)

    def test_reduced_schema_round_trip(self, tmp_path):
        schema = KddSchema(
            feature_names=("duration", "protocol_type", "src_bytes", "flag"),
            categorical=("protocol_type", "flag"),
        )
        numeric = np.array([[0.0, 181.0], [2.0, 239.0], [0.0, 0.0]])
        symbolic = [["tcp", "udp", "icmp"], ["SF", "S0", "REJ"]]
        dataset = Dataset(numeric, symbolic, ["normal", "smurf", "neptune"], schema=schema)
        path = tmp_path / "reduced.csv"
        save_csv(dataset, path)
        assert path.read_text().splitlines()[0] == "duration,protocol_type,src_bytes,flag,label"
        loaded = load_csv(path, schema=schema)
        assert loaded.numeric_matrix().tobytes() == numeric.tobytes()
        assert [loaded.column(name).tolist() for name in schema.categorical] == symbolic
        assert loaded.labels.tolist() == ["normal", "smurf", "neptune"]


class TestTrainTestSplit:
    def test_sizes_add_up(self, small_dataset):
        train, test = train_test_split(small_dataset, 0.25, random_state=0)
        assert len(train) + len(test) == len(small_dataset)
        assert len(test) == round(0.25 * len(small_dataset))

    def test_no_overlap_and_full_coverage(self, small_dataset):
        train, test = train_test_split(small_dataset, 0.3, random_state=1)
        combined = sorted(map(str, np.concatenate([train.labels, test.labels])))
        assert combined == sorted(map(str, small_dataset.labels))

    def test_fraction_must_be_exclusive(self, small_dataset):
        with pytest.raises(DataValidationError):
            train_test_split(small_dataset, 0.0)
        with pytest.raises(DataValidationError):
            train_test_split(small_dataset, 1.0)

    def test_reproducible_with_seed(self, small_dataset):
        first = train_test_split(small_dataset, 0.3, random_state=9)[1]
        second = train_test_split(small_dataset, 0.3, random_state=9)[1]
        assert list(map(str, first.labels)) == list(map(str, second.labels))


class TestStratifiedSplit:
    def test_category_proportions_preserved(self, small_dataset):
        train, test = stratified_split(small_dataset, 0.3, random_state=0)
        original = class_balance(small_dataset)
        split = class_balance(test)
        for category, fraction in original.items():
            if fraction > 0.05:  # small classes fluctuate too much to compare
                assert abs(split.get(category, 0.0) - fraction) < 0.1

    def test_every_class_present_in_train(self, small_dataset):
        train, _ = stratified_split(small_dataset, 0.3, random_state=0)
        assert set(train.class_counts()) == set(small_dataset.class_counts())

    def test_sizes_add_up(self, small_dataset):
        train, test = stratified_split(small_dataset, 0.2, random_state=0)
        assert len(train) + len(test) == len(small_dataset)


class TestClassBalance:
    def test_fractions_sum_to_one(self, small_dataset):
        balance = class_balance(small_dataset)
        assert abs(sum(balance.values()) - 1.0) < 1e-9
