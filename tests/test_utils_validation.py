"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.utils.validation import (
    check_array_2d,
    check_fraction,
    check_positive,
    check_probability_vector,
    check_same_length,
)


class TestCheckArray2d:
    def test_list_of_lists_converted(self):
        result = check_array_2d([[1, 2], [3, 4]])
        assert result.shape == (2, 2)
        assert result.dtype == float

    def test_1d_input_becomes_single_row(self):
        assert check_array_2d([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_input_rejected(self):
        with pytest.raises(DataValidationError):
            check_array_2d(np.zeros((2, 2, 2)))

    def test_nan_rejected_by_default(self):
        with pytest.raises(DataValidationError):
            check_array_2d([[1.0, np.nan]])

    def test_nan_allowed_when_requested(self):
        result = check_array_2d([[1.0, np.nan]], allow_nan=True)
        assert np.isnan(result[0, 1])

    def test_min_rows_enforced(self):
        with pytest.raises(DataValidationError):
            check_array_2d([[1.0, 2.0]], min_rows=2)

    def test_min_cols_enforced(self):
        with pytest.raises(DataValidationError):
            check_array_2d([[1.0]], min_cols=2)

    def test_non_numeric_rejected(self):
        with pytest.raises(DataValidationError):
            check_array_2d([["a", "b"]])

    def test_returns_contiguous_copy(self):
        original = np.asfortranarray(np.ones((3, 3)))
        result = check_array_2d(original)
        assert result.flags["C_CONTIGUOUS"]

    def test_conforming_array_passes_through_uncopied(self):
        original = np.ones((3, 3))
        assert check_array_2d(original) is original

    def test_fortran_or_other_dtype_input_is_copied(self):
        fortran = np.asfortranarray(np.ones((3, 3)))
        result = check_array_2d(fortran)
        assert result is not fortran and not np.shares_memory(result, fortran)
        assert result.flags["C_CONTIGUOUS"]
        single = np.ones((3, 3), dtype=np.float32)
        assert not np.shares_memory(check_array_2d(single), single)


class TestCheckPositive:
    def test_positive_value_passes(self):
        assert check_positive(1.5, "x") == 1.5

    def test_zero_rejected_when_strict(self):
        with pytest.raises(DataValidationError):
            check_positive(0.0, "x")

    def test_zero_allowed_when_not_strict(self):
        assert check_positive(0.0, "x", strict=False) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DataValidationError):
            check_positive(-1.0, "x", strict=False)

    def test_infinity_rejected(self):
        with pytest.raises(DataValidationError):
            check_positive(float("inf"), "x")

    def test_non_number_rejected(self):
        with pytest.raises(DataValidationError):
            check_positive("abc", "x")


class TestCheckFraction:
    def test_bounds_inclusive(self):
        assert check_fraction(0.0, "f") == 0.0
        assert check_fraction(1.0, "f") == 1.0

    def test_bounds_exclusive(self):
        with pytest.raises(DataValidationError):
            check_fraction(0.0, "f", inclusive=False)
        with pytest.raises(DataValidationError):
            check_fraction(1.0, "f", inclusive=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataValidationError):
            check_fraction(1.5, "f")


class TestCheckProbabilityVector:
    def test_normalisation(self):
        result = check_probability_vector([1.0, 1.0, 2.0])
        np.testing.assert_allclose(result.sum(), 1.0)
        np.testing.assert_allclose(result, [0.25, 0.25, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(DataValidationError):
            check_probability_vector([0.5, -0.1])

    def test_zero_sum_rejected(self):
        with pytest.raises(DataValidationError):
            check_probability_vector([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            check_probability_vector([])

    def test_2d_rejected(self):
        with pytest.raises(DataValidationError):
            check_probability_vector([[0.5, 0.5]])


class TestCheckSameLength:
    def test_equal_lengths_pass(self):
        check_same_length([1, 2], [3, 4])

    def test_unequal_lengths_raise(self):
        with pytest.raises(DataValidationError):
            check_same_length([1, 2], [3])
