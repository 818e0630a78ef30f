"""Input validation helpers shared across the library.

These functions normalise user input into well-formed numpy arrays and raise
:class:`~repro.exceptions.DataValidationError` with a descriptive message when
the input cannot be used.  Centralising the checks keeps model code focused on
the algorithm rather than on defensive programming.
"""

from __future__ import annotations

from typing import Sequence, Sized

import numpy as np

from repro._typing import AnyArray
from repro.exceptions import DataValidationError


def check_array_2d(
    data: object,
    name: str = "X",
    *,
    min_rows: int = 1,
    min_cols: int = 1,
    allow_nan: bool = False,
) -> AnyArray:
    """Validate ``data`` as a 2-D float64 array and return it C-contiguous.

    A C-contiguous 2-D float64 array is returned as is (the caller's own
    object, not a copy); anything else is converted into a new array.  The
    serving hot path relies on that pass-through for its single conversion,
    so callers must not write to the result in place.

    Parameters
    ----------
    data:
        Anything convertible to a 2-D numpy array of floats.
    name:
        Name used in error messages.
    min_rows, min_cols:
        Minimum acceptable shape.
    allow_nan:
        When ``False`` (the default) NaN or infinite values raise an error.
    """
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{name} could not be converted to a float array: {exc}") from exc
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise DataValidationError(f"{name} must be 2-dimensional, got shape {array.shape}")
    rows, cols = array.shape
    if rows < min_rows:
        raise DataValidationError(f"{name} must have at least {min_rows} row(s), got {rows}")
    if cols < min_cols:
        raise DataValidationError(f"{name} must have at least {min_cols} column(s), got {cols}")
    if not allow_nan and not np.all(np.isfinite(array)):
        raise DataValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(array)


def check_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise DataValidationError(f"{name} must be finite, got {number}")
    if strict and number <= 0:
        raise DataValidationError(f"{name} must be > 0, got {number}")
    if not strict and number < 0:
        raise DataValidationError(f"{name} must be >= 0, got {number}")
    return number


def check_fraction(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1)`` when exclusive)."""
    number = float(value)
    if inclusive:
        if not 0.0 <= number <= 1.0:
            raise DataValidationError(f"{name} must be in [0, 1], got {number}")
    else:
        if not 0.0 < number < 1.0:
            raise DataValidationError(f"{name} must be in (0, 1), got {number}")
    return number


def check_probability_vector(values: Sequence[float], name: str = "probabilities") -> AnyArray:
    """Validate and renormalise a vector of non-negative weights.

    The vector must contain at least one strictly positive entry; it is
    returned normalised to sum to one.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise DataValidationError(f"{name} must be 1-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise DataValidationError(f"{name} must not be empty")
    if np.any(array < 0) or not np.all(np.isfinite(array)):
        raise DataValidationError(f"{name} must contain finite non-negative values")
    total = array.sum()
    if total <= 0:
        raise DataValidationError(f"{name} must have a positive sum")
    return array / total


def check_same_length(
    first: Sized, second: Sized, first_name: str = "X", second_name: str = "y"
) -> None:
    """Raise if two sequences have different lengths."""
    if len(first) != len(second):
        raise DataValidationError(
            f"{first_name} and {second_name} must have the same length; "
            f"got {len(first)} and {len(second)}"
        )
