"""Streaming statistics: fixed-size sliding windows and exponential averages."""

from __future__ import annotations

from collections import deque
from math import isnan
from typing import Deque, Iterable, Optional, Union

import numpy as np

from repro._typing import AnyArray
from repro.core import kernels
from repro.exceptions import ConfigurationError


def scalar_batch(values: Union[Iterable[float], AnyArray], owner: str) -> AnyArray:
    """``values`` as a 1-D float64 array, in order.

    Lazy iterables (generators) are consumed without materialising an
    intermediate list; a float64 vector comes back without a copy.  An array
    of any other rank raises :class:`ConfigurationError` naming ``owner``: a
    0-D scalar or a matrix (even an ``(n, 1)`` column) is a caller mistake
    that iterating or ``ravel()`` would hide.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ConfigurationError(
                f"{owner} takes a 1-D batch of scalars; got an array of shape "
                f"{values.shape}"
            )
        return values.astype(float, copy=False)
    return np.fromiter((float(value) for value in values), dtype=float)


class SlidingWindow:
    """A fixed-capacity window of recent values with cheap summary statistics.

    Used by the online detector to keep a bounded buffer of recent
    observations (for refitting) and recent scores (for adaptive thresholds).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._values: Deque[float] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def is_full(self) -> bool:
        """Whether the window holds ``capacity`` values."""
        return len(self._values) == self.capacity

    def append(self, value: float) -> None:
        """Add one value (evicting the oldest when full)."""
        self._values.append(float(value))

    def extend(self, values: Union[Iterable[float], AnyArray]) -> None:
        """Add a batch of values in one O(n) operation.

        Equivalent to appending one by one (the deque evicts from the left as
        it fills), but the conversion and eviction happen in bulk instead of
        one Python call per value.
        """
        # A matrix here almost certainly means the caller wanted the row
        # buffer (SlidingMatrixWindow); flattening silently would pour n*d
        # feature values into the scalar statistics.
        array = scalar_batch(values, "SlidingWindow (use SlidingMatrixWindow for rows)")
        if array.size > self.capacity:
            # Only the trailing `capacity` values can survive anyway.
            array = array[-self.capacity :]
        self._values.extend(float(value) for value in array.tolist())

    def values(self) -> AnyArray:
        """The current window contents, oldest first."""
        return np.array(self._values, dtype=float)

    def mean(self) -> float:
        """Mean of the window (0.0 when empty)."""
        return float(np.mean(self.values())) if self._values else 0.0

    def std(self) -> float:
        """Standard deviation of the window (0.0 when empty)."""
        return float(np.std(self.values())) if self._values else 0.0

    def percentile(self, q: float) -> float:
        """Percentile ``q`` of the window (0.0 when empty)."""
        if not self._values:
            return 0.0
        return float(np.percentile(self.values(), q))

    def clear(self) -> None:
        """Drop all stored values."""
        self._values.clear()


class SlidingMatrixWindow:
    """A fixed-capacity window of recent *row vectors* (a bounded record buffer).

    The online detector keeps the last ``capacity`` benign records for
    drift-triggered refits.  This is a preallocated circular buffer: a batch
    of rows is absorbed with two slice writes at most (wrap-around), so
    extending by ``n`` rows costs O(n) numpy work with no per-row Python.

    The feature dimensionality is fixed by the first batch; later batches
    must match it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._data: Optional[AnyArray] = None  # (capacity, d), allocated lazily
        self._head = 0  # next write position
        self._count = 0  # rows currently stored

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        """Whether the buffer holds ``capacity`` rows."""
        return self._count == self.capacity

    @property
    def n_features(self) -> Optional[int]:
        """Row dimensionality (``None`` until the first batch arrives)."""
        return None if self._data is None else int(self._data.shape[1])

    def extend(self, rows: object) -> None:
        """Absorb a batch of rows, evicting the oldest when over capacity."""
        batch = np.asarray(rows, dtype=float)
        if batch.size == 0:
            # Checked before the 1-D promotion: an empty 1-D input would
            # otherwise become a phantom (1, 0) row and pin n_features to 0.
            return
        if batch.ndim == 1:
            batch = batch.reshape(1, -1)
        if batch.ndim != 2:
            raise ConfigurationError(
                f"rows must be a 2-D batch, got shape {batch.shape}"
            )
        data = self._data
        if data is None:
            data = np.empty((self.capacity, batch.shape[1]), dtype=float)
            self._data = data
        elif batch.shape[1] != data.shape[1]:
            raise ConfigurationError(
                f"rows have {batch.shape[1]} features, the buffer holds "
                f"{data.shape[1]}"
            )
        if batch.shape[0] >= self.capacity:
            data[:] = batch[-self.capacity :]
            self._head = 0
            self._count = self.capacity
            return
        first = min(batch.shape[0], self.capacity - self._head)
        data[self._head : self._head + first] = batch[:first]
        remainder = batch.shape[0] - first
        if remainder:
            data[:remainder] = batch[first:]
        self._head = (self._head + batch.shape[0]) % self.capacity
        self._count = min(self._count + batch.shape[0], self.capacity)

    def values(self) -> AnyArray:
        """The buffered rows, oldest first, as a ``(len(self), d)`` copy."""
        data = self._data
        if data is None:
            return np.zeros((0, 0), dtype=float)
        if self._count == 0:
            # Dimensionality is known: keep it in the empty result so callers
            # can concatenate / inspect shape[1] safely.
            return data[:0].copy()
        if self._count < self.capacity:
            # The buffer has never wrapped: rows 0..count are in order.
            return data[: self._count].copy()
        return np.concatenate([data[self._head :], data[: self._head]], axis=0)

    def clear(self) -> None:
        """Drop all stored rows (the allocation and dimensionality are kept)."""
        self._head = 0
        self._count = 0


class EwmaEstimator:
    """Exponentially weighted moving average (and variance) of a scalar stream.

    Parameters
    ----------
    alpha:
        Smoothing factor in ``(0, 1]``; larger values react faster.
    initial:
        Optional initial mean (otherwise the first observation initialises it).
    """

    def __init__(self, alpha: float = 0.05, initial: Optional[float] = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._mean: Optional[float] = float(initial) if initial is not None else None
        self._variance: float = 0.0
        self.n_updates: int = 0

    @property
    def mean(self) -> float:
        """Current smoothed mean (0.0 before the first update)."""
        return self._mean if self._mean is not None else 0.0

    @property
    def std(self) -> float:
        """Current smoothed standard deviation."""
        return float(np.sqrt(max(self._variance, 0.0)))

    def update(self, value: float) -> float:
        """Fold one observation into the average and return the new mean."""
        return self.update_many((value,))

    def update_many(self, values: Union[Iterable[float], AnyArray]) -> float:
        """Fold several observations in order and return the final mean.

        On the fused engine the C library folds the batch
        (:func:`repro.core.kernels.ewma_update`); the Python loop below, over
        local variables and written back once, folds it elsewhere and is the
        oracle the native fold matches bit for bit.  A NaN observation, or a
        NaN already in the state, goes to the loop.
        """
        batch = scalar_batch(values, "EwmaEstimator")
        self.n_updates += batch.shape[0]
        mean = self._mean
        if mean is None:
            if not batch.size:
                return self.mean
            # The first observation initialises the mean; the variance is
            # still the 0.0 set in __init__.
            mean, batch = float(batch[0]), batch[1:]
        alpha = self.alpha
        variance = self._variance
        folded = 0
        if kernels.host_engine() == "fused" and not (isnan(mean) or isnan(variance)):
            folded, mean, variance = kernels.ewma_update(batch, alpha, mean, variance)
        decay = 1.0 - alpha
        for value in batch[folded:].tolist():
            delta = value - mean
            mean = mean + alpha * delta
            variance = decay * (variance + alpha * delta * delta)
        self._mean = mean
        self._variance = variance
        return mean
