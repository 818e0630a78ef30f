"""Concept-drift detectors for the online detection pipeline.

Traffic distributions drift (new services deployed, load changes, seasonal
patterns); a detector calibrated on last month's traffic slowly degrades.  The
online pipeline watches the anomaly-score stream of records it believes are
normal — if that stream shifts upward persistently, either the traffic changed
or a slow attack is underway, and the pipeline reacts (re-calibrates or
re-fits).  Two standard change detectors are provided.
"""

from __future__ import annotations

import abc
from typing import Iterable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError
from repro.streaming.window import SlidingWindow, scalar_batch

#: Values per block of windows tested at once in ``MeanShiftDetector``: the
#: row-wise ``std`` temporary stays at ~1 MiB however long the batch is.
_BLOCK_VALUES = 1 << 17


class DriftDetector(abc.ABC):
    """Interface: feed scalar observations, get told when the stream changed."""

    @abc.abstractmethod
    def update(self, value: float) -> bool:
        """Add one observation; return ``True`` when drift is detected."""

    def update_many(self, values: Union[Iterable[float], AnyArray]) -> bool:
        """Feed a batch of observations; ``True`` when any of them fired.

        The observations are applied in order with identical semantics to
        calling :meth:`update` once per value (the detectors are inherently
        sequential), and the batch keeps being consumed after the first alarm
        so the internal state matches the one-by-one path exactly.  Accepts
        any iterable of scalars, including lazy generators, or a 1-D array.
        """
        fired = False
        for value in scalar_batch(values, type(self).__name__).tolist():
            fired = self.update(value) or fired
        return fired

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state (called after the caller has reacted to drift)."""


class PageHinkleyDetector(DriftDetector):
    """Page–Hinkley test for an upward shift in the mean of a stream.

    Parameters
    ----------
    delta:
        Magnitude of changes to ignore (tolerated drift per observation).
    threshold:
        Alarm when the cumulative deviation exceeds this value.
    min_observations:
        Number of observations required before an alarm may fire.
    """

    def __init__(
        self,
        *,
        delta: float = 0.005,
        threshold: float = 5.0,
        min_observations: int = 30,
    ) -> None:
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if min_observations < 1:
            raise ConfigurationError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_observations = int(min_observations)
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    def update(self, value: float) -> bool:
        return self.update_many((value,))

    def update_many(self, values: Union[Iterable[float], AnyArray]) -> bool:
        # The recurrence runs over local variables and is written back once,
        # so a batch costs no method call per value.
        count, mean = self._count, self._mean
        cumulative, minimum = self._cumulative, self._minimum
        delta, threshold = self.delta, self.threshold
        min_observations = self.min_observations
        fired = False
        for value in scalar_batch(values, "PageHinkleyDetector").tolist():
            count += 1
            # Running mean of the stream so far.
            mean += (value - mean) / count
            cumulative += value - mean - delta
            minimum = min(minimum, cumulative)
            if count >= min_observations and (cumulative - minimum) > threshold:
                fired = True
        self._count, self._mean = count, mean
        self._cumulative, self._minimum = cumulative, minimum
        return fired


class MeanShiftDetector(DriftDetector):
    """Compares the mean of a recent window against a reference window.

    Alarm when the recent mean exceeds the reference mean by more than
    ``sensitivity`` reference standard deviations.  Simpler and easier to
    reason about than Page–Hinkley; used as the default in the pipeline
    because its false-alarm behaviour is easy to control.

    With ``R = reference_size`` and ``W = recent_size``, the state is the
    last ``R + W`` values seen since :meth:`reset`.  After value number
    ``c >= R + W`` the reference window is ``v[c-R-W : c-W]``, the recent
    window is ``v[c-W : c]``, and the test runs once per value.  Before that
    the first ``R`` values fill the reference and the next ones the recent
    window, with no test.  :meth:`update_many` therefore runs the test for a
    whole batch as row-wise means and standard deviations over a sliding
    window view of ``history + batch``; each row reduces the same contiguous
    run of values as a one-value-at-a-time test would, so every ``gap`` and
    ``std`` is bit-identical to it.
    """

    def __init__(
        self,
        *,
        reference_size: int = 200,
        recent_size: int = 50,
        sensitivity: float = 3.0,
    ) -> None:
        if recent_size < 2 or reference_size < 2:
            raise ConfigurationError("window sizes must be at least 2")
        if sensitivity <= 0:
            raise ConfigurationError(f"sensitivity must be positive, got {sensitivity}")
        self.reference_size = int(reference_size)
        self.recent_size = int(recent_size)
        self.sensitivity = float(sensitivity)
        self.reset()

    @property
    def reference(self) -> SlidingWindow:
        """Snapshot of the reference window (up to the ``R`` values before ``recent``)."""
        window = SlidingWindow(self.reference_size)
        window.extend(self._history[: self.reference_size])
        return window

    @property
    def recent(self) -> SlidingWindow:
        """Snapshot of the recent window (the values after the reference)."""
        window = SlidingWindow(self.recent_size)
        window.extend(self._history[self.reference_size :])
        return window

    def reset(self) -> None:
        self._history: AnyArray = np.empty(0)

    def update(self, value: float) -> bool:
        return self.update_many((value,))

    def update_many(self, values: Union[Iterable[float], AnyArray]) -> bool:
        """Feed a batch; ``True`` when the test fired at any of its values."""
        batch = scalar_batch(values, "MeanShiftDetector")
        span = self.reference_size + self.recent_size
        # Windows ending in the first span-1 batch values reach back into the
        # stored history; every later window lies inside the batch, so the
        # batch itself is viewed without a copy.
        head = np.concatenate((self._history, batch[: span - 1]))
        fired = self._shifted(head, after=self._history.size) or self._shifted(
            batch, after=span - 1
        )
        self._history = (batch if batch.size >= span else head)[-span:].copy()
        return fired

    def _shifted(self, stream: AnyArray, *, after: int) -> bool:
        """Whether the test fires for any window of ``stream`` ending past ``after`` values."""
        span = self.reference_size + self.recent_size
        first = max(after - span + 1, 0)
        if stream.size - first < span:
            return False
        windows = sliding_window_view(stream[first:], span)
        rows = max(1, _BLOCK_VALUES // span)
        for start in range(0, windows.shape[0], rows):
            block = windows[start : start + rows]
            reference = block[:, : self.reference_size]
            gap = block[:, self.reference_size :].mean(axis=1) - reference.mean(axis=1)
            threshold = self.sensitivity * np.maximum(reference.std(axis=1), 1e-9)
            if np.any(gap > threshold):
                return True
        return False
