"""Concept-drift detectors for the online detection pipeline.

Traffic distributions drift (new services deployed, load changes, seasonal
patterns); a detector calibrated on last month's traffic slowly degrades.  The
online pipeline watches the anomaly-score stream of records it believes are
normal — if that stream shifts upward persistently, either the traffic changed
or a slow attack is underway, and the pipeline reacts (re-calibrates or
re-fits).  ``MeanShiftDetector`` is the change detector it uses.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError
from repro.streaming.window import SlidingWindow, scalar_batch

#: Values per block of ``MeanShiftDetector``: a block's screen (a handful of
#: arrays as long as the block) and its exact rows' ``std`` temporary each
#: stay at ~0.25 MiB however long the batch is.
_BLOCK_VALUES = 1 << 15

#: Unit roundoff of float64 (round to nearest), the ``u`` of the screen's bound.
_UNIT = 2.0**-53

#: The screen runs only while ``block length * max(c²)`` stays below this, so
#: none of its prefix sums can overflow.
_SCREEN_LIMIT = 2.0**1000


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


class MeanShiftDetector(DriftDetector):
    """Compares the mean of a recent window against a reference window.

    Alarm when the recent mean exceeds the reference mean by more than
    ``sensitivity`` reference standard deviations.  The pipeline's default,
    because its false-alarm behaviour is easy to control.

    With ``R = reference_size`` and ``W = recent_size``, the state is the
    last ``R + W`` values seen since :meth:`reset`.  After value number
    ``c >= R + W`` the reference window is ``v[c-R-W : c-W]``, the recent
    window is ``v[c-W : c]``, and the test runs once per value.  Before that
    the first ``R`` values fill the reference and the next ones the recent
    window, with no test.

    :meth:`update_many` decides a whole batch in two steps.  A screen
    (:meth:`_candidates`) rules out, at O(1) per window, every window that
    provably cannot fire.  The rows it keeps go through row-wise means and
    standard deviations over a sliding window view of ``history + batch``,
    the one decision rule: each row reduces the same contiguous run of
    values as a one-value-at-a-time test would, so every decision is
    bit-identical to it.
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
        history, known = self._history, self._history.size
        # Window number ``a`` of ``history + batch`` covers its values
        # ``a .. a+span-1``; the ones to test end inside the batch.  A block
        # of them is a view of the batch, except the first, which reaches
        # back into the stored history.
        first, end = max(known + 1 - span, 0), known + batch.size - span + 1
        rows = max(1, _BLOCK_VALUES - span + 1)
        fired = False
        for start in range(first, end, rows):
            stop = min(start + rows, end) + span - 1
            if start >= known:
                block = batch[start - known : stop - known]
            else:
                block = np.concatenate((history[start:], batch[: stop - known]))
            if self._fires(block):
                fired = True
                break
        if batch.size >= span:
            self._history = batch[-span:].copy()
        else:
            self._history = np.concatenate((history, batch))[-span:]
        return fired

    def _fires(self, stream: AnyArray) -> bool:
        """Whether the test fires for any window of ``stream``."""
        candidates = self._candidates(stream)
        if not candidates.size:
            return False
        windows = sliding_window_view(stream, self.reference_size + self.recent_size)
        rows = max(1, _BLOCK_VALUES // windows.shape[1])
        for start in range(0, candidates.size, rows):
            block = windows[candidates[start : start + rows]]
            reference = block[:, : self.reference_size]
            gap = block[:, self.reference_size :].mean(axis=1) - reference.mean(axis=1)
            threshold = self.sensitivity * np.maximum(reference.std(axis=1), 1e-9)
            if np.any(gap > threshold):
                return True
        return False

    def _candidates(self, stream: AnyArray) -> AnyArray:
        """Indices of the windows of ``stream`` that the exact test could fire on.

        With ``c = stream - s`` for ``s`` the block's middle value (so the
        sums track the values' spread, not their level), prefix sums ``P`` of
        ``c`` and ``Q`` of ``c²`` give a window ``[a, a+R+W)`` with
        ``m = a+R``, ``t = m+W`` its gap and reference variance in O(1)::

            gap = (P[t] - P[m]) / W - (P[m] - P[a]) / R
            var = (Q[m] - Q[a]) / R - ((P[m] - P[a]) / R)**2

        A window is ruled out only when ``gap + E_gap <= sensitivity *
        max(sqrt(max(var - E_var, 0)), 1e-9)``.  The right side is the exact
        test's threshold formula applied to a lower bound of its ``std``, and
        rounding is monotone, so that threshold is at most the exact test's
        one while ``gap + E_gap`` is at least its gap: the exact test does
        not fire there either.  A NaN on either side keeps the row.

        The bounds, with ``u = 2**-53``, ``L`` values in the block,
        ``M >= max|c|`` and ``X = |s| + M >= max|x|``, to first order in
        ``u``; the code doubles each, which covers the O(u²) terms and the
        rounding of the bound itself:

        * Screen sums: any order of summing ``L`` terms errs by at most
          ``L·u·Σ|c| <= L²·u·M``, so a window sum, a difference of two
          prefixes, by ``2L²uM``.  The windows' means are then within
          ``2L²uM/R + 2uM`` (and ``/W``) of the means of ``c``, and the gap
          within ``2L²uM·(1/R + 1/W) + 6uM``.  Rounding ``c`` itself moves
          the gap of ``c`` from that of ``x`` by ``2uM``.
        * Exact path: numpy's ``mean`` of ``n`` values errs by at most
          ``(n+1)·u·X``, so its gap by ``(R+W+4)·u·X``.  Hence
          ``E_gap = 2u·(2L²·(1/R + 1/W)·M + 8M + (R+W+4)·X)``.
        * Variance: ``Q`` differences err by ``2L²uM²`` and the squares by
          ``uRM²``; the squared mean by ``2M`` times its error.  With the
          roundings of ``E[c²] - E[c]²`` (the cancellation: they scale with
          ``M²``, not with the variance) the screen's variance is within
          ``(6L²/R + 9)·u·M²`` of the variance of ``c``, which is within
          ``2uM²`` of the variance of ``x``.
        * numpy's two-pass ``std`` never undershoots much: the sum of squared
          deviations from its rounded mean is at least the exact one, and
          every rounding after that is a relative ``u``, so its ``std`` is at
          least ``(1 - (R+4)·u)`` times the exact one and its square at
          least the exact variance less ``2(R+4)·u·M²``.  Hence
          ``E_var = 2u·M²·(6L²/R + 2R + 20)``, which also absorbs the final
          square root's rounding.

        Underflow adds at most a few ``2**-1075`` per value; ``M`` carries
        ``2**-537`` for squares that flush to zero and ``E_gap`` carries
        ``2**-1022``, and a variance that small sits under the ``1e-9``
        floor anyway.  Overflow is ruled out up front: the screen only runs
        when ``L·max(c²)`` is finite and far below the float range, so no
        sum above can overflow; otherwise (a NaN, an infinity, a square
        that overflows) every window of the block is a candidate.
        """
        reference, recent = self.reference_size, self.recent_size
        size = stream.size
        rows = size - reference - recent + 1
        shift = float(stream[size // 2])
        with np.errstate(all="ignore"):  # non-finite input is caught by the guard below
            prefix = np.empty(size + 1)
            prefix[0] = 0.0
            np.subtract(stream, shift, out=prefix[1:])
            squares = np.square(prefix)
            peak = float(squares.max())
        if not size * peak < _SCREEN_LIMIT:
            return np.arange(rows)
        np.add.accumulate(prefix, out=prefix)
        np.add.accumulate(squares, out=squares)
        middle = slice(reference, reference + rows)
        mean = prefix[middle] - prefix[:rows]
        mean /= reference
        gap = prefix[reference + recent :] - prefix[middle]
        gap /= recent
        gap -= mean
        variance = squares[middle] - squares[:rows]
        variance /= reference
        variance -= np.square(mean, out=mean)
        # ``M`` and ``X`` of the bound; a square that flushed to zero hides
        # at most ``2**-537`` of ``|c|``.
        spread = math.sqrt(peak) * (1.0 + 2.0 * _UNIT) + 2.0**-537
        level = abs(shift) + spread
        sums = size * size * (1.0 / reference + 1.0 / recent)
        gap += 2.0 * _UNIT * (
            (2.0 * sums + 8.0) * spread + (reference + recent + 4.0) * level
        ) + 2.0**-1022
        variance -= (
            2.0 * _UNIT * spread**2 * (6.0 * size * size / reference + 2.0 * reference + 20.0)
        )
        np.maximum(variance, 0.0, out=variance)
        np.sqrt(variance, out=variance)
        threshold = self.sensitivity * np.maximum(variance, 1e-9, out=variance)
        return (~(gap <= threshold)).nonzero()[0]
