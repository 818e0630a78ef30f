"""Tests for SlidingMatrixWindow, batch SlidingWindow.extend and drift update_many."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.drift import MeanShiftDetector
from repro.streaming.window import SlidingMatrixWindow, SlidingWindow


class TestSlidingMatrixWindow:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SlidingMatrixWindow(0)

    def test_empty_window(self):
        window = SlidingMatrixWindow(5)
        assert len(window) == 0
        assert not window.is_full
        assert window.n_features is None
        assert window.values().shape == (0, 0)

    def test_fills_in_order(self):
        window = SlidingMatrixWindow(5)
        window.extend(np.array([[1.0, 1.0], [2.0, 2.0]]))
        window.extend(np.array([[3.0, 3.0]]))
        assert len(window) == 3
        assert window.n_features == 2
        np.testing.assert_array_equal(window.values()[:, 0], [1.0, 2.0, 3.0])

    def test_eviction_keeps_most_recent(self):
        window = SlidingMatrixWindow(3)
        for value in range(5):
            window.extend(np.full((1, 2), float(value)))
        assert window.is_full
        np.testing.assert_array_equal(window.values()[:, 0], [2.0, 3.0, 4.0])

    def test_oversized_batch_keeps_tail(self):
        window = SlidingMatrixWindow(3)
        window.extend(np.arange(10, dtype=float).reshape(10, 1))
        np.testing.assert_array_equal(window.values()[:, 0], [7.0, 8.0, 9.0])

    def test_single_row_1d_promoted(self):
        window = SlidingMatrixWindow(2)
        window.extend(np.array([1.0, 2.0, 3.0]))
        assert len(window) == 1
        assert window.n_features == 3

    def test_empty_batch_is_noop(self):
        window = SlidingMatrixWindow(2)
        window.extend(np.zeros((0, 4)))
        assert len(window) == 0
        assert window.n_features is None

    def test_empty_1d_batch_does_not_poison_buffer(self):
        # An empty list must not allocate a 0-feature store or phantom row.
        window = SlidingMatrixWindow(3)
        window.extend([])
        window.extend(np.array([]))
        assert len(window) == 0
        assert window.n_features is None
        window.extend(np.ones((2, 4)))  # real rows still accepted afterwards
        assert len(window) == 2
        assert window.n_features == 4

    def test_dimension_mismatch_rejected(self):
        window = SlidingMatrixWindow(4)
        window.extend(np.zeros((1, 3)))
        with pytest.raises(ConfigurationError):
            window.extend(np.zeros((1, 2)))

    def test_clear_keeps_dimensionality(self):
        window = SlidingMatrixWindow(4)
        window.extend(np.zeros((2, 3)))
        window.clear()
        assert len(window) == 0
        assert window.n_features == 3
        # The empty snapshot keeps the known feature dimension.
        assert window.values().shape == (0, 3)
        window.extend(np.ones((1, 3)))
        np.testing.assert_array_equal(window.values(), [[1.0, 1.0, 1.0]])

    def test_matches_deque_reference_under_random_batches(self):
        """The circular buffer behaves exactly like a maxlen deque of rows."""
        rng = np.random.default_rng(7)
        capacity = 17
        window = SlidingMatrixWindow(capacity)
        reference = deque(maxlen=capacity)
        for _ in range(40):
            batch = rng.normal(size=(int(rng.integers(0, 12)), 3))
            window.extend(batch)
            for row in batch:
                reference.append(row.copy())
            assert len(window) == len(reference)
            if reference:
                np.testing.assert_array_equal(window.values(), np.stack(list(reference)))

    def test_values_returns_a_copy(self):
        window = SlidingMatrixWindow(3)
        window.extend(np.ones((2, 2)))
        snapshot = window.values()
        snapshot[:] = 99.0
        np.testing.assert_array_equal(window.values(), np.ones((2, 2)))


class TestSlidingWindowBatchExtend:
    def test_extend_equivalent_to_appends(self):
        batch_window = SlidingWindow(5)
        loop_window = SlidingWindow(5)
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        batch_window.extend(values)
        for value in values:
            loop_window.append(value)
        np.testing.assert_array_equal(batch_window.values(), loop_window.values())

    def test_extend_with_ndarray(self):
        window = SlidingWindow(3)
        window.extend(np.arange(10, dtype=float))
        np.testing.assert_array_equal(window.values(), [7.0, 8.0, 9.0])

    def test_extend_empty(self):
        window = SlidingWindow(3)
        window.extend([])
        assert len(window) == 0

    def test_extend_accepts_generators(self):
        window = SlidingWindow(3)
        window.extend(float(value) for value in range(5))
        np.testing.assert_array_equal(window.values(), [2.0, 3.0, 4.0])

    def test_extend_rejects_matrices(self):
        # A row batch belongs in SlidingMatrixWindow; flattening it silently
        # would corrupt the scalar statistics.
        window = SlidingWindow(10)
        with pytest.raises(ConfigurationError):
            window.extend(np.ones((3, 4)))


class TestDriftUpdateMany:
    def test_update_many_matches_sequential_updates(self):
        rng = np.random.default_rng(3)
        stream = np.concatenate([rng.normal(0.0, 0.1, 60), rng.normal(2.0, 0.1, 60)])
        batched = MeanShiftDetector(reference_size=20, recent_size=5, sensitivity=2.0)
        sequential = MeanShiftDetector(reference_size=20, recent_size=5, sensitivity=2.0)
        batch_fired = batched.update_many(stream)
        seq_fired = False
        for value in stream:
            seq_fired = sequential.update(float(value)) or seq_fired
        assert batch_fired == seq_fired
        assert batch_fired  # the shifted stream must trigger both
