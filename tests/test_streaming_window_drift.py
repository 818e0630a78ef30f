"""Tests for repro.streaming.window and repro.streaming.drift."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.streaming.drift import MeanShiftDetector
from repro.streaming.window import EwmaEstimator, SlidingWindow


class TestSlidingWindow:
    def test_capacity_enforced(self):
        window = SlidingWindow(3)
        window.extend([1.0, 2.0, 3.0, 4.0])
        assert len(window) == 3
        np.testing.assert_allclose(window.values(), [2.0, 3.0, 4.0])

    def test_statistics(self):
        window = SlidingWindow(10)
        window.extend([1.0, 2.0, 3.0])
        assert window.mean() == pytest.approx(2.0)
        assert window.std() == pytest.approx(np.std([1.0, 2.0, 3.0]))
        assert window.percentile(50) == pytest.approx(2.0)

    def test_empty_statistics_are_zero(self):
        window = SlidingWindow(5)
        assert window.mean() == 0.0
        assert window.std() == 0.0
        assert window.percentile(90) == 0.0

    def test_is_full_flag(self):
        window = SlidingWindow(2)
        assert not window.is_full
        window.extend([1.0, 2.0])
        assert window.is_full

    def test_clear(self):
        window = SlidingWindow(2)
        window.extend([1.0, 2.0])
        window.clear()
        assert len(window) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SlidingWindow(0)


class TestEwmaEstimator:
    def test_first_value_initialises_mean(self):
        ewma = EwmaEstimator(alpha=0.1)
        ewma.update(5.0)
        assert ewma.mean == 5.0

    def test_mean_tracks_shift(self):
        ewma = EwmaEstimator(alpha=0.2)
        ewma.update_many([1.0] * 50)
        assert ewma.mean == pytest.approx(1.0, abs=1e-3)
        ewma.update_many([3.0] * 50)
        assert ewma.mean == pytest.approx(3.0, abs=0.1)

    def test_larger_alpha_reacts_faster(self):
        slow = EwmaEstimator(alpha=0.01)
        fast = EwmaEstimator(alpha=0.5)
        for estimator in (slow, fast):
            estimator.update_many([0.0] * 20)
            estimator.update_many([1.0] * 5)
        assert fast.mean > slow.mean

    def test_std_positive_for_noisy_stream(self, rng):
        ewma = EwmaEstimator(alpha=0.1)
        ewma.update_many(rng.normal(0.0, 1.0, 200))
        assert ewma.std > 0.1

    def test_initial_value_respected(self):
        ewma = EwmaEstimator(alpha=0.5, initial=10.0)
        assert ewma.mean == 10.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EwmaEstimator(alpha=1.5)

    def test_update_count(self):
        ewma = EwmaEstimator()
        ewma.update_many([1.0, 2.0, 3.0])
        assert ewma.n_updates == 3


class TestMeanShiftDetector:
    def test_no_drift_on_stationary_stream(self, rng):
        detector = MeanShiftDetector(reference_size=100, recent_size=20, sensitivity=4.0)
        alarms = [detector.update(value) for value in rng.normal(0.0, 0.5, 500)]
        assert sum(alarms) <= 5  # a few random alarms are tolerable

    def test_detects_mean_shift(self, rng):
        detector = MeanShiftDetector(reference_size=100, recent_size=20, sensitivity=3.0)
        stream = np.concatenate([rng.normal(0.0, 0.2, 300), rng.normal(2.0, 0.2, 100)])
        alarms = [detector.update(value) for value in stream]
        assert any(alarms[300:])

    def test_downward_shift_does_not_alarm(self, rng):
        detector = MeanShiftDetector(reference_size=100, recent_size=20, sensitivity=3.0)
        stream = np.concatenate([rng.normal(1.0, 0.2, 300), rng.normal(-1.0, 0.2, 100)])
        alarms = [detector.update(value) for value in stream]
        assert not any(alarms[300:])

    def test_reset(self, rng):
        detector = MeanShiftDetector(reference_size=50, recent_size=10)
        for value in rng.normal(0.0, 0.1, 100):
            detector.update(value)
        detector.reset()
        assert len(detector.reference) == 0
        assert len(detector.recent) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MeanShiftDetector(recent_size=1)
        with pytest.raises(ConfigurationError):
            MeanShiftDetector(sensitivity=0.0)
