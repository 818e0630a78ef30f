"""The batched drift/EWMA updates against their one-value-at-a-time definitions.

``PerValueMeanShift`` below is the straightforward mean-shift test: two
sliding windows, the reference fills first, then each new value enters the
recent window and the value it evicts graduates into the reference, and the
test runs whenever the recent window is full.  It costs two array copies and
three reductions per value but is obviously right, so it serves as the
oracle: ``MeanShiftDetector`` must fire on exactly the same values and end
every batch with the same window contents.
"""

from __future__ import annotations

import tracemalloc
from typing import Iterable, Iterator, List, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.streaming import drift
from repro.streaming.drift import DriftDetector, MeanShiftDetector, PageHinkleyDetector
from repro.streaming.window import EwmaEstimator, SlidingWindow


class PerValueMeanShift:
    """The per-value reference implementation of :class:`MeanShiftDetector`."""

    def __init__(self, *, reference_size: int, recent_size: int, sensitivity: float) -> None:
        self.reference = SlidingWindow(reference_size)
        self.recent = SlidingWindow(recent_size)
        self.sensitivity = float(sensitivity)

    def reset(self) -> None:
        self.reference.clear()
        self.recent.clear()

    def update(self, value: float) -> bool:
        value = float(value)
        if not self.reference.is_full:
            self.reference.append(value)
            return False
        if self.recent.is_full:
            oldest = self.recent.values()[0]
            self.reference.append(float(oldest))
        self.recent.append(value)
        if not self.recent.is_full:
            return False
        reference_std = max(self.reference.std(), 1e-9)
        gap = self.recent.mean() - self.reference.mean()
        return gap > self.sensitivity * reference_std

    def update_each(self, values: Iterable[float]) -> List[bool]:
        return [self.update(value) for value in values]


def _as_input(values: np.ndarray, kind: str) -> Union[np.ndarray, List[float], Iterator[float]]:
    if kind == "ndarray":
        return values.copy()
    if kind == "list":
        return values.tolist()
    return (float(value) for value in values)


def _stream(seed: int, length: int, scale: float) -> np.ndarray:
    """Piecewise-stationary noise with occasional level jumps, so the test fires sometimes."""
    rng = np.random.default_rng(seed)
    levels = np.repeat(rng.choice([0.0, 0.0, 4.0, -3.0], size=length // 50 + 1), 50)[:length]
    return (levels + rng.normal(0.0, 1.0, length)) * scale


def _assert_same_windows(detector: MeanShiftDetector, oracle: PerValueMeanShift) -> None:
    for got, expected in ((detector.reference, oracle.reference), (detector.recent, oracle.recent)):
        assert len(got) == len(expected)
        assert got.capacity == expected.capacity
        np.testing.assert_array_equal(got.values(), expected.values())


class TestMeanShiftAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        reference_size=st.integers(2, 300),
        recent_size=st.integers(2, 300),
        sensitivity=st.sampled_from([0.5, 1.0, 3.0]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
        plan=st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.sampled_from(["ndarray", "list", "generator"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_same_alarms_and_windows(
        self, reference_size, recent_size, sensitivity, scale, seed, plan
    ):
        span = reference_size + recent_size
        lengths = [int(fraction * 3 * span) for fraction, _, _ in plan]
        stream = _stream(seed, sum(lengths), scale)
        sizes = {
            "reference_size": reference_size,
            "recent_size": recent_size,
            "sensitivity": sensitivity,
        }
        batched = MeanShiftDetector(**sizes)
        single = MeanShiftDetector(**sizes)
        oracle = PerValueMeanShift(**sizes)
        offset = 0
        for length, (_, kind, reset_after) in zip(lengths, plan, strict=True):
            values = stream[offset : offset + length]
            offset += length
            expected = oracle.update_each(values)
            assert batched.update_many(_as_input(values, kind)) == any(expected)
            assert [single.update(value) for value in values.tolist()] == expected
            _assert_same_windows(batched, oracle)
            _assert_same_windows(single, oracle)
            if reset_after:
                for detector in (batched, single, oracle):
                    detector.reset()
                _assert_same_windows(batched, oracle)

    @pytest.mark.parametrize("reference_size,recent_size", [(2, 2), (3, 2), (129, 7), (200, 50)])
    def test_exact_at_every_position_of_one_long_batch(self, reference_size, recent_size):
        # One batch spanning many blocks; the shifted level starts at a
        # different position each time so the first alarm moves across
        # block boundaries.
        rng = np.random.default_rng(reference_size * 1000 + recent_size)
        base = rng.normal(0.0, 1.0, 4000)
        for shift_at in (0, 1000, 2500, 3990):
            values = base.copy()
            values[shift_at:] += 5.0
            detector = MeanShiftDetector(reference_size=reference_size, recent_size=recent_size)
            oracle = PerValueMeanShift(
                reference_size=reference_size, recent_size=recent_size, sensitivity=3.0
            )
            assert detector.update_many(values) == any(oracle.update_each(values))
            _assert_same_windows(detector, oracle)

    @pytest.mark.parametrize("reference_size,recent_size", [(2, 2), (5, 3), (13, 4)])
    def test_every_batch_split_with_tiny_blocks(self, reference_size, recent_size, monkeypatch):
        # Two-row blocks put a block boundary next to every window, and
        # isolated spikes make most alarms single positions; every split
        # (lo, hi) of the stream must then report exactly the alarms the
        # oracle raises inside it, so a window skipped or tested twice at
        # the history/batch seam or a block edge shows.
        span = reference_size + recent_size
        monkeypatch.setattr(drift, "_BLOCK_VALUES", 2 * span + 1)
        rng = np.random.default_rng(span)
        values = rng.normal(0.0, 1.0, 160)
        values[rng.choice(160, size=12, replace=False)] += 12.0
        sizes = {"reference_size": reference_size, "recent_size": recent_size, "sensitivity": 2.0}
        expected = PerValueMeanShift(**sizes).update_each(values)
        assert 0 < sum(expected) < len(values) // 2
        for lo in range(len(values)):
            for hi in range(lo, min(len(values), lo + 2 * span) + 1):
                detector = MeanShiftDetector(**sizes)
                assert detector.update_many(values[:lo]) == any(expected[:lo])
                assert detector.update_many(values[lo:hi]) == any(expected[lo:hi])

    def test_gap_exactly_at_the_threshold_does_not_fire(self):
        # Reference [0, 2, 0, 2]: mean 1, std exactly 1; recent mean 4 gives
        # a gap of exactly 3 reference deviations, which is not "more than".
        stream = [0.0, 2.0, 0.0, 2.0, 4.0, 4.0]
        sizes = {"reference_size": 4, "recent_size": 2, "sensitivity": 3.0}
        assert PerValueMeanShift(**sizes).update_each(stream)[-1] is False
        assert MeanShiftDetector(**sizes).update_many(stream) is False
        nudged = stream[:-1] + [4.000001]
        assert PerValueMeanShift(**sizes).update_each(nudged)[-1] is True
        assert MeanShiftDetector(**sizes).update_many(nudged) is True

    def test_million_value_batch_stays_within_a_few_megabytes(self):
        values = np.random.default_rng(0).normal(0.0, 1.0, 1_000_000)
        values[-30:] += 10.0  # fires only at the very end: every block is tested
        detector = MeanShiftDetector()
        tracemalloc.start()
        try:
            fired = detector.update_many(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fired
        assert peak < 4 * 1024 * 1024  # the batch itself is 8 MB
        np.testing.assert_array_equal(detector.reference.values(), values[-250:-50])
        np.testing.assert_array_equal(detector.recent.values(), values[-50:])


class TestSequentialStateEquality:
    """A batch leaves bit-identical state to the same values fed one ``update`` at a time.

    ``update`` is a batch of one, so this pins down that the recurrences carry
    their whole state across batch boundaries (any split, including empty
    batches), whatever the input type.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
        initial=st.one_of(st.none(), st.floats(-5.0, 5.0)),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 300), max_size=4),
        kind=st.sampled_from(["ndarray", "list", "generator"]),
    )
    def test_ewma(self, alpha, initial, seed, cuts, kind):
        values = np.random.default_rng(seed).normal(1.0, 2.0, 300)
        batched = EwmaEstimator(alpha=alpha, initial=initial)
        single = EwmaEstimator(alpha=alpha, initial=initial)
        for chunk in np.split(values, sorted(cuts)):
            returned = batched.update_many(_as_input(chunk, kind))
            for value in chunk.tolist():
                single.update(value)
            assert returned == single.mean
            assert batched._mean == single._mean
            assert batched._variance == single._variance
            assert batched.n_updates == single.n_updates

    @settings(max_examples=60, deadline=None)
    @given(
        threshold=st.sampled_from([0.5, 2.0, 5.0]),
        min_observations=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 300), max_size=4),
        kind=st.sampled_from(["ndarray", "list", "generator"]),
    )
    def test_page_hinkley(self, threshold, min_observations, seed, cuts, kind):
        values = _stream(seed, 300, 0.5)
        settings_ = {"delta": 0.005, "threshold": threshold, "min_observations": min_observations}
        batched = PageHinkleyDetector(**settings_)
        single = PageHinkleyDetector(**settings_)
        for chunk in np.split(values, sorted(cuts)):
            fired = batched.update_many(_as_input(chunk, kind))
            each = [single.update(value) for value in chunk.tolist()]
            assert fired == any(each)
            assert (batched._count, batched._mean, batched._cumulative, batched._minimum) == (
                single._count,
                single._mean,
                single._cumulative,
                single._minimum,
            )


    @pytest.mark.parametrize("min_observations", [2, 3, 5])
    def test_page_hinkley_may_fire_at_exactly_min_observations(self, min_observations):
        stream = [0.0] * (min_observations - 1) + [50.0]
        settings_ = {"delta": 0.0, "threshold": 0.5, "min_observations": min_observations}
        single = PageHinkleyDetector(**settings_)
        assert [single.update(value) for value in stream][-1] is True
        assert PageHinkleyDetector(**settings_).update_many(stream) is True


class _PerValueOnly(DriftDetector):
    """A detector that only defines ``update``: it gets the generic ``update_many``."""

    def __init__(self) -> None:
        self.seen: List[float] = []

    def update(self, value: float) -> bool:
        self.seen.append(value)
        return False

    def reset(self) -> None:
        self.seen.clear()


class TestMatrixInputRejected:
    @pytest.mark.parametrize(
        "values",
        [np.array(1.0), np.ones((3, 4)), np.ones((5, 1))],
        ids=["0-d", "2-d", "column"],
    )
    @pytest.mark.parametrize(
        "factory",
        [MeanShiftDetector, PageHinkleyDetector, EwmaEstimator, _PerValueOnly],
        ids=["mean-shift", "page-hinkley", "ewma", "generic"],
    )
    def test_raises_configuration_error_and_consumes_nothing(self, factory, values):
        target = factory()
        with pytest.raises(ConfigurationError, match="1-D batch"):
            target.update_many(values)
        fresh = factory()
        assert vars(target).keys() == vars(fresh).keys()
        for name, value in vars(fresh).items():
            np.testing.assert_array_equal(getattr(target, name), value)
