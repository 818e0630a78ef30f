"""The batched drift/EWMA updates against their one-value-at-a-time definitions.

``PerValueMeanShift`` below is the straightforward mean-shift test: two
sliding windows, the reference fills first, then each new value enters the
recent window and the value it evicts graduates into the reference, and the
test runs whenever the recent window is full.  It costs two array copies and
three reductions per value but is obviously right, so it serves as the
oracle: ``MeanShiftDetector`` must fire on exactly the same values and end
every batch with the same window contents.

``RowReductionMeanShift`` is the second oracle: the batched detector as it
was before the prefix-sum screen, which tested every window of a batch with
row-wise means and standard deviations.  The screen may only skip windows
that cannot fire, so both oracles must agree with it on every input,
including values that break prefix sums (NaN, infinities, squares that
overflow, constant runs, spikes, gaps one ulp from the threshold).
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError
from repro.streaming import drift
from repro.streaming.drift import DriftDetector, MeanShiftDetector, PageHinkleyDetector
from repro.streaming.window import EwmaEstimator, SlidingWindow, scalar_batch

#: Values per block of windows in ``RowReductionMeanShift`` (as it was written).
_BLOCK_VALUES = 1 << 17


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


class RowReductionMeanShift(MeanShiftDetector):
    """:class:`MeanShiftDetector` before the prefix-sum screen, kept verbatim.

    It tests every window of a batch with row-wise ``mean``/``std`` over a
    sliding window view.  It is the second oracle here and the baseline of
    ``test_screened_drift_beats_row_reductions`` in ``test_speed_ratios``.
    """

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


def _assert_matches_oracles(batches: Sequence[np.ndarray], **sizes: float) -> List[bool]:
    """Feed ``batches`` to the detector, batched and value by value, and to both oracles.

    Every batch must give the same ``fired`` and leave the same windows in
    all four; returns the oracle's per-value alarms.
    """
    batched, single = MeanShiftDetector(**sizes), MeanShiftDetector(**sizes)
    rows, oracle = RowReductionMeanShift(**sizes), PerValueMeanShift(**sizes)
    alarms: List[bool] = []
    for values in batches:
        expected = oracle.update_each(values)
        alarms.extend(expected)
        assert batched.update_many(values) == any(expected)
        assert rows.update_many(values) == any(expected)
        assert [single.update(value) for value in values.tolist()] == expected
        for detector in (batched, single, rows):
            _assert_same_windows(detector, oracle)
    return alarms


def _split(values: np.ndarray, cuts: Sequence[float]) -> List[np.ndarray]:
    """``values`` cut at the given fractions of its length."""
    return np.split(values, sorted(int(cut * values.size) for cut in cuts))


def _decision_boundary(fires: Callable[[float], bool], guess: float) -> Tuple[float, float]:
    """Adjacent floats ``quiet < loud`` where the monotone ``fires`` turns true."""
    width = max(abs(guess), 1e-300) * 1e-12
    quiet, loud = guess - width, guess + width
    while fires(quiet):
        width *= 2.0
        quiet -= width
    while not fires(loud):
        width *= 2.0
        loud += width
    while True:
        middle = quiet + (loud - quiet) / 2.0
        if middle in (quiet, loud):
            return quiet, loud
        if fires(middle):
            loud = middle
        else:
            quiet = middle


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

    @pytest.mark.parametrize("reference_size,recent_size", [(2, 2), (5, 3), (13, 4)])
    def test_every_batch_split_with_two_row_blocks_matches_both_oracles(
        self, reference_size, recent_size, monkeypatch
    ):
        # The sweep above with a screen block of two windows (and an exact
        # block of one): a screen block edge sits between every two windows.
        span = reference_size + recent_size
        monkeypatch.setattr(drift, "_BLOCK_VALUES", span + 1)
        rng = np.random.default_rng(span)
        values = rng.normal(0.0, 1.0, 160)
        values[rng.choice(160, size=12, replace=False)] += 12.0
        sizes = {"reference_size": reference_size, "recent_size": recent_size, "sensitivity": 2.0}
        expected = PerValueMeanShift(**sizes).update_each(values)
        assert 0 < sum(expected) < len(values) // 2
        for lo in range(len(values)):
            for hi in range(lo, min(len(values), lo + 2 * span) + 1):
                detector, rows = MeanShiftDetector(**sizes), RowReductionMeanShift(**sizes)
                for cut in (slice(0, lo), slice(lo, hi)):
                    part = values[cut]
                    assert detector.update_many(part) == rows.update_many(part) == any(expected[cut])
                np.testing.assert_array_equal(detector._history, rows._history)

    @settings(max_examples=40, deadline=None)
    @given(
        reference_size=st.integers(2, 40),
        recent_size=st.integers(2, 20),
        poison=st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 1.5e154]),
        position=st.floats(0.0, 1.0),
        two_row_blocks=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=2),
    )
    def test_value_that_breaks_prefix_sums_inside_a_long_batch(
        self, reference_size, recent_size, poison, position, two_row_blocks, seed, cuts
    ):
        # One poisoned value early in the stream, then a real +8 shift once it
        # has left every window: the windows after it must still be tested.
        span = reference_size + recent_size
        values = np.random.default_rng(seed).normal(0.0, 1.0, 8 * span)
        at = int(position * 2 * span)
        values[at] = poison
        values[at + 3 * span :] += 8.0
        sizes = {"reference_size": reference_size, "recent_size": recent_size, "sensitivity": 3.0}
        with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
            if two_row_blocks:
                patch.setattr(drift, "_BLOCK_VALUES", span + 1)
            alarms = _assert_matches_oracles(_split(values, cuts), **sizes)
        assert any(alarms[at + 3 * span :])

    @settings(max_examples=40, deadline=None)
    @given(
        reference_size=st.integers(2, 40),
        recent_size=st.integers(2, 20),
        levels=st.lists(
            st.sampled_from([0.0, 1e-6, 0.1, 1.0 / 3.0, 7.0, 1e6, -2.5e9]), min_size=1, max_size=4
        ),
        run=st.integers(1, 3),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    def test_constant_runs(self, reference_size, recent_size, levels, run, cuts):
        # A constant reference has std 0, so the 1e-9 floor sets the
        # threshold; a step up to the next level fires, a step down does not.
        span = reference_size + recent_size
        values = np.repeat(levels, run * span)
        _assert_matches_oracles(
            _split(values, cuts),
            reference_size=reference_size,
            recent_size=recent_size,
            sensitivity=3.0,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        reference_size=st.integers(2, 60),
        recent_size=st.integers(2, 30),
        spikes=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    def test_spike_among_tiny_values(self, reference_size, recent_size, spikes, seed, cuts):
        # A 1e6 spike makes every prefix-sum error bound of its block dwarf
        # the 1e-6 values around it.
        span = reference_size + recent_size
        rng = np.random.default_rng(seed)
        values = 1e-6 * (1.0 + 0.1 * rng.normal(0.0, 1.0, 5 * span))
        values[rng.choice(values.size, size=spikes, replace=False)] = 1e6
        values[3 * span :] += 1e-6
        _assert_matches_oracles(
            _split(values, cuts),
            reference_size=reference_size,
            recent_size=recent_size,
            sensitivity=3.0,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        reference_size=st.integers(2, 60),
        recent_size=st.integers(2, 30),
        sensitivity=st.sampled_from([0.5, 1.0, 3.0]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        level=st.sampled_from([0.0, 1.0, -40.0, 1e3]),
        noise=st.sampled_from([0.0, 1.0]),
        lead_scale=st.sampled_from([1.0, 1e4]),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=2),
    )
    def test_gap_one_ulp_either_side_of_the_threshold(
        self, reference_size, recent_size, sensitivity, scale, level, noise, lead_scale, seed, cuts
    ):
        # The last value is the pair of adjacent floats between which the
        # last window's gap crosses the threshold, as the per-value test
        # computes both: the lower one must not fire, the upper one must.
        # Without noise the reference is constant and the 1e-9 floor sets
        # the threshold; a large lead makes the screen's sums in the same
        # block lose precision.
        rng = np.random.default_rng(seed)
        lead = scale * lead_scale * (level + rng.normal(0.0, 1.0, int(rng.integers(0, 100))))
        reference = scale * (level + noise * rng.normal(0.0, 1.0, reference_size))
        recent = scale * (level + noise * rng.normal(0.0, 1.0, recent_size - 1))
        reference_mean = float(np.mean(reference))
        threshold = sensitivity * max(float(np.std(reference)), 1e-9)

        def fires(last: float) -> bool:
            return float(np.mean(np.append(recent, last))) - reference_mean > threshold

        guess = recent_size * (reference_mean + threshold) - float(np.sum(recent))
        quiet, loud = _decision_boundary(fires, guess)
        assert np.nextafter(quiet, np.inf) == loud
        sizes = {
            "reference_size": reference_size,
            "recent_size": recent_size,
            "sensitivity": sensitivity,
        }
        for last, fired in ((quiet, False), (loud, True)):
            values = np.concatenate((lead, reference, recent, [last]))
            alarms = _assert_matches_oracles(_split(values, cuts), **sizes)
            assert alarms[-1] is fired

    @pytest.mark.parametrize("level,lead", [(1e5, 600), (3e5, 1000), (1e5, 2000)])
    def test_far_higher_level_earlier_in_the_same_block(self, level, lead):
        # A falling run at ``level``, then zeros: the block's middle value is
        # 0, so the prefix sums still hold about ``lead * level`` at the last
        # window, and rounding drops most of its last value.  That window's
        # gap sits one ulp either side of the floored threshold 3e-9; only
        # the screen's own summation term of the bound keeps it.
        sizes = {"reference_size": 4, "recent_size": 2, "sensitivity": 3.0}
        threshold = 3.0 * 1e-9
        quiet, loud = _decision_boundary(
            lambda last: float(np.mean([0.0, last])) > threshold, 2.0 * threshold
        )
        for last, fired in ((quiet, False), (loud, True)):
            values = np.concatenate(
                (level * np.linspace(2.0, 1.0, lead), np.zeros(lead + 1000), [last])
            )
            alarms = _assert_matches_oracles([values], **sizes)
            assert alarms[-1] is fired
            assert not any(alarms[:-1])

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
