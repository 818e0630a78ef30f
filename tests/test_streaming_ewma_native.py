"""The native EWMA fold against the Python recurrence, bit for bit.

On the fused engine :meth:`EwmaEstimator.update_many` folds a batch in the C
library (:func:`repro.core.kernels.ewma_update`); on a host without the
kernel, and from the first NaN observation on, the Python loop folds it.
``python_recurrence`` below is that loop written out once more, one Python
float at a time: every mean, variance, returned mean and update count must
match it in every bit, for any alpha in (0, 1], with or without an initial
mean, over empty, one-value and multi-batch sequences holding NaN (any
payload), infinities, subnormals and magnitudes up to the float64 limit.
The same properties run under ``compilerless_host``, where the loop alone
folds.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.streaming import window
from repro.streaming.window import EwmaEstimator

State = Tuple[Optional[float], float, int]


def python_recurrence(
    batches: Sequence[Sequence[float]], alpha: float, initial: Optional[float]
) -> Iterator[State]:
    """``(mean, variance, n_updates)`` after each batch, value by value."""
    mean = None if initial is None else float(initial)
    variance = 0.0
    n_updates = 0
    decay = 1.0 - alpha
    for batch in batches:
        for value in batch:
            if mean is None:
                mean = value
            else:
                delta = value - mean
                mean = mean + alpha * delta
                variance = decay * (variance + alpha * delta * delta)
            n_updates += 1
        yield mean, variance, n_updates


def bits(value: Optional[float]) -> Optional[bytes]:
    return None if value is None else struct.pack("<d", value)


def _nan(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


#: Values that stress the recurrence: NaNs with other signs and payloads
#: (the default NaN an invalid operation makes is negative), infinities,
#: the subnormal range and its edges, and magnitudes whose squares overflow.
SPECIAL_VALUES = [
    float("nan"),
    _nan(0xFFF8000000000000),
    _nan(0x7FF8000000000123),
    _nan(0x7FF0000000000001),  # signalling
    float("inf"),
    -float("inf"),
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # the largest subnormal
    2.2250738585072014e-308,  # the smallest normal
    1e-310,
    0.0,
    -0.0,
    1e300,
    -1e300,
    1.7976931348623157e308,
]

values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from(SPECIAL_VALUES),
    st.floats(),
)
alphas = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([1.0, 0.5, 0.02, 5e-324, 1e-300, 0.9999999999999999]),
)
initials = st.one_of(st.none(), st.floats(), st.sampled_from(SPECIAL_VALUES))
batch_lists = st.lists(st.lists(values, max_size=40), max_size=6)
kinds = st.sampled_from(["ndarray", "strided", "list"])


def _as_input(batch: List[float], kind: str) -> object:
    if kind == "ndarray":
        return np.array(batch, dtype=np.float64)
    if kind == "strided":
        doubled = np.repeat(np.array(batch, dtype=np.float64), 2)
        return doubled[::2]  # a non-contiguous float64 view
    return list(batch)


def _assert_folds_like_the_recurrence(batches, alpha, initial, kind) -> None:
    estimator = EwmaEstimator(alpha=alpha, initial=initial)
    for batch, (mean, variance, n_updates) in zip(
        batches, python_recurrence(batches, alpha, initial), strict=True
    ):
        returned = estimator.update_many(_as_input(batch, kind))
        assert bits(estimator._mean) == bits(mean)
        assert bits(estimator._variance) == bits(variance)
        assert estimator.n_updates == n_updates
        assert bits(returned) == bits(0.0 if mean is None else mean)


EWMA_SETTINGS = {"max_examples": 300, "deadline": None}


class TestHostEngine:
    """Natively folded on a fused host, by the loop elsewhere."""

    @settings(**EWMA_SETTINGS)
    @given(batches=batch_lists, alpha=alphas, initial=initials, kind=kinds)
    def test_folds_bit_for_bit_like_the_recurrence(self, batches, alpha, initial, kind):
        _assert_folds_like_the_recurrence(batches, alpha, initial, kind)

    def test_the_fused_engine_folds_natively(self, monkeypatch):
        calls = []
        native = kernels.ewma_update

        def counting(*args):
            calls.append(args)
            return native(*args)

        monkeypatch.setattr(kernels, "ewma_update", counting)
        estimator = EwmaEstimator(alpha=0.1)
        estimator.update_many(np.linspace(0.0, 1.0, 450))
        assert len(calls) == (1 if kernels.host_engine() == "fused" else 0)

    @pytest.mark.skipif(
        kernels.host_engine() != "fused",
        reason=f"no fused kernel: {kernels.fused_build_error()}",
    )
    def test_the_native_fold_stops_at_the_first_nan(self):
        batch = np.array([1.0, 2.0, float("nan"), 3.0])
        folded, mean, variance = kernels.ewma_update(batch, 0.5, 0.0, 0.0)
        assert folded == 2
        reference = list(python_recurrence([[0.0, 1.0, 2.0]], 0.5, None))[-1]
        assert (bits(mean), bits(variance)) == (bits(reference[0]), bits(reference[1]))


@pytest.mark.usefixtures("compilerless_host")
class TestCompilerlessHost:
    """The loop alone folds where the kernel did not build."""

    @settings(**EWMA_SETTINGS)
    @given(batches=batch_lists, alpha=alphas, initial=initials, kind=kinds)
    def test_folds_bit_for_bit_like_the_recurrence(self, batches, alpha, initial, kind):
        assert kernels.host_engine() == "numpy"
        _assert_folds_like_the_recurrence(batches, alpha, initial, kind)

    def test_the_kernel_is_not_called(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the native fold ran on a host without the kernel")

        monkeypatch.setattr(window.kernels, "ewma_update", refuse)
        EwmaEstimator(alpha=0.1).update_many(np.linspace(0.0, 1.0, 450))
