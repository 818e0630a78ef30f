"""Summaries the benchmark reports: medians, tails, batch counts, quality."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a tail may be reported at.  The tail is the highest of these
#: with at least :data:`MIN_BEYOND` samples above it; capping the list at 99
#: keeps a longer run from drifting to a rarer, noisier percentile.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)
MIN_BEYOND = 10


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie above the ``percentile`` rank."""
    return n - math.ceil(n * percentile / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest reportable percentile for ``n`` samples, or ``None`` if too few."""
    eligible = [p for p in TAIL_PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return max(eligible) if eligible else None


def latency_summary(values_ms: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample, with the tail's percentile and the count."""
    values = np.asarray(values_ms, dtype=float)
    n = int(values.shape[0])
    percentile = tail_percentile(n)
    if percentile is None:
        raise ValueError(
            f"{n} samples are too few for a tail: need {MIN_BEYOND} beyond the median"
        )
    return {
        "p50_ms": float(np.percentile(values, 50.0)),
        "tail_ms": float(np.percentile(values, percentile)),
        "tail_percentile": percentile,
        "n": n,
    }


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


#: A run is cut into this many equal stretches of time; each reported
#: figure is the median over the stretches, so one stall or one slow spell
#: of a shared host moves at most one of them.
WINDOWS = 8


def windowed_summary(
    at: Sequence[float], latency_ms: Sequence[float], records: Sequence[int], start: float, seconds: float
) -> Dict[str, float]:
    """Median over :data:`WINDOWS` time windows of p50, tail and records per second.

    ``at[i]`` places unit ``i`` in a window (its completion or due time);
    units past the end of the run fall in the last window.
    """
    at_arr = np.asarray(at, dtype=float)
    latency = np.asarray(latency_ms, dtype=float)
    counts = np.asarray(records, dtype=float)
    width = seconds / WINDOWS
    which = np.clip(((at_arr - start) // width).astype(int), 0, WINDOWS - 1)
    groups = [latency[which == w] for w in range(WINDOWS)]
    percentile = tail_percentile(min(group.shape[0] for group in groups))
    if percentile is None:
        raise ValueError(f"too few samples per window for a tail: {[g.shape[0] for g in groups]}")
    # The last window runs until the last unit ended, which may be past the deadline.
    widths = [width] * (WINDOWS - 1) + [max(width, float(at_arr.max()) - start - (WINDOWS - 1) * width)]
    return {
        "records_per_s": median(counts[which == w].sum() / widths[w] for w in range(WINDOWS)),
        "p50_ms": median(np.percentile(group, 50.0) for group in groups),
        "tail_ms": median(np.percentile(group, percentile) for group in groups),
        "tail_percentile": percentile,
        "n": int(latency.shape[0]),
    }


def best_of_passes(keys: Sequence[int], latency_ms: Sequence[float], records: Sequence[int]) -> Dict[str, float]:
    """Each unit's best time over the passes of a run: p50, tail and records per second.

    A run repeats the same units of work (``keys[i]`` names the unit of
    sample ``i``) pass after pass.  Keeping every unit's fastest repetition
    drops the time it lost to a slow spell of a shared host, so the figures
    describe the program at the host's full speed and their spread over
    units comes from the input alone.  ``records_per_s`` is the records of
    one pass over the sum of the units' best times.
    """
    best: Dict[int, float] = {}
    size: Dict[int, int] = {}
    for key, ms, n in zip(keys, latency_ms, records):
        best[key] = min(ms, best.get(key, math.inf))
        if size.setdefault(key, n) != n:
            raise ValueError(f"unit {key} holds {n} records in one pass and {size[key]} in another")
    times = np.array([best[key] for key in sorted(best)])
    summary = latency_summary(times)
    summary["records_per_s"] = float(sum(size.values()) / (times.sum() / 1e3))
    return summary


def exact_batches(rows: Sequence[int], batch_rows: Sequence[int]) -> float:
    """Number of server batches, from each request's rows and its batch's size.

    A batch of ``B`` rows is shared by requests whose rows sum to ``B``, so
    summing ``rows_i / batch_rows_i`` over the requests counts each batch
    exactly once, provided every request of the batch is included.
    """
    rows_arr = np.asarray(rows, dtype=float)
    batch_arr = np.asarray(batch_rows, dtype=float)
    if rows_arr.shape != batch_arr.shape:
        raise ValueError("rows and batch_rows must align")
    if np.any(batch_arr < rows_arr):
        raise ValueError("a request cannot hold more rows than its batch")
    return float(np.sum(rows_arr / batch_arr))


def scores_sha256(scores: np.ndarray) -> str:
    """SHA-256 of the float64 score bytes, a fingerprint of detection behaviour."""
    return hashlib.sha256(np.ascontiguousarray(scores, dtype=np.float64).tobytes()).hexdigest()


def quality(y_true: Sequence[int], predictions: Sequence[int], scores: Sequence[float]) -> Dict[str, float]:
    """Detection quality of one pass: AUC, detection rate, specificity and false-positive rate.

    Specificity (one minus the false-positive rate) is the figure the
    benchmark bounds: false alarms cluster in a few sessions of a trace, so
    their rate moves by a quarter between seeds while specificity moves by
    well under one percent.
    """
    from repro.eval.metrics import binary_metrics, roc_auc

    metrics = binary_metrics(y_true, predictions)
    return {
        "auc": float(roc_auc(y_true, scores)),
        "detection_rate": float(metrics.detection_rate),
        "specificity": 1.0 - float(metrics.false_positive_rate),
        "false_positive_rate": float(metrics.false_positive_rate),
    }


#: Largest relative score difference accepted between a coalesced gateway
#: reply and a direct ``detect`` of the same rows.  Coalescing changes the
#: BLAS blocking of the distance product, which moves a score by a few ULP
#: of the squared norms; after the square root that is far below 1e-9
#: relative (the largest difference seen while sizing the benchmark was
#: about 3e-12).
SCORE_RTOL = 1e-9


def scores_close(got: np.ndarray, want: np.ndarray) -> Tuple[bool, float]:
    """Whether ``got`` matches ``want`` within :data:`SCORE_RTOL`; also the worst ratio."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False, math.inf
    scale = np.maximum(np.abs(want), 1.0)
    worst = float(np.max(np.abs(got - want) / scale)) if got.size else 0.0
    return worst <= SCORE_RTOL, worst
