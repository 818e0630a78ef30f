"""The streaming evaluation pipeline (drift experiment, Figure 6).

:class:`StreamingPipeline` replays a labelled dataset as a stream of fixed-size
windows through an :class:`~repro.streaming.online_detector.OnlineDetector`,
recording per-window detection metrics.  Comparing an adaptive run against a
static run on the same drifting stream reproduces the online-adaptation
experiment: the static detector's false-positive rate climbs after the drift
point while the adaptive one recovers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro._typing import AnyArray
from repro.eval.metrics import binary_metrics
from repro.exceptions import ConfigurationError
from repro.streaming.online_detector import OnlineDetector
from repro.utils.validation import check_array_2d, check_same_length

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.data.synthetic import KddSyntheticGenerator


@dataclass(frozen=True)
class WindowReport:
    """Metrics for one stream window."""

    window_index: int
    n_records: int
    detection_rate: float
    false_positive_rate: float
    accuracy: float
    drift_detected: bool
    refitted: bool
    effective_scale: float
    #: Wall-clock seconds spent processing the window (scoring + adaptation).
    seconds: float = 0.0

    @property
    def records_per_second(self) -> float:
        """Throughput of this window (0.0 when the clock showed no elapsed time)."""
        return self.n_records / self.seconds if self.seconds > 0 else 0.0


class StreamingPipeline:
    """Replays a labelled record stream through an online detector.

    Parameters
    ----------
    online_detector:
        The wrapped online detector (fitted or warm-up based).
    window_size:
        Number of records per evaluation window.
    """

    def __init__(self, online_detector: OnlineDetector, *, window_size: int = 500) -> None:
        if window_size < 10:
            raise ConfigurationError(f"window_size must be >= 10, got {window_size}")
        self.online_detector = online_detector
        self.window_size = int(window_size)
        self.reports: List[WindowReport] = []

    # ------------------------------------------------------------------ #
    def _iter_windows(
        self, X: AnyArray, y: AnyArray
    ) -> Iterator[Tuple[int, AnyArray, AnyArray]]:
        n_records = X.shape[0]
        for window_index, start in enumerate(range(0, n_records, self.window_size)):
            stop = min(start + self.window_size, n_records)
            yield window_index, X[start:stop], y[start:stop]

    def run(self, X: object, y_true_binary: Sequence[int]) -> List[WindowReport]:
        """Stream ``X`` through the detector window by window and collect metrics.

        Parameters
        ----------
        X:
            Record matrix in stream order.
        y_true_binary:
            Ground-truth binary labels (1 = attack) in the same order.
        """
        matrix = check_array_2d(X, "X")
        truth = np.asarray(y_true_binary, dtype=int)
        check_same_length(matrix, truth, "X", "y_true_binary")
        self.reports = []
        for window_index, window_X, window_y in self._iter_windows(matrix, truth):
            started = time.perf_counter()
            step = self.online_detector.process(window_X)
            elapsed = time.perf_counter() - started
            metrics = binary_metrics(window_y, step.predictions)
            self.reports.append(
                WindowReport(
                    window_index=window_index,
                    n_records=int(window_X.shape[0]),
                    detection_rate=metrics.detection_rate,
                    false_positive_rate=metrics.false_positive_rate,
                    accuracy=metrics.accuracy,
                    drift_detected=step.drift_detected,
                    refitted=step.refitted,
                    effective_scale=step.effective_scale,
                    seconds=elapsed,
                )
            )
        return self.reports

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Aggregate metrics over all processed windows.

        Two aggregate families: the ``mean_*`` keys equal-weight every
        window (per-window trend view, kept for compatibility), while the
        ``weighted_*`` keys weight each window by its record count — the
        per-record view.  The distinction matters because the final window
        is usually ragged: a 17-record tail window would otherwise move the
        stream-level metrics as much as a full 500-record one.
        """
        if not self.reports:
            return {"n_windows": 0}
        total_seconds = float(sum(report.seconds for report in self.reports))
        total_records = sum(report.n_records for report in self.reports)
        weights = np.asarray([report.n_records for report in self.reports], dtype=float)

        def weighted(values: Sequence[float]) -> float:
            return float(np.average(np.asarray(values, dtype=float), weights=weights))

        return {
            "n_windows": len(self.reports),
            "n_records": int(total_records),
            "mean_detection_rate": float(np.mean([report.detection_rate for report in self.reports])),
            "mean_false_positive_rate": float(
                np.mean([report.false_positive_rate for report in self.reports])
            ),
            "mean_accuracy": float(np.mean([report.accuracy for report in self.reports])),
            "weighted_detection_rate": weighted(
                [report.detection_rate for report in self.reports]
            ),
            "weighted_false_positive_rate": weighted(
                [report.false_positive_rate for report in self.reports]
            ),
            "weighted_accuracy": weighted([report.accuracy for report in self.reports]),
            "n_drift_events": sum(1 for report in self.reports if report.drift_detected),
            "n_refits": sum(1 for report in self.reports if report.refitted),
            "total_seconds": total_seconds,
            # Aggregate throughput (total records / total time), not a mean of
            # per-window rates: a mean would equal-weight a 10-record refit
            # window with a 10k-record steady-state one.
            "records_per_second": (
                total_records / total_seconds if total_seconds > 0 else 0.0
            ),
        }


def make_drifting_stream(
    generator_factory: "Callable[[int], KddSyntheticGenerator]",
    *,
    n_before: int = 4000,
    n_after: int = 4000,
    drift_scale: float = 2.0,
    attack_fraction: float = 0.1,
    random_state: int = 0,
) -> Tuple[AnyArray, AnyArray, int]:
    """Build a two-phase stream whose normal traffic drifts halfway through.

    The second half multiplies the volume-related features of *normal*
    records by ``drift_scale`` (heavier but still benign traffic), which is
    the classic benign-drift scenario: a static detector starts flagging the
    new normal as anomalous, an adaptive one re-calibrates.

    Returns
    -------
    (X, y, drift_index):
        The streamed matrix, binary labels, and the row index where drift
        begins.
    """
    from repro.data.preprocess import PreprocessingPipeline
    from repro.data.records import Dataset
    from repro.data.synthetic import KddSyntheticGenerator, DEFAULT_CLASS_MIX

    if n_before < 100 or n_after < 100:
        raise ConfigurationError("both stream phases need at least 100 records")
    generator: KddSyntheticGenerator = generator_factory(random_state)
    # Class mix with the requested attack fraction.
    attack_weight = {
        label: weight
        for label, weight in DEFAULT_CLASS_MIX.items()
        if label != "normal" and label in generator.profiles
    }
    total_attack = sum(attack_weight.values())
    mix: Dict[str, float] = {"normal": 1.0 - attack_fraction}
    mix.update(
        {
            label: attack_fraction * weight / total_attack
            for label, weight in attack_weight.items()
        }
    )
    before = generator.generate(n_before, class_mix=mix)
    after = generator.generate(n_after, class_mix=mix)
    # Apply benign drift to the "after" phase: scale the byte/count volume
    # features of normal records.
    schema = after.schema
    volume = [
        schema.numeric_features.index(name)
        for name in ("src_bytes", "dst_bytes", "count", "srv_count")
    ]
    numeric = after.numeric_matrix().copy()
    numeric[np.ix_(after.categories == "normal", volume)] *= drift_scale
    drifted_after = Dataset(
        numeric, [after.column(name) for name in schema.categorical], after.labels, schema=schema
    )
    combined = before.concat(drifted_after)
    pipeline = PreprocessingPipeline()
    pipeline.fit(before)
    X = pipeline.transform(combined)
    y = combined.is_attack.astype(int)
    return X, y, n_before
