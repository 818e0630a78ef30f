"""The online (streaming) anomaly detector.

:class:`OnlineDetector` wraps any fitted batch detector from this library and
adds the machinery a long-running deployment needs:

* **adaptive threshold scaling** — an EWMA of the scores of records the
  detector currently believes are normal; as benign traffic slowly drifts,
  the effective alarm threshold follows it;
* **drift-triggered refitting** — a drift detector watches the same benign
  score stream; when it fires, the detector is refitted from a sliding buffer
  of recent records (self-supervised: the records the detector itself judged
  normal), which restores accuracy after genuine distribution change;
* **bounded memory** — only the sliding buffer (kept under ``"refit"``) and a
  handful of scalars are kept, regardless of how long the stream runs.

The design mirrors the adaptive/online extensions proposed for GHSOM-based
intrusion detection: the base model stays a GHSOM; adaptation happens in the
thresholding and through periodic retraining on recent traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, cast

import numpy as np

from repro._typing import AnyArray
from repro.core.detector import BaseAnomalyDetector, alarm_decisions
from repro.exceptions import ConfigurationError, NotFittedError
from repro.streaming.drift import DriftDetector, MeanShiftDetector
from repro.streaming.window import EwmaEstimator, SlidingMatrixWindow
from repro.utils.validation import check_array_2d

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.serving.config import ServingConfig


@dataclass
class OnlineStepResult:
    """Outcome of processing one batch of streamed records."""

    predictions: AnyArray
    scores: AnyArray
    drift_detected: bool
    refitted: bool
    effective_scale: float
    #: Best-effort class label per record from the wrapped detector's single
    #: detection pass (``None`` during warm-up).  Labels use the detector's
    #: nominal threshold of 1.0; ``predictions`` above applies the adaptive
    #: scale on top, so a drifted-but-benign record can be labelled with a
    #: class yet not alarm.
    categories: Optional[List[str]] = None
    extra: Dict[str, object] = field(default_factory=dict)


class OnlineDetector:
    """Streaming wrapper around a batch anomaly detector.

    Parameters
    ----------
    detector:
        A fitted (or at least constructed) detector following the
        :class:`~repro.core.detector.BaseAnomalyDetector` contract.  If it is
        not fitted yet, the first ``warmup_size`` streamed records are used to
        fit it.
    buffer_size:
        Capacity of the sliding buffer of recent benign records used for
        refitting.
    adaptation:
        ``"threshold"`` (default) adapts only the score scale,
        ``"refit"`` additionally refits the base detector when drift is
        detected, ``"none"`` disables adaptation (the static baseline in the
        drift experiment).  Fixed for the detector's lifetime: only
        ``"refit"`` keeps the buffer of benign records a refit trains on.
    ewma_alpha:
        Smoothing factor of the benign-score EWMA.
    drift_detector:
        Drift detector instance (defaults to :class:`MeanShiftDetector`).
    warmup_size:
        Number of initial records used to fit an unfitted detector.
    """

    def __init__(
        self,
        detector: BaseAnomalyDetector,
        *,
        buffer_size: int = 2000,
        adaptation: str = "threshold",
        ewma_alpha: float = 0.02,
        drift_detector: Optional[DriftDetector] = None,
        warmup_size: int = 1000,
    ) -> None:
        if adaptation not in ("none", "threshold", "refit"):
            raise ConfigurationError(
                f"adaptation must be 'none', 'threshold' or 'refit', got {adaptation!r}"
            )
        if buffer_size < 10:
            raise ConfigurationError(f"buffer_size must be >= 10, got {buffer_size}")
        if warmup_size < 10:
            raise ConfigurationError(f"warmup_size must be >= 10, got {warmup_size}")
        self.detector = detector
        self.buffer_size = int(buffer_size)
        self._adaptation = adaptation
        self.warmup_size = int(warmup_size)
        self.score_ewma = EwmaEstimator(alpha=ewma_alpha)
        self.drift_detector = drift_detector or MeanShiftDetector()
        self._buffer = SlidingMatrixWindow(self.buffer_size)
        self._warmup: List[AnyArray] = []
        self._is_warmed_up = self._detector_is_fitted()
        self.n_processed = 0
        self.n_refits = 0
        self.n_drift_events = 0

    # ------------------------------------------------------------------ #
    def _detector_is_fitted(self) -> bool:
        fitted = getattr(self.detector, "is_fitted", None)
        return bool(fitted) if fitted is not None else False

    @property
    def adaptation(self) -> str:
        """``"none"``, ``"threshold"`` or ``"refit"``, as constructed.

        Read-only: the refit buffer is filled only under ``"refit"``, so a
        mode switched on later would refit from an empty buffer.
        """
        return self._adaptation

    @property
    def is_ready(self) -> bool:
        """Whether the wrapped detector is fitted and scoring."""
        return self._is_warmed_up

    @property
    def serving_config(self) -> "Optional[ServingConfig]":
        """The wrapped detector's :class:`~repro.serving.ServingConfig`.

        ``None`` for detectors outside the config layer (baselines).  The
        config is carried by the detector itself, so it survives
        drift-triggered refits unchanged: ``GhsomDetector.fit`` keeps the
        full serving setup — sharding, artifact options — for the newly
        compiled model, and the next ``process`` batch serves with the exact
        same plan as before the refit.
        """
        return cast(
            "Optional[ServingConfig]", getattr(self.detector, "serving_config", None)
        )

    def _effective_scale(self) -> float:
        """Multiplier applied to the nominal threshold of 1.0.

        The scale tracks the EWMA of benign scores: if benign traffic slowly
        drifts to higher raw scores, the scale grows with it (never below 1.0
        so a freshly calibrated detector is unchanged).
        """
        if self._adaptation == "none" or self.score_ewma.n_updates < 10:
            return 1.0
        # Benign scores sit well below 1.0 right after calibration; track
        # their mean + 3 sigma as the new "edge of normal".
        adapted = self.score_ewma.mean + 3.0 * self.score_ewma.std
        return float(max(1.0, adapted))

    # ------------------------------------------------------------------ #
    def process(self, batch: object) -> OnlineStepResult:
        """Process one batch of streamed records and return decisions plus bookkeeping."""
        t_start = perf_counter()
        matrix = check_array_2d(batch, "batch")
        self.n_processed += matrix.shape[0]
        if not self._is_warmed_up:
            return self._warmup_step(matrix)
        return self._scoring_step(matrix, t_start)

    def _scoring_step(self, matrix: AnyArray, t_start: float) -> OnlineStepResult:
        """Score one batch with the fitted detector and run the adaptation loop.

        ``t_start`` is when validation of ``matrix`` began, so the
        detector's ingest timing still covers the one scan.
        """
        # Single-pass serving: one detection pass yields scores *and* class
        # labels (for GhsomDetector that is one tree descent total).  The
        # batch was validated in `process`, so a library detector skips its
        # own scan; any other object, including a wrapper that forwards
        # attributes to a detector, is called through its public `detect`.
        if isinstance(self.detector, BaseAnomalyDetector):
            detection = self.detector._detect_validated(matrix, t_start=t_start)
        else:
            detection = self.detector.detect(matrix)
        scores = np.asarray(detection.scores, dtype=float)
        scale = self._effective_scale()
        # The shared decision rule: strictly above the (scaled) threshold
        # alarms, so a score exactly on the boundary gets the same verdict
        # here as on the batch `predict` path (`alarm_decisions` is the
        # single source of truth for the comparison).
        predictions = alarm_decisions(scores, scale)
        drift_detected = False
        refitted = False
        benign_mask = predictions == 0
        benign_scores = scores[benign_mask]
        if benign_scores.size:
            self.score_ewma.update_many(benign_scores)
            drift_detected = self.drift_detector.update_many(benign_scores)
        refitting = self._adaptation == "refit"
        if refitting:
            self._buffer.extend(matrix[benign_mask])
        if drift_detected:
            self.n_drift_events += 1
            self.drift_detector.reset()
            if refitting and len(self._buffer) >= 100:
                self._refit_from_buffer()
                refitted = True
        return OnlineStepResult(
            predictions=predictions,
            scores=scores,
            drift_detected=drift_detected,
            refitted=refitted,
            effective_scale=scale,
            categories=detection.categories,
        )

    def _warmup_step(self, matrix: AnyArray) -> OnlineStepResult:
        """Accumulate warm-up records; fit the detector once enough arrived.

        The batch that completes warm-up is *not* reported as all-normal
        zeros: the detector is fitted inside this very call, so the batch is
        immediately scored with it and real predictions / scores / categories
        are returned (flagged with ``extra["warmup_completed"]``).  Only
        batches that leave the detector still unfitted get the placeholder
        all-normal result.
        """
        self._warmup.append(matrix)
        total = sum(block.shape[0] for block in self._warmup)
        if total >= self.warmup_size:
            warmup_matrix = np.concatenate(self._warmup, axis=0)
            self.detector.fit(warmup_matrix)
            self._warmup = []
            self._is_warmed_up = True
            result = self._scoring_step(matrix, perf_counter())
            result.extra["warmup_completed"] = True
            return result
        # Still warming up: everything is reported as normal (no model yet).
        return OnlineStepResult(
            predictions=np.zeros(matrix.shape[0], dtype=int),
            scores=np.zeros(matrix.shape[0]),
            drift_detected=False,
            refitted=False,
            effective_scale=1.0,
            extra={"warming_up": True},
        )

    # ------------------------------------------------------------------ #
    def _refit_from_buffer(self) -> None:
        """Refit the wrapped detector on the recent benign buffer and reset adaptation."""
        buffer_matrix = self._buffer.values()
        self.detector.fit(buffer_matrix)
        self.n_refits += 1
        self.score_ewma = EwmaEstimator(alpha=self.score_ewma.alpha)

    # ------------------------------------------------------------------ #
    def predict(self, batch: object) -> AnyArray:
        """Decisions only (convenience wrapper around :meth:`process`)."""
        return self.process(batch).predictions

    def score_samples(self, batch: object) -> AnyArray:
        """Scores from the wrapped detector without updating any online state.

        The detector validates the batch; nothing here changes state first.
        """
        if not self._is_warmed_up:
            raise NotFittedError("OnlineDetector is still warming up")
        return np.asarray(self.detector.score_samples(batch), dtype=float)
