"""Tests for repro.streaming.online_detector and repro.streaming.pipeline."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.kmeans import KMeansDetector
from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.core.detector import GhsomDetector
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import ConfigurationError, NotFittedError
from repro.streaming.drift import MeanShiftDetector
from repro.streaming.online_detector import OnlineDetector
from repro.streaming.pipeline import StreamingPipeline, make_drifting_stream


@pytest.fixture(scope="module")
def stream_setup():
    """A fitted detector plus a preprocessed traffic stream with known labels."""
    generator = KddSyntheticGenerator(random_state=31)
    normal = generator.generate_normal(800)
    pipeline = PreprocessingPipeline().fit(normal)
    config = GhsomConfig(
        tau1=0.35,
        tau2=0.1,
        max_depth=2,
        max_map_size=49,
        training=SomTrainingConfig(epochs=4),
        random_state=0,
    )
    detector = GhsomDetector(config, random_state=0).fit(pipeline.transform(normal))
    stream = generator.generate(1200)
    X = pipeline.transform(stream)
    y = stream.is_attack.astype(int)
    return detector, X, y


class TestOnlineDetectorBasics:
    def test_invalid_parameters_rejected(self, stream_setup):
        detector, _, _ = stream_setup
        with pytest.raises(ConfigurationError):
            OnlineDetector(detector, adaptation="quantum")
        with pytest.raises(ConfigurationError):
            OnlineDetector(detector, buffer_size=1)
        with pytest.raises(ConfigurationError):
            OnlineDetector(detector, warmup_size=1)

    def test_process_returns_decisions(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        result = online.process(X[:100])
        assert result.predictions.shape == (100,)
        assert result.scores.shape == (100,)
        assert set(np.unique(result.predictions)).issubset({0, 1})

    def test_attacks_detected_online(self, stream_setup):
        detector, X, y = stream_setup
        online = OnlineDetector(detector, adaptation="threshold")
        predictions = np.concatenate(
            [online.process(X[start : start + 200]).predictions for start in range(0, 1200, 200)]
        )
        attack_recall = predictions[y == 1].mean()
        assert attack_recall > 0.8

    def test_score_samples_does_not_update_state(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        before = online.score_ewma.n_updates
        online.score_samples(X[:50])
        assert online.score_ewma.n_updates == before

    def test_n_processed_counter(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        online.process(X[:100])
        online.process(X[100:150])
        assert online.n_processed == 150


class TestWarmup:
    def test_unfitted_detector_warms_up_then_scores(self, stream_setup):
        _, X, _ = stream_setup
        fresh = KMeansDetector(n_clusters=20, random_state=0)
        online = OnlineDetector(fresh, warmup_size=200)
        first = online.process(X[:150])
        assert first.extra.get("warming_up")
        assert not online.is_ready
        second = online.process(X[150:400])
        assert second.extra.get("warmup_completed")
        assert online.is_ready
        third = online.process(X[400:500])
        assert not third.extra.get("warming_up")

    def test_completing_batch_is_scored_with_fresh_detector(self, stream_setup):
        _, X, _ = stream_setup
        fresh = KMeansDetector(n_clusters=20, random_state=0)
        online = OnlineDetector(fresh, warmup_size=200)
        online.process(X[:150])
        completing = online.process(X[150:400])
        # The detector was fitted inside this very call, so the batch must
        # carry real scores — not the all-normal placeholder zeros.
        assert completing.extra.get("warmup_completed")
        assert not completing.extra.get("warming_up")
        assert np.any(completing.scores > 0.0)
        assert completing.categories is not None
        assert len(completing.categories) == 250
        # ...and the scores are exactly what the fitted detector reports.
        np.testing.assert_array_equal(
            completing.scores, fresh.detect(X[150:400]).scores
        )

    def test_completing_batch_updates_adaptation_state(self, stream_setup):
        _, X, _ = stream_setup
        online = OnlineDetector(KMeansDetector(n_clusters=20, random_state=0), warmup_size=100)
        result = online.process(X[:120])
        assert result.extra.get("warmup_completed")
        # Benign records of the completing batch already feed the EWMA/buffer.
        assert online.score_ewma.n_updates > 0

    def test_score_samples_during_warmup_raises(self, stream_setup):
        _, X, _ = stream_setup
        online = OnlineDetector(KMeansDetector(n_clusters=10, random_state=0), warmup_size=500)
        online.process(X[:100])
        with pytest.raises(NotFittedError):
            online.score_samples(X[:10])


class TestBoundaryDecisionAlignment:
    """The batch and streaming paths share one decision rule.

    Both go through :func:`repro.core.detector.alarm_decisions`: a score
    *strictly above* the threshold alarms, so a score sitting exactly on the
    boundary is "normal" on every path.
    """

    class _ConstantScoreDetector:
        """Stub detector returning a fixed score vector (is_fitted duck-typing)."""

        is_fitted = True

        def __init__(self, scores):
            self._scores = np.asarray(scores, dtype=float)

        def fit(self, X, y=None):
            return self

        def score_samples(self, X):
            return self._scores[: np.asarray(X).shape[0]]

        def predict(self, X):
            from repro.core.detector import alarm_decisions

            return alarm_decisions(self.score_samples(X))

        def detect(self, X):
            from repro.core.detector import DetectionResult, alarm_decisions

            scores = self.score_samples(X)
            predictions = alarm_decisions(scores)
            return DetectionResult(
                scores=scores,
                predictions=predictions,
                categories=["anomaly" if flag else "normal" for flag in predictions],
            )

    def test_score_exactly_at_threshold_is_normal_on_both_paths(self):
        from repro.core.detector import alarm_decisions

        scores = np.array([0.5, 1.0, 1.0 + 1e-12, 2.0])
        stub = self._ConstantScoreDetector(scores)
        batch = np.zeros((4, 3))
        batch_decisions = stub.predict(batch)
        online = OnlineDetector(stub, adaptation="none")
        streaming_decisions = online.process(batch).predictions
        expected = [0, 0, 1, 1]  # exactly-at-threshold does NOT alarm
        assert batch_decisions.tolist() == expected
        assert streaming_decisions.tolist() == expected
        assert alarm_decisions(scores).tolist() == expected

    def test_score_exactly_at_adaptive_scale_is_normal(self):
        stub = self._ConstantScoreDetector(np.array([1.3]))
        online = OnlineDetector(stub, adaptation="threshold")
        # Force a known adaptive scale and verify the strict comparison.
        online._effective_scale = lambda: 1.3
        result = online.process(np.zeros((1, 3)))
        assert result.effective_scale == 1.3
        assert result.predictions.tolist() == [0]

    def test_ghsom_boundary_score_agrees_between_batch_and_stream(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector, adaptation="none")
        step = online.process(X[:200])
        np.testing.assert_array_equal(step.predictions, detector.predict(X[:200]))


class TestAdaptation:
    def test_static_mode_keeps_scale_at_one(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector, adaptation="none")
        result = online.process(X[:300])
        assert result.effective_scale == 1.0

    def test_threshold_adaptation_raises_scale_under_benign_drift(self, stream_setup):
        detector, _, _ = stream_setup
        generator = KddSyntheticGenerator(random_state=77)
        pipeline = PreprocessingPipeline().fit(generator.generate_normal(400))
        drifted = generator.generate_normal(800)
        # Benign drift: scale up the byte counts of normal traffic.
        schema = drifted.schema
        numeric = drifted.numeric_matrix().copy()
        for feature in ("src_bytes", "dst_bytes"):
            numeric[:, schema.numeric_features.index(feature)] *= 4.0
        symbolic = [drifted.column(name) for name in schema.categorical]
        drifted_dataset = type(drifted)(numeric, symbolic, drifted.labels, schema=schema)
        X_drifted = pipeline.transform(drifted_dataset)
        online = OnlineDetector(detector, adaptation="threshold", ewma_alpha=0.05)
        scales = [online.process(X_drifted[start : start + 200]).effective_scale for start in range(0, 800, 200)]
        assert scales[-1] >= scales[0]

    def test_refit_mode_counts_refits(self, stream_setup):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector, adaptation="refit", buffer_size=500)
        for start in range(0, 1200, 300):
            online.process(X[start : start + 300])
        assert online.n_refits >= 0  # refitting only happens when drift fires
        assert len(online._buffer) == 500

    @pytest.mark.parametrize("adaptation", ["none", "threshold"])
    def test_only_refit_allocates_the_buffer(self, stream_setup, adaptation):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector, adaptation=adaptation, buffer_size=500)
        for start in range(0, 1200, 300):
            online.process(X[start : start + 300])
        assert len(online._buffer) == 0
        assert online._buffer.n_features is None  # the ring was never allocated

    def test_adaptation_is_read_only(self, stream_setup):
        detector, _, _ = stream_setup
        online = OnlineDetector(detector, adaptation="threshold")
        with pytest.raises(AttributeError):
            online.adaptation = "refit"
        assert online.adaptation == "threshold"

    def test_seeded_drift_stream_refits_as_recorded(self):
        # Recorded on both engines before the buffer was confined to "refit":
        # four drift events, each refitting from the buffer, and the same
        # alarms on every record.
        X, y, drift_at = make_drifting_stream(
            lambda seed: KddSyntheticGenerator(random_state=seed),
            n_before=1500,
            n_after=1500,
            drift_scale=4.0,
            random_state=5,
        )
        config = GhsomConfig(
            tau1=0.35,
            tau2=0.1,
            max_depth=2,
            max_map_size=49,
            training=SomTrainingConfig(epochs=4),
            random_state=0,
        )
        detector = GhsomDetector(config, random_state=0)
        detector.fit(X[:drift_at][y[:drift_at] == 0][:800])
        online = OnlineDetector(
            detector,
            adaptation="refit",
            buffer_size=500,
            drift_detector=MeanShiftDetector(reference_size=100, recent_size=30, sensitivity=0.5),
        )
        steps = [online.process(X[start : start + 250]) for start in range(0, X.shape[0], 250)]
        predictions = np.concatenate([step.predictions for step in steps])
        scores = np.concatenate([step.scores for step in steps])
        assert (online.n_refits, online.n_drift_events) == (4, 4)
        assert [step.refitted for step in steps].count(True) == 4
        assert int(predictions.sum()) == 276
        assert hashlib.sha256(predictions.astype(np.int8).tobytes()).hexdigest() == (
            "da010d1645128433a5472427e2e25cde72cc90ef481d992c08d7e64cfb433f29"
        )
        assert float(scores.sum()) == pytest.approx(2103.5515851, rel=1e-9)


class TestStreamingPipeline:
    def test_reports_cover_stream(self, stream_setup):
        detector, X, y = stream_setup
        pipeline = StreamingPipeline(OnlineDetector(detector), window_size=300)
        reports = pipeline.run(X, y)
        assert len(reports) == 4
        assert sum(report.n_records for report in reports) == X.shape[0]

    def test_summary_aggregates(self, stream_setup):
        detector, X, y = stream_setup
        pipeline = StreamingPipeline(OnlineDetector(detector), window_size=400)
        pipeline.run(X, y)
        summary = pipeline.summary()
        assert summary["n_windows"] == 3
        assert 0.0 <= summary["mean_detection_rate"] <= 1.0
        assert 0.0 <= summary["mean_false_positive_rate"] <= 1.0
        # Throughput is the aggregate total-records / total-seconds figure.
        assert summary["total_seconds"] > 0.0
        total_records = sum(report.n_records for report in pipeline.reports)
        assert summary["records_per_second"] == pytest.approx(
            total_records / summary["total_seconds"]
        )
        for report in pipeline.reports:
            assert report.seconds >= 0.0
            assert report.records_per_second >= 0.0

    def test_empty_summary(self, stream_setup):
        detector, _, _ = stream_setup
        pipeline = StreamingPipeline(OnlineDetector(detector))
        assert pipeline.summary() == {"n_windows": 0}

    def test_invalid_window_size_rejected(self, stream_setup):
        detector, _, _ = stream_setup
        with pytest.raises(ConfigurationError):
            StreamingPipeline(OnlineDetector(detector), window_size=5)


class TestMakeDriftingStream:
    def test_stream_shape_and_drift_point(self):
        X, y, drift_index = make_drifting_stream(
            lambda seed: KddSyntheticGenerator(random_state=seed),
            n_before=400,
            n_after=400,
            attack_fraction=0.1,
            random_state=3,
        )
        assert X.shape[0] == 800
        assert y.shape[0] == 800
        assert drift_index == 400
        assert 0.02 < y.mean() < 0.25

    def test_drift_changes_normal_traffic_statistics(self):
        X, y, drift_index = make_drifting_stream(
            lambda seed: KddSyntheticGenerator(random_state=seed),
            n_before=400,
            n_after=400,
            drift_scale=3.0,
            random_state=3,
        )
        normal_before = X[:drift_index][y[:drift_index] == 0]
        normal_after = X[drift_index:][y[drift_index:] == 0]
        # The drifted phase must look different on average for normal traffic.
        assert np.linalg.norm(normal_after.mean(axis=0) - normal_before.mean(axis=0)) > 0.05

    def test_too_small_phases_rejected(self):
        with pytest.raises(ConfigurationError):
            make_drifting_stream(
                lambda seed: KddSyntheticGenerator(random_state=seed), n_before=10, n_after=10
            )


class TestServingDtypeRouting:
    """The stream hands the wrapped detector its float64 batch, uncast."""

    class _DtypeSpy:
        """Transparent detector wrapper recording the dtype of scoring input."""

        def __init__(self, inner):
            self._inner = inner
            self.seen_dtypes = []

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def detect(self, X):
            self.seen_dtypes.append(np.asarray(X).dtype)
            return self._inner.detect(X)

        def score_samples(self, X):
            self.seen_dtypes.append(np.asarray(X).dtype)
            return self._inner.score_samples(X)

    def test_float64_detector_batch_passed_through_untouched(self, stream_setup):
        detector, X, _ = stream_setup
        spy = self._DtypeSpy(detector)
        online = OnlineDetector(spy)
        online.score_samples(X[:40])
        assert spy.seen_dtypes == [np.dtype("float64")]

    def test_process_calls_a_forwarding_wrappers_detect(self, stream_setup):
        """A wrapper that forwards every other attribute keeps its `detect`."""
        detector, X, _ = stream_setup
        spy = self._DtypeSpy(detector)
        online = OnlineDetector(spy)
        for start in (0, 40, 80):
            online.process(X[start : start + 40])
        assert spy.seen_dtypes == [np.dtype("float64")] * 3


class TestValidatesOnce:
    """Each streamed window is scanned for non-finite values exactly once."""

    @pytest.fixture
    def validations(self, monkeypatch):
        from repro.core import detector as detector_module
        from repro.streaming import online_detector
        from repro.utils.validation import check_array_2d

        names = []

        def counting(data, name="X", **kwargs):
            names.append(name)
            return check_array_2d(data, name, **kwargs)

        monkeypatch.setattr(online_detector, "check_array_2d", counting)
        monkeypatch.setattr(detector_module, "check_array_2d", counting)
        return names

    def test_process_validates_once(self, stream_setup, validations):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        result = online.process(X[:500])
        assert validations == ["batch"]
        np.testing.assert_array_equal(result.scores, detector.detect(X[:500]).scores)

    def test_score_samples_validates_once(self, stream_setup, validations):
        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        scores = online.score_samples(X[:500])
        assert len(validations) == 1
        np.testing.assert_array_equal(scores, detector.score_samples(X[:500]))

    def test_non_finite_batch_raises_before_any_state_changes(self, stream_setup):
        from repro.exceptions import DataValidationError

        detector, X, _ = stream_setup
        online = OnlineDetector(detector)
        online.process(X[:400])
        before = (
            online.n_processed,
            online.score_ewma.n_updates,
            online.score_ewma.mean,
            online.drift_detector._history.tobytes(),
            online._buffer.values().tobytes(),
        )
        bad = np.array(X[400:500])
        bad[7, 3] = np.nan
        with pytest.raises(DataValidationError, match="batch"):
            online.process(bad)
        with pytest.raises(DataValidationError):
            online.score_samples(bad)
        after = (
            online.n_processed,
            online.score_ewma.n_updates,
            online.score_ewma.mean,
            online.drift_detector._history.tobytes(),
            online._buffer.values().tobytes(),
        )
        assert after == before


class TestWeightedSummary:
    """summary() reports record-weighted aggregates beside the window means."""

    def test_weighted_vs_mean_on_ragged_tail(self, stream_setup):
        from repro.streaming.pipeline import WindowReport

        detector, _, _ = stream_setup
        pipeline = StreamingPipeline(OnlineDetector(detector), window_size=500)
        # Two full windows and a deliberately short 10-record tail whose
        # metrics are the outlier: the mean view lets the tail move the
        # stream-level figure 1/3 of the way, the weighted view ~1%.
        pipeline.reports = [
            WindowReport(0, 500, 1.0, 0.0, 1.0, False, False, 1.0, seconds=1.0),
            WindowReport(1, 500, 1.0, 0.0, 1.0, False, False, 1.0, seconds=1.0),
            WindowReport(2, 10, 0.0, 1.0, 0.0, False, False, 1.0, seconds=0.1),
        ]
        summary = pipeline.summary()
        assert summary["n_records"] == 1010
        assert summary["mean_accuracy"] == pytest.approx(2.0 / 3.0)
        assert summary["weighted_accuracy"] == pytest.approx(1000.0 / 1010.0)
        assert summary["mean_false_positive_rate"] == pytest.approx(1.0 / 3.0)
        assert summary["weighted_false_positive_rate"] == pytest.approx(10.0 / 1010.0)
        assert summary["mean_detection_rate"] == pytest.approx(2.0 / 3.0)
        assert summary["weighted_detection_rate"] == pytest.approx(1000.0 / 1010.0)

    def test_real_run_with_short_last_window(self, stream_setup):
        detector, X, y = stream_setup
        pipeline = StreamingPipeline(OnlineDetector(detector), window_size=500)
        pipeline.run(X, y)  # 1200 records -> 500, 500, 200 (ragged tail)
        assert [report.n_records for report in pipeline.reports] == [500, 500, 200]
        summary = pipeline.summary()
        assert summary["n_records"] == 1200
        weights = np.asarray([500.0, 500.0, 200.0])
        for weighted_key, attribute in [
            ("weighted_detection_rate", "detection_rate"),
            ("weighted_false_positive_rate", "false_positive_rate"),
            ("weighted_accuracy", "accuracy"),
        ]:
            values = np.asarray(
                [getattr(report, attribute) for report in pipeline.reports]
            )
            assert summary[weighted_key] == pytest.approx(
                float(np.average(values, weights=weights))
            )
