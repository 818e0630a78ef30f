"""Tests for repro.eval.tables, repro.eval.experiments and repro.eval.sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kmeans import KMeansDetector
from repro.baselines.pca_subspace import PcaSubspaceDetector
from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.eval.experiments import DetectorResult, ExperimentRunner, evaluate_detector
from repro.eval.sweeps import tau_sensitivity_sweep, threshold_sweep
from repro.eval.tables import format_mapping, format_series, format_table
from repro.exceptions import ConfigurationError


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table([["a", 1, 0.5]], headers=["name", "count", "rate"])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert "0.5000" in lines[-1]

    def test_title_and_separator(self):
        text = format_table([[1]], headers=["x"], title="Table 1")
        assert text.splitlines()[0] == "Table 1"
        assert "=" in text.splitlines()[1]

    def test_none_rendered_as_dash(self):
        text = format_table([[None]], headers=["x"])
        assert "-" in text.splitlines()[-1]

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table([[1, 2]], headers=["x"])

    def test_float_format_respected(self):
        text = format_table([[0.123456]], headers=["x"], float_format=".2f")
        assert "0.12" in text
        assert "0.1235" not in text

    def test_format_mapping(self):
        text = format_mapping({"a": 1, "b": 2.5})
        assert "a" in text and "2.5000" in text

    def test_format_series(self):
        text = format_series([1, 2], {"y1": [0.1, 0.2], "y2": [0.3, 0.4]}, x_label="t")
        header = text.splitlines()[0]
        assert "t" in header and "y1" in header and "y2" in header
        assert len(text.splitlines()) == 4


class TestEvaluateDetector:
    def test_result_fields(self, train_matrix, train_categories, test_matrix, small_split):
        _, test = small_split
        detector = KMeansDetector(n_clusters=20, random_state=0)
        result = evaluate_detector(
            detector,
            train_matrix,
            train_categories,
            test_matrix,
            [str(category) for category in test.categories],
            with_confusion=True,
        )
        assert 0.0 <= result.metrics.detection_rate <= 1.0
        assert 0.0 <= result.roc_auc <= 1.0
        assert result.fit_seconds > 0.0
        assert result.confusion is not None
        matrix, labels = result.confusion
        assert matrix.sum() == test_matrix.shape[0]
        assert "normal" in labels

    def test_summary_row_matches_headers(self, train_matrix, train_categories, test_matrix, small_split):
        _, test = small_split
        detector = PcaSubspaceDetector()
        result = evaluate_detector(
            detector, train_matrix, train_categories, test_matrix,
            [str(category) for category in test.categories],
        )
        assert len(result.summary_row()) == len(DetectorResult.summary_headers())


class TestExperimentRunner:
    def test_prepare_is_cached(self):
        runner = ExperimentRunner(n_train=300, n_test=150, random_state=0)
        first = runner.prepare()
        second = runner.prepare()
        assert first is second
        assert first["X_train"].shape[0] == 300

    def test_run_multiple_detectors(self):
        runner = ExperimentRunner(n_train=400, n_test=200, random_state=1)
        results = runner.run(
            {
                "kmeans": KMeansDetector(n_clusters=15, random_state=0),
                "pca": PcaSubspaceDetector(),
            }
        )
        assert set(results) == {"kmeans", "pca"}
        for result in results.values():
            assert result.metrics.n_attacks + result.metrics.n_normal == 200

    def test_normal_only_training_mode(self):
        runner = ExperimentRunner(
            n_train=300, n_test=150, train_on_normal_only=True, random_state=2
        )
        prepared = runner.prepare()
        assert prepared["y_train"] is None
        assert not runner.train_dataset.is_attack.any()

    def test_unsupervised_mode_withholds_labels(self):
        runner = ExperimentRunner(n_train=300, n_test=150, supervised=False, random_state=2)
        assert runner.prepare()["y_train"] is None

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(n_train=5, n_test=100)

    def test_run_single(self):
        runner = ExperimentRunner(n_train=300, n_test=150, random_state=3)
        result = runner.run_single(KMeansDetector(n_clusters=10, random_state=0))
        assert isinstance(result, DetectorResult)


class TestThresholdSweep:
    def test_rates_move_monotonically_with_threshold(self, rng):
        scores = np.concatenate([rng.random(200), rng.random(100) + 1.0])
        truth = np.array([0] * 200 + [1] * 100)
        rows = threshold_sweep(scores, truth, n_points=15)
        detection = [row["detection_rate"] for row in rows]
        fpr = [row["false_positive_rate"] for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(detection, detection[1:], strict=False))
        assert all(b <= a + 1e-12 for a, b in zip(fpr, fpr[1:], strict=False))

    def test_explicit_thresholds(self):
        rows = threshold_sweep([0.1, 0.9], [0, 1], thresholds=[0.5])
        assert len(rows) == 1
        assert rows[0]["detection_rate"] == 1.0
        assert rows[0]["false_positive_rate"] == 0.0


class TestTauSweep:
    def test_sweep_rows_and_trends(self, train_matrix, train_categories, test_matrix, test_binary_truth):
        base = GhsomConfig(
            max_depth=2, max_map_size=25, max_growth_rounds=6,
            training=SomTrainingConfig(epochs=2), random_state=0,
        )
        rows = tau_sensitivity_sweep(
            train_matrix[:400],
            train_categories[:400],
            test_matrix[:200],
            test_binary_truth[:200],
            tau1_values=(0.8, 0.2),
            tau2_values=(0.3,),
            base_config=base,
        )
        assert len(rows) == 2
        by_tau1 = {row["tau1"]: row for row in rows}
        assert by_tau1[0.2]["n_units"] >= by_tau1[0.8]["n_units"]

    def test_empty_grid_rejected(self, train_matrix, train_categories, test_matrix, test_binary_truth):
        with pytest.raises(ConfigurationError):
            tau_sensitivity_sweep(
                train_matrix, train_categories, test_matrix, test_binary_truth, tau1_values=()
            )
