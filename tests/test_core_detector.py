"""Tests for repro.core.detector (GhsomDetector)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detector import GhsomDetector, combine_label_and_distance_scores
from repro.core.labeling import UnitLabeler
from repro.eval.metrics import binary_metrics
from repro.exceptions import ConfigurationError, DataValidationError, NotFittedError


@pytest.fixture(scope="module")
def supervised_detector(fast_config, train_matrix, train_categories):
    detector = GhsomDetector(fast_config, random_state=0)
    detector.fit(train_matrix, train_categories)
    return detector


@pytest.fixture(scope="module")
def oneclass_generator():
    """A dedicated generator so the one-class tests do not depend on test ordering."""
    from repro.data.synthetic import KddSyntheticGenerator

    return KddSyntheticGenerator(random_state=21)


@pytest.fixture(scope="module")
def oneclass_detector(oneclass_generator):
    from repro.core.config import GhsomConfig, SomTrainingConfig
    from repro.data.preprocess import PreprocessingPipeline

    config = GhsomConfig(
        tau1=0.3,
        tau2=0.08,
        max_depth=2,
        max_map_size=64,
        max_growth_rounds=20,
        min_samples_for_expansion=20,
        training=SomTrainingConfig(epochs=5),
        random_state=0,
    )
    normal_train = oneclass_generator.generate_normal(800)
    pipeline = PreprocessingPipeline().fit(normal_train)
    detector = GhsomDetector(config, random_state=0)
    detector.fit(pipeline.transform(normal_train))
    return detector, pipeline


class TestFitValidation:
    def test_unfitted_detector_raises(self, train_matrix):
        detector = GhsomDetector(random_state=0)
        with pytest.raises(NotFittedError):
            detector.predict(train_matrix)
        with pytest.raises(NotFittedError):
            detector.score_samples(train_matrix)

    def test_label_length_mismatch_rejected(self, fast_config, train_matrix):
        detector = GhsomDetector(fast_config, random_state=0)
        with pytest.raises(DataValidationError):
            detector.fit(train_matrix, ["normal"] * 3)

    def test_is_labeled_flag(self, supervised_detector, oneclass_detector):
        assert supervised_detector.is_labeled
        assert not oneclass_detector[0].is_labeled

    def test_leaf_label_distribution_requires_labels(self, oneclass_detector):
        detector, _ = oneclass_detector
        with pytest.raises(ConfigurationError):
            detector.leaf_label_distribution()

    def test_leaf_label_distribution_supervised(self, supervised_detector):
        distribution = supervised_detector.leaf_label_distribution()
        assert "normal" in distribution
        assert sum(distribution.values()) > 0


class TestSupervisedDetection:
    def test_predictions_are_binary(self, supervised_detector, test_matrix):
        predictions = supervised_detector.predict(test_matrix)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_detection_quality(self, supervised_detector, test_matrix, test_binary_truth):
        """The GHSOM detector must reach a high DR at a low FPR on synthetic KDD traffic."""
        metrics = binary_metrics(test_binary_truth, supervised_detector.predict(test_matrix))
        assert metrics.detection_rate > 0.85
        assert metrics.false_positive_rate < 0.15

    def test_scores_and_predictions_consistent(self, supervised_detector, test_matrix):
        scores = supervised_detector.score_samples(test_matrix)
        predictions = supervised_detector.predict(test_matrix)
        np.testing.assert_array_equal(predictions, (scores > 1.0).astype(int))

    def test_predict_category_values(self, supervised_detector, test_matrix):
        categories = supervised_detector.predict_category(test_matrix)
        allowed = {"normal", "dos", "probe", "r2l", "u2r", "unknown"}
        assert set(categories).issubset(allowed)
        assert len(categories) == test_matrix.shape[0]

    def test_dos_records_mostly_identified_as_dos(
        self, supervised_detector, test_matrix, small_split
    ):
        _, test = small_split
        categories = np.array(supervised_detector.predict_category(test_matrix), dtype=object)
        dos_mask = test.categories == "dos"
        if dos_mask.sum() >= 10:
            dos_accuracy = np.mean(categories[dos_mask] == "dos")
            assert dos_accuracy > 0.7

    def test_topology_summary_available(self, supervised_detector):
        summary = supervised_detector.topology_summary()
        assert summary["n_maps"] >= 1
        assert summary["n_units"] >= 4


class TestOneClassDetection:
    def test_normal_training_data_mostly_below_threshold(self, oneclass_detector, oneclass_generator):
        detector, pipeline = oneclass_detector
        fresh_normal = oneclass_generator.generate_normal(300)
        predictions = detector.predict(pipeline.transform(fresh_normal))
        assert predictions.mean() < 0.15  # low false-positive rate on fresh normal traffic

    def test_dos_traffic_flagged(self, oneclass_detector, oneclass_generator):
        detector, pipeline = oneclass_detector
        dos = oneclass_generator.generate_class("smurf", 200).concat(oneclass_generator.generate_class("neptune", 200))
        predictions = detector.predict(pipeline.transform(dos))
        assert predictions.mean() > 0.9

    def test_probe_traffic_flagged(self, oneclass_detector, oneclass_generator):
        detector, pipeline = oneclass_detector
        probe = oneclass_generator.generate_class("portsweep", 200)
        predictions = detector.predict(pipeline.transform(probe))
        assert predictions.mean() > 0.7

    def test_scores_increase_with_anomalousness(self, oneclass_detector, oneclass_generator):
        detector, pipeline = oneclass_detector
        normal_scores = detector.score_samples(
            pipeline.transform(oneclass_generator.generate_normal(200))
        )
        attack_scores = detector.score_samples(
            pipeline.transform(oneclass_generator.generate_class("smurf", 200))
        )
        assert np.median(attack_scores) > np.median(normal_scores)

    def test_predict_category_without_labels(self, oneclass_detector, oneclass_generator):
        detector, pipeline = oneclass_detector
        X = np.vstack([
            pipeline.transform(oneclass_generator.generate_normal(50)),
            pipeline.transform(oneclass_generator.generate_class("smurf", 50)),
        ])
        categories = detector.predict_category(X)
        assert set(categories) == {"normal", "anomaly"}
        # A list of Python str, one per decision, from detect() too.
        assert type(categories) is list
        assert all(type(category) is str for category in categories)
        assert categories == [
            "anomaly" if flag else "normal" for flag in detector.detect(X).predictions
        ]


class TestThresholdStrategies:
    @pytest.mark.parametrize("strategy", ["global", "per_unit"])
    def test_both_strategies_work(self, fast_config, train_matrix, train_categories, test_matrix, strategy):
        detector = GhsomDetector(
            fast_config, threshold_strategy=strategy, random_state=0
        )
        detector.fit(train_matrix, train_categories)
        predictions = detector.predict(test_matrix)
        assert predictions.shape == (test_matrix.shape[0],)

    def test_unknown_strategy_rejected(self, fast_config, train_matrix, train_categories):
        detector = GhsomDetector(
            fast_config, threshold_strategy="quantile_forest", random_state=0
        )
        with pytest.raises(ConfigurationError):
            detector.fit(train_matrix, train_categories)


class TestCombineScores:
    def test_no_labeler_passthrough(self):
        ratios = np.array([0.5, 2.0])
        np.testing.assert_array_equal(
            combine_label_and_distance_scores(ratios, [("root", 0), ("root", 1)], None), ratios
        )

    def test_attack_units_pushed_above_one(self):
        labeler = UnitLabeler().fit([("root", 0), ("root", 1)], ["dos", "normal"])
        scores = combine_label_and_distance_scores(
            np.array([0.1, 0.1]), [("root", 0), ("root", 1)], labeler
        )
        assert scores[0] > 1.0
        assert scores[1] == pytest.approx(0.1)

    def test_purer_attack_units_rank_higher(self):
        labeler = UnitLabeler().fit(
            [("root", 0)] * 4 + [("root", 1)] * 4,
            ["dos", "dos", "dos", "dos", "dos", "dos", "normal", "normal"],
        )
        scores = combine_label_and_distance_scores(
            np.array([0.1, 0.1]), [("root", 0), ("root", 1)], labeler
        )
        assert scores[0] > scores[1] > 1.0
