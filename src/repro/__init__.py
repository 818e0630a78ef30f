"""Network traffic anomaly detection based on a Growing Hierarchical SOM (GHSOM).

This package is a from-scratch reproduction of a GHSOM-based network
intrusion / traffic-anomaly detection system:

* :mod:`repro.core` -- the GHSOM model itself (growing SOM layers, hierarchy,
  unit labelling, threshold calibration) and the :class:`GhsomDetector`;
* :mod:`repro.data` -- the KDD-style connection-record schema, a synthetic
  dataset generator standing in for the public KDD/NSL-KDD files, loading and
  preprocessing;
* :mod:`repro.netsim` -- a flow-level traffic simulator with attack injection
  and a KDD feature extractor (the raw-trace substrate);
* :mod:`repro.baselines` -- flat SOM, k-means, PCA-subspace and k-NN baseline
  detectors;
* :mod:`repro.serving` -- sharded serving on the compiled flat arrays
  (root-subtree shards, batch router, serial and remote backends, the
  detection gateway);
* :mod:`repro.streaming` -- online detection with adaptive thresholds and
  drift handling;
* :mod:`repro.eval` -- metrics, the experiment runner and parameter sweeps
  that regenerate the paper-style tables and figures.

Quickstart
----------
>>> from repro import KddSyntheticGenerator, PreprocessingPipeline, GhsomDetector
>>> generator = KddSyntheticGenerator(random_state=0)
>>> train, test = generator.generate_train_test(2000, 1000)
>>> pipeline = PreprocessingPipeline()
>>> detector = GhsomDetector(random_state=0)
>>> _ = detector.fit(pipeline.fit_transform(train), train.categories)
>>> alarms = detector.predict(pipeline.transform(test))
"""

from repro.baselines import KMeansDetector, KnnDetector, LofDetector, PcaSubspaceDetector, SomDetector
from repro.core import (
    BaseAnomalyDetector,
    EnsembleDetector,
    describe_tree,
    u_matrix,
    Ghsom,
    GhsomConfig,
    GhsomDetector,
    GrowingSom,
    Som,
    SomTrainingConfig,
    UnitLabeler,
    load_detector,
    load_ghsom,
    save_detector,
    save_ghsom,
)
from repro.data import (
    Dataset,
    KddSchema,
    KddSyntheticGenerator,
    PreprocessingPipeline,
    load_csv,
    save_csv,
    stratified_split,
    train_test_split,
)
from repro.eval import (
    ExperimentRunner,
    cross_validate_detector,
    auc,
    binary_metrics,
    confusion_matrix,
    evaluate_detector,
    format_table,
    per_category_detection_rates,
    roc_curve,
)
from repro.netsim import AttackInjection, TrafficSimulator
from repro.streaming import AlertAggregator, OnlineDetector, StreamingPipeline

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BaseAnomalyDetector",
    "EnsembleDetector",
    "describe_tree",
    "u_matrix",
    "Ghsom",
    "GhsomConfig",
    "GhsomDetector",
    "GrowingSom",
    "Som",
    "SomTrainingConfig",
    "UnitLabeler",
    "load_detector",
    "load_ghsom",
    "save_detector",
    "save_ghsom",
    # data
    "Dataset",
    "KddSchema",
    "KddSyntheticGenerator",
    "PreprocessingPipeline",
    "load_csv",
    "save_csv",
    "stratified_split",
    "train_test_split",
    # baselines
    "KMeansDetector",
    "KnnDetector",
    "LofDetector",
    "PcaSubspaceDetector",
    "SomDetector",
    # eval
    "ExperimentRunner",
    "cross_validate_detector",
    "auc",
    "binary_metrics",
    "confusion_matrix",
    "evaluate_detector",
    "format_table",
    "per_category_detection_rates",
    "roc_curve",
    # netsim
    "AttackInjection",
    "TrafficSimulator",
    # streaming
    "AlertAggregator",
    "OnlineDetector",
    "StreamingPipeline",
]
