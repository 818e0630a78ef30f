"""Parameter sweeps used by the sensitivity experiments (Table 5, Figures 2 and 4).

Each sweep returns a list of plain dictionaries (one per configuration) so the
benchmark scripts can render them directly with
:func:`repro.eval.tables.format_table` and the tests can assert on the
monotonic trends the paper reports (smaller tau -> larger maps, etc.).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import GhsomConfig
from repro.core.detector import GhsomDetector
from repro.eval.metrics import binary_metrics
from repro.exceptions import ConfigurationError
from repro.utils.timer import Stopwatch
from repro.utils.validation import check_array_2d, check_same_length


def threshold_sweep(
    scores: Sequence[float],
    y_true: Sequence,
    thresholds: Optional[Sequence[float]] = None,
    *,
    n_points: int = 25,
) -> List[Dict[str, float]]:
    """Detection rate and FPR as a function of the decision threshold (Figure 2).

    Parameters
    ----------
    scores:
        Continuous anomaly scores (larger = more anomalous).
    y_true:
        Binary ground truth (1 = attack).
    thresholds:
        Explicit thresholds to evaluate; by default ``n_points`` thresholds
        spanning the observed score range.
    """
    score_array = np.asarray(scores, dtype=float)
    truth = np.asarray(y_true, dtype=int)
    check_same_length(score_array, truth, "scores", "y_true")
    if thresholds is None:
        low, high = float(score_array.min()), float(score_array.max())
        if high <= low:
            high = low + 1.0
        thresholds = np.linspace(low, high, int(n_points))
    rows: List[Dict[str, float]] = []
    for threshold in thresholds:
        predictions = (score_array > threshold).astype(int)
        metrics = binary_metrics(truth, predictions)
        rows.append(
            {
                "threshold": float(threshold),
                "detection_rate": metrics.detection_rate,
                "false_positive_rate": metrics.false_positive_rate,
                "f1": metrics.f1,
                "accuracy": metrics.accuracy,
            }
        )
    return rows


def tau_sensitivity_sweep(
    X_train,
    y_train: Optional[Sequence[str]],
    X_test,
    y_test_binary: Sequence,
    *,
    tau1_values: Sequence[float] = (0.6, 0.4, 0.3, 0.2),
    tau2_values: Sequence[float] = (0.2, 0.1, 0.05),
    base_config: Optional[GhsomConfig] = None,
    random_state: int = 0,
) -> List[Dict[str, object]]:
    """Accuracy and model size across a grid of (tau1, tau2) values (Figure 4 / Table 5).

    Returns one row per combination with topology statistics, detection
    metrics and training time.
    """
    train_matrix = check_array_2d(X_train, "X_train")
    test_matrix = check_array_2d(X_test, "X_test")
    truth = np.asarray(y_test_binary, dtype=int)
    check_same_length(test_matrix, truth, "X_test", "y_test_binary")
    if not tau1_values or not tau2_values:
        raise ConfigurationError("tau1_values and tau2_values must not be empty")
    base = base_config or GhsomConfig()
    rows: List[Dict[str, object]] = []
    for tau1 in tau1_values:
        for tau2 in tau2_values:
            config = base.with_updates(tau1=float(tau1), tau2=float(tau2))
            detector = GhsomDetector(config, random_state=random_state)
            watch = Stopwatch()
            with watch.measure("fit"):
                detector.fit(train_matrix, y_train)
            predictions = detector.predict(test_matrix)
            metrics = binary_metrics(truth, predictions)
            topology = detector.topology_summary()
            rows.append(
                {
                    "tau1": float(tau1),
                    "tau2": float(tau2),
                    "n_maps": topology["n_maps"],
                    "n_units": topology["n_units"],
                    "depth": topology["depth"],
                    "detection_rate": metrics.detection_rate,
                    "false_positive_rate": metrics.false_positive_rate,
                    "f1": metrics.f1,
                    "fit_seconds": watch.total("fit"),
                }
            )
    return rows

