"""The pre-compilation GHSOM descent and scoring, kept as the test oracle.

``assign_legacy`` walks the tree node by node and materialises one
:class:`~repro.core.ghsom.LeafAssignment` per sample: the implementation
``Ghsom.assign`` had before the compiled flat-array engine.  It is kept
verbatim so the compiled engine can be checked against it bit for bit
(``tests/test_core_compiled.py``, ``tests/test_property_compiled.py``) and
raced against it (``tests/test_speed_ratios.py``).  ``legacy_score_samples``
and ``legacy_predict_category`` are the per-sample scoring loops that went
with it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core import Ghsom, GhsomDetector
from repro.core.ghsom import GhsomNode, LeafAssignment
from repro.core.labeling import UNLABELED
from repro.exceptions import DataValidationError
from repro.utils.validation import check_array_2d


def assign_legacy(model: Ghsom, data) -> List[LeafAssignment]:
    """Reference recursive descent: one ``LeafAssignment`` per sample."""
    model._check_fitted()
    matrix = check_array_2d(data, "data")
    if matrix.shape[1] != model.n_features:
        raise DataValidationError(
            f"data has {matrix.shape[1]} features, the model expects {model.n_features}"
        )
    results: List[Optional[LeafAssignment]] = [None] * matrix.shape[0]
    _assign_batch(model.root, matrix, np.arange(matrix.shape[0]), results)
    return [assignment for assignment in results if assignment is not None]


def _assign_batch(
    node: GhsomNode,
    matrix: np.ndarray,
    indices: np.ndarray,
    results: List[Optional[LeafAssignment]],
) -> None:
    if indices.size == 0:
        return
    subset = matrix[indices]
    units = node.layer.transform(subset)
    distances = node.layer.quantization_distances(subset)
    for unit in np.unique(units):
        unit = int(unit)
        mask = units == unit
        selected = indices[mask]
        child = node.children.get(unit)
        if child is not None:
            _assign_batch(child, matrix, selected, results)
        else:
            for position, sample_index in enumerate(selected):
                sample_distance = float(distances[mask][position])
                results[sample_index] = LeafAssignment(
                    node_id=node.node_id,
                    unit=unit,
                    depth=node.depth,
                    distance=sample_distance,
                )


def legacy_score_samples(detector: GhsomDetector, X: np.ndarray) -> np.ndarray:
    """The pre-compilation scoring path: per-sample thresholds and label folding."""
    assignments = assign_legacy(detector.model, X)
    distances = [assignment.distance for assignment in assignments]
    leaf_keys = [assignment.leaf_key for assignment in assignments]
    ratios = detector.threshold_.normalize(distances, leaf_keys)
    if detector.labeler is None:
        return np.asarray(ratios, dtype=float)
    scores = np.asarray(ratios, dtype=float).copy()
    for index, key in enumerate(leaf_keys):
        info = detector.labeler.info_of(key)
        if info.label not in ("normal", UNLABELED):
            scores[index] = 1.0 + info.purity + 0.01 * min(ratios[index], 10.0)
    return scores


def legacy_predict_category(detector: GhsomDetector, X: np.ndarray) -> list:
    """The pre-compilation per-sample category loop."""
    assignments = assign_legacy(detector.model, X)
    leaf_keys = [assignment.leaf_key for assignment in assignments]
    distances = [assignment.distance for assignment in assignments]
    ratios = detector.threshold_.normalize(distances, leaf_keys)
    categories = []
    for key, ratio in zip(leaf_keys, ratios, strict=True):
        label = detector.labeler.label_of(key)
        if label == UNLABELED:
            categories.append("unknown" if ratio > 1.0 else "normal")
        elif label == "normal" and ratio > 1.0:
            categories.append("unknown")
        else:
            categories.append(label)
    return categories
