"""Round-trip regression suite for the serving path (v1/v2 readers + detect API).

The contract this file pins down:

* **save → load → score is byte-identical** to the in-memory detector for
  every combination of {one-class, labelled} × {per_unit, global} threshold
  strategy, for both single-JSON layouts the readers still accept — the
  legacy v1 tree layout and the compiled v2 format, neither written any more
  (built by ``tests/legacy_artifacts.py``) — with ``np.array_equal``, not
  allclose;
* a **v2 load is scoring-ready without the tree**: no ``GhsomNode`` objects
  exist after load + score, and the tree hydrates lazily only when
  ``detector.model`` is touched;
* **``detect()`` agrees elementwise** with the three separate calls
  (``predict`` / ``score_samples`` / ``predict_category``) on arbitrary
  batches;
* model files are **written atomically** — a failed write never clobbers or
  truncates an existing artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GhsomDetector
from repro.core.serialization import (
    detector_binary_payload,
    detector_from_dict,
    load_detector,
    save_detector,
    write_json_atomic,
)
from repro.exceptions import SerializationError

from legacy_artifacts import v1_payload, v2_payload

MODES = ("labelled", "oneclass")
STRATEGIES = ("per_unit", "global")
VERSIONS = (1, 2)

#: The committed golden artifacts (see ``tests/test_golden_artifacts.py``).
GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "artifacts"


@pytest.fixture(scope="module")
def detectors(fast_config, train_matrix, train_categories):
    """One fitted detector per {mode} x {threshold strategy} combination."""
    fitted = {}
    for mode in MODES:
        for strategy in STRATEGIES:
            detector = GhsomDetector(
                fast_config, threshold_strategy=strategy, random_state=0
            )
            labels = train_categories if mode == "labelled" else None
            detector.fit(train_matrix, labels)
            fitted[(mode, strategy)] = detector
    return fitted


def _json_round_trip(payload):
    """Push the payload through real JSON so float formatting is exercised."""
    return json.loads(json.dumps(payload))


def _payload(detector, version):
    """``detector``'s payload in the read-only single-JSON format ``version``."""
    return v1_payload(detector) if version == 1 else v2_payload(detector)


def _round_trip(detector):
    """``detector`` through its v3 payload and sidecar arrays, in memory."""
    payload, arrays = detector_binary_payload(detector)
    return detector_from_dict(payload, arrays=arrays)


class TestRoundTripByteIdentical:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("version", VERSIONS)
    def test_scores_byte_identical(self, detectors, test_matrix, mode, strategy, version):
        detector = detectors[(mode, strategy)]
        payload = _json_round_trip(_payload(detector, version))
        loaded = detector_from_dict(payload)
        expected = detector.detect(test_matrix)
        observed = loaded.detect(test_matrix)
        assert np.array_equal(observed.scores, expected.scores)
        assert np.array_equal(observed.predictions, expected.predictions)
        assert np.array_equal(observed.leaf_index, expected.leaf_index)
        assert observed.categories == expected.categories

    @pytest.mark.parametrize("version", VERSIONS)
    def test_file_round_trip_byte_identical(self, detectors, test_matrix, tmp_path, version):
        detector = detectors[("labelled", "per_unit")]
        path = tmp_path / f"detector_v{version}.json"
        write_json_atomic(_payload(detector, version), path)
        loaded = load_detector(path)
        assert np.array_equal(
            loaded.score_samples(test_matrix), detector.score_samples(test_matrix)
        )

    def test_random_state_restored(self, detectors):
        detector = detectors[("labelled", "per_unit")]
        loaded = _round_trip(detector)
        assert loaded.random_state == detector.random_state == 0

    def test_deserialized_strategies_declare_fit_version(self, detectors):
        loaded = _round_trip(detectors[("labelled", "global")])
        # Declared in __init__/from_dict, not conjured lazily by fit().
        assert loaded.threshold_.fit_version == 0
        assert loaded.labeler.fit_version == 0


class TestV2ServesWithoutTree:
    def test_no_ghsom_nodes_constructed(self, detectors, test_matrix, monkeypatch):
        import repro.core.ghsom as ghsom_module

        detector = detectors[("labelled", "per_unit")]
        payload = _json_round_trip(v2_payload(detector))
        constructed = []
        original_init = ghsom_module.GhsomNode.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            return original_init(self, *args, **kwargs)

        monkeypatch.setattr(ghsom_module.GhsomNode, "__init__", counting_init)
        loaded = detector_from_dict(payload)
        loaded.detect(test_matrix)
        assert not constructed
        assert not loaded.tree_is_materialized

    def test_tree_hydrates_lazily_and_matches(self, detectors, test_matrix):
        detector = detectors[("labelled", "per_unit")]
        loaded = detector_from_dict(_json_round_trip(v2_payload(detector)))
        loaded.detect(test_matrix)
        assert not loaded.tree_is_materialized
        # Touching .model rebuilds the tree from the stored payload...
        assert loaded.model is not None
        assert loaded.tree_is_materialized
        assert loaded.topology_summary() == detector.topology_summary()
        # ...and the hydrated tree reproduces the compiled path exactly.
        leaf_index, distances = loaded.model.assign_arrays(test_matrix)
        expected = detector.detect(test_matrix)
        assert np.array_equal(leaf_index, expected.leaf_index)

    def test_v1_payload_still_builds_tree_eagerly(self):
        loaded = load_detector(GOLDEN_DIR / "detector_v1.json")
        assert loaded.tree_is_materialized


class TestDetectAgreesWithSeparateCalls:
    @given(data=st.data())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_detect_matches_three_calls(self, detectors, test_matrix, data):
        mode = data.draw(st.sampled_from(MODES))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        detector = detectors[(mode, strategy)]
        indices = data.draw(
            st.lists(
                st.integers(0, test_matrix.shape[0] - 1), min_size=1, max_size=64
            )
        )
        batch = test_matrix[np.array(indices, dtype=np.intp)]
        result = detector.detect(batch)
        assert np.array_equal(result.scores, detector.score_samples(batch))
        assert np.array_equal(result.predictions, detector.predict(batch))
        assert result.categories == detector.predict_category(batch)
        # The invariants the scoring contract promises:
        assert np.array_equal(result.predictions, (result.scores > 1.0).astype(int))
        assert len(result) == batch.shape[0]


class TestAtomicWrites:
    def test_failed_replace_leaves_existing_file_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        write_json_atomic({"v": 1}, path)

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            write_json_atomic({"v": 2}, path)
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"v": 1}
        # The temp file must not be left behind either.
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_unserialisable_payload_leaves_existing_file_intact(self, tmp_path):
        path = tmp_path / "model.json"
        write_json_atomic({"v": 1}, path)
        with pytest.raises(SerializationError):
            write_json_atomic({"bad": object()}, path)
        assert json.loads(path.read_text()) == {"v": 1}

    def test_written_files_are_readable_and_preserve_mode(self, tmp_path):
        """mkstemp's 0600 must not leak into artifacts (train-as-A, serve-as-B)."""
        path = tmp_path / "model.json"
        write_json_atomic({"v": 1}, path)
        assert (path.stat().st_mode & 0o777) == 0o644
        # Rewriting an artifact keeps whatever mode the operator set on it.
        os.chmod(path, 0o600)
        write_json_atomic({"v": 2}, path)
        assert (path.stat().st_mode & 0o777) == 0o600

    def test_save_detector_is_atomic(self, detectors, tmp_path):
        detector = detectors[("labelled", "per_unit")]
        path = tmp_path / "nested" / "detector.json"
        save_detector(detector, path)
        assert load_detector(path).is_fitted
        assert sorted(p.name for p in path.parent.iterdir()) == [
            "detector.json",
            "detector.npz",
        ]
