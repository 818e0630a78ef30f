"""Tests for repro.core.serialization (model save/load)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import GhsomDetector
from repro.core.ghsom import Ghsom
from repro.core.serialization import (
    detector_binary_payload,
    detector_from_dict,
    ghsom_from_dict,
    load_detector,
    load_ghsom,
    save_detector,
    save_ghsom,
)
from repro.data.preprocess import PreprocessingPipeline
from repro.exceptions import ConfigurationError, SerializationError

#: The committed v1 golden artifact: the v1 reader's only input.
GOLDEN_V1 = Path(__file__).resolve().parent / "fixtures" / "artifacts" / "detector_v1.json"
GOLDEN_V2 = GOLDEN_V1.with_name("detector_v2.json")


@pytest.fixture(scope="module")
def fitted_model(fast_config, train_matrix):
    return Ghsom(fast_config).fit(train_matrix)


@pytest.fixture(scope="module")
def saved_model(fitted_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("ghsom") / "model.json"
    save_ghsom(fitted_model, path)
    return path


@pytest.fixture(scope="module")
def fitted_detector(fast_config, train_matrix, train_categories):
    detector = GhsomDetector(fast_config, random_state=0)
    detector.fit(train_matrix, train_categories)
    return detector


def _round_trip(detector):
    """``detector`` through its v3 payload and sidecar arrays, in memory."""
    payload, arrays = detector_binary_payload(detector)
    return detector_from_dict(payload, arrays=arrays)


class TestGhsomSerialization:
    def test_unfitted_model_rejected(self, fast_config, tmp_path):
        with pytest.raises(SerializationError):
            save_ghsom(Ghsom(fast_config), tmp_path / "model.json")
        assert list(tmp_path.iterdir()) == []

    def test_file_round_trip_preserves_structure(self, fitted_model, saved_model):
        rebuilt = load_ghsom(saved_model)
        assert rebuilt.topology_summary() == fitted_model.topology_summary()

    def test_file_round_trip_preserves_assignments(self, fitted_model, saved_model, test_matrix):
        rebuilt = load_ghsom(saved_model)
        np.testing.assert_allclose(
            rebuilt.transform(test_matrix), fitted_model.transform(test_matrix)
        )
        assert rebuilt.leaf_keys(test_matrix[:50]) == fitted_model.leaf_keys(test_matrix[:50])

    def test_file_is_a_json_and_npz_pair(self, saved_model):
        assert json.loads(saved_model.read_text())["format_version"] == 3
        assert saved_model.with_suffix(".npz").exists()

    def test_wrong_kind_rejected(self, saved_model):
        payload = json.loads(saved_model.read_text())
        payload["kind"] = "something_else"
        with pytest.raises(SerializationError):
            ghsom_from_dict(payload)

    def test_wrong_version_rejected(self, saved_model):
        payload = json.loads(saved_model.read_text())
        payload["format_version"] = 999
        with pytest.raises(SerializationError):
            ghsom_from_dict(payload)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_ghsom(tmp_path / "missing.json")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_ghsom(path)

    @pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
    def test_non_object_top_level_raises(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(SerializationError, match="not an object"):
            load_ghsom(path)
        with pytest.raises(SerializationError, match="not an object"):
            load_detector(path)


class TestDetectorSerialization:
    def test_unfitted_detector_rejected(self, fast_config):
        with pytest.raises(SerializationError):
            detector_binary_payload(GhsomDetector(fast_config))

    def test_dict_round_trip_preserves_predictions(self, fitted_detector, test_matrix):
        rebuilt = _round_trip(fitted_detector)
        np.testing.assert_array_equal(
            rebuilt.predict(test_matrix), fitted_detector.predict(test_matrix)
        )
        np.testing.assert_allclose(
            rebuilt.score_samples(test_matrix), fitted_detector.score_samples(test_matrix)
        )

    def test_dict_round_trip_preserves_categories(self, fitted_detector, test_matrix):
        rebuilt = _round_trip(fitted_detector)
        assert rebuilt.predict_category(test_matrix[:40]) == fitted_detector.predict_category(
            test_matrix[:40]
        )

    def test_file_round_trip(self, fitted_detector, test_matrix, tmp_path):
        path = tmp_path / "detector.json"
        save_detector(fitted_detector, path)
        loaded = load_detector(path)
        np.testing.assert_array_equal(
            loaded.predict(test_matrix[:30]), fitted_detector.predict(test_matrix[:30])
        )

    @pytest.mark.parametrize("marker", [True, 1.0, "1"])
    def test_non_int_format_version_rejected(self, marker):
        payload = json.loads(GOLDEN_V1.read_text())
        assert detector_from_dict(payload).is_fitted  # the real marker loads
        payload["format_version"] = marker
        with pytest.raises(SerializationError, match="unsupported format version"):
            detector_from_dict(payload)

    def test_wrong_kind_rejected(self, fitted_detector):
        payload, arrays = detector_binary_payload(fitted_detector)
        payload["kind"] = "pickle"
        with pytest.raises(SerializationError):
            detector_from_dict(payload, arrays=arrays)

    def test_oneclass_detector_round_trip(self, fast_config, train_matrix, test_matrix):
        detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix)
        rebuilt = _round_trip(detector)
        assert rebuilt.labeler is None
        np.testing.assert_array_equal(
            rebuilt.predict(test_matrix[:30]), detector.predict(test_matrix[:30])
        )

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("root", "depth", 1.5),
            ("compiled", "n_features", True),
            ("root", "rows", "x"),
            ("model", "qe0", "abc"),
        ],
        ids=["depth-fraction", "n_features-bool", "rows-str", "qe0-str"],
    )
    def test_mistyped_payload_numbers_raise_serialization_error(
        self, tmp_path, section, key, value
    ):
        # int()/float() would truncate 1.5, read True as 1 and raise a bare
        # ValueError on strings; a corrupt artifact must fail typed instead.
        payload = json.loads(GOLDEN_V2.read_text())
        target = payload["model"] if section == "model" else payload["model"][section]
        target[key] = value
        path = tmp_path / "detector.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError, match="payload value"):
            load_detector(path).model  # the tree hydrates lazily


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
@pytest.mark.parametrize("flag", ["calibrate_on_normal_only", "log_transform", "clip"])
def test_stored_flags_must_be_real_bools(small_dataset, flag, value):
    # bool("false") is True: a stored flag that is not a real bool must be
    # refused, not coerced into the opposite setting.
    if flag == "calibrate_on_normal_only":
        payload = json.loads(GOLDEN_V2.read_text())
        assert detector_from_dict(payload).calibrate_on_normal_only is True
        payload[flag] = value
        with pytest.raises(SerializationError, match="expected a bool"):
            detector_from_dict(payload)
        return
    payload = PreprocessingPipeline(scaling="minmax").fit(small_dataset).to_dict()
    assert PreprocessingPipeline.from_dict(payload).to_dict() == payload
    (payload if flag == "log_transform" else payload["scaler"])[flag] = value
    with pytest.raises(ConfigurationError, match=f"pipeline flag {flag} must be a bool"):
        PreprocessingPipeline.from_dict(payload)
