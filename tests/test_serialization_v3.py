"""Binary model artifacts (format v3): npz sidecar + mmap load contracts.

What this file pins down:

* **save → load → score is byte-identical** to the in-memory detector for
  the v3 binary format — the one format the writers produce, always
  memory-mapped at load — for {one-class, labelled} × {per_unit, global},
  with and without SHA-256 verification, and through the sharded serial
  backend;
* a **v3 load is O(metadata)**: the compiled arrays come back as read-only
  views into one shared file mapping, no ``GhsomNode`` objects exist after
  load + score, and the tree still hydrates lazily on ``detector.model``;
* shards sliced from a memory-mapped model keep **views into the mapping**
  (every shard, at any shard count), and by-reference provisioning sends
  them as **sidecar regions** that map back to the same bytes;
* every documented **corruption / misuse path raises SerializationError**
  with an actionable message: missing sidecar, truncated sidecar, hash
  mismatch, unsupported versions, bare-dict loads that cannot resolve a
  sidecar, requests for the removed single-JSON writer;
* the sidecar write is **atomic** exactly like the JSON write: a failed
  replace leaves the previous pair intact and no temp files behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import GhsomDetector
from repro.core.serialization import (
    detector_from_dict,
    load_detector,
    load_ghsom,
    save_detector,
    save_ghsom,
)
from repro.exceptions import ConfigurationError, SerializationError
from repro.serving.config import ServingConfig
from repro.serving.planner import plan_shards
from repro.serving.remote import _reference_wire
from repro.serving.shards import build_shards
from repro.serving.transport import SidecarRef
from repro.utils.mmapio import map_region, write_npz_atomic

GOLDEN_V3 = Path(__file__).resolve().parent / "fixtures" / "artifacts" / "detector_v3.json"

MODES = ("labelled", "oneclass")
STRATEGIES = ("per_unit", "global")


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


@pytest.fixture(scope="module")
def v3_artifact(detectors, tmp_path_factory):
    """A labelled/per_unit detector saved in the binary format."""
    path = tmp_path_factory.mktemp("v3") / "detector.json"
    save_detector(detectors[("labelled", "per_unit")], path)
    return path


def _corrupt_copy(v3_artifact, tmp_path, mutate):
    """Copy the artifact pair into ``tmp_path`` and let ``mutate`` break it."""
    json_path = tmp_path / "detector.json"
    sidecar = tmp_path / "detector.npz"
    json_path.write_bytes(v3_artifact.read_bytes())
    sidecar.write_bytes(v3_artifact.with_suffix(".npz").read_bytes())
    mutate(json_path, sidecar)
    return json_path


class TestRoundTripByteIdentical:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_scores_byte_identical(self, detectors, test_matrix, tmp_path, mode, strategy):
        detector = detectors[(mode, strategy)]
        path = tmp_path / "detector.json"
        save_detector(detector, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["detector.json", "detector.npz"]
        loaded = load_detector(path)
        assert isinstance(loaded._compiled.codebook, np.memmap)
        expected = detector.detect(test_matrix)
        observed = loaded.detect(test_matrix)
        assert observed.scores.tobytes() == expected.scores.tobytes()
        assert np.array_equal(observed.predictions, expected.predictions)
        assert np.array_equal(observed.leaf_index, expected.leaf_index)
        assert list(observed.categories) == list(expected.categories)

    def test_verified_load_matches_default_load(self, v3_artifact, test_matrix):
        mapped = load_detector(v3_artifact)
        verified = load_detector(v3_artifact, overrides={"verify": True})
        assert isinstance(verified._compiled.codebook, np.memmap)
        assert np.array_equal(
            mapped.detect(test_matrix).scores, verified.detect(test_matrix).scores
        )

    def test_explicit_binary_format_is_the_default(self, detectors, test_matrix, tmp_path):
        detector = detectors[("oneclass", "per_unit")]
        save_detector(detector, tmp_path / "default.json")
        save_detector(detector, tmp_path / "binary.json", format="binary")
        default = json.loads((tmp_path / "default.json").read_text())
        binary = json.loads((tmp_path / "binary.json").read_text())
        assert default["sidecar"].pop("path") == "default.npz"
        assert binary["sidecar"].pop("path") == "binary.npz"
        assert default == binary


    def test_ghsom_binary_round_trip(self, detectors, test_matrix, tmp_path):
        model = detectors[("oneclass", "global")].model
        path = tmp_path / "model.json"
        save_ghsom(model, path)
        loaded = load_ghsom(path)
        assert isinstance(loaded.compile().codebook, np.memmap)
        assert np.array_equal(
            loaded.transform(test_matrix[:40]), model.transform(test_matrix[:40])
        )
        assert loaded.topology_summary() == model.topology_summary()

    @pytest.mark.parametrize(
        "format, message",
        [("json", "single-JSON .* writer was removed"), ("pickle", "unknown artifact format")],
    )
    def test_other_formats_rejected(self, detectors, tmp_path, format, message):
        with pytest.raises(SerializationError, match=message):
            save_detector(detectors[("labelled", "per_unit")], tmp_path / "x.json", format=format)
        assert list(tmp_path.iterdir()) == []

    def test_npz_suffixed_path_rejected(self, detectors, tmp_path):
        """A JSON path ending in .npz would collide with its own sidecar."""
        with pytest.raises(SerializationError, match="collides with its sidecar"):
            save_detector(detectors[("labelled", "per_unit")], tmp_path / "model.npz")
        assert list(tmp_path.iterdir()) == []  # nothing half-written


class TestMmapServing:
    def test_arrays_are_shared_readonly_views(self, v3_artifact, test_matrix):
        loaded = load_detector(v3_artifact)
        compiled = loaded._compiled
        assert isinstance(compiled.codebook, np.memmap)
        assert not compiled.codebook.flags.writeable
        # One shared mapping: every mapped array resolves to the same file.
        assert compiled.codebook.filename == compiled.unit_norms.filename
        # Scoring must work on the read-only arrays without copying them back.
        loaded.detect(test_matrix)
        assert isinstance(compiled.codebook, np.memmap)

    def test_no_tree_after_load_and_score(self, v3_artifact, test_matrix, monkeypatch):
        import repro.core.ghsom as ghsom_module

        constructed = []
        original_init = ghsom_module.GhsomNode.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            return original_init(self, *args, **kwargs)

        monkeypatch.setattr(ghsom_module.GhsomNode, "__init__", counting_init)
        loaded = load_detector(v3_artifact)
        loaded.detect(test_matrix)
        assert not constructed
        assert not loaded.tree_is_materialized

    def test_tree_hydrates_lazily_and_matches(self, detectors, v3_artifact, test_matrix):
        detector = detectors[("labelled", "per_unit")]
        loaded = load_detector(v3_artifact)
        loaded.detect(test_matrix)
        assert not loaded.tree_is_materialized
        assert loaded.topology_summary() == detector.topology_summary()
        assert loaded.tree_is_materialized
        leaf_index, _ = loaded.model.assign_arrays(test_matrix)
        assert np.array_equal(leaf_index, detector.detect(test_matrix).leaf_index)

    @pytest.mark.parametrize("backend", ("serial",))
    def test_sharded_load_paths_byte_identical(
        self, detectors, v3_artifact, test_matrix, backend
    ):
        expected = detectors[("labelled", "per_unit")].detect(test_matrix)
        loaded = load_detector(v3_artifact, config=ServingConfig(shards=3))
        try:
            assert loaded._backend.name == backend
            observed = loaded.detect(test_matrix)
        finally:
            loaded.configure(ServingConfig())
        assert np.array_equal(observed.scores, expected.scores)
        assert list(observed.categories) == list(expected.categories)

    def test_embedded_thread_backend_config_serves_serially(
        self, detectors, v3_artifact, test_matrix, tmp_path
    ):
        """An artifact whose config names the removed thread backend still loads."""

        def embed_thread_config(json_path, sidecar):
            payload = json.loads(json_path.read_text())
            payload["serving_config"]["sharding"] = {
                "shards": 3,
                "backend": "thread",
                "workers": 2,
            }
            json_path.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, embed_thread_config)
        loaded = load_detector(path)
        try:
            assert loaded.serving_config == ServingConfig(shards=3)
            assert (loaded._backend.name, loaded._backend.workers) == ("serial", 1)
            observed = loaded.detect(test_matrix)
        finally:
            loaded.configure(ServingConfig())
        expected = detectors[("labelled", "per_unit")].detect(test_matrix)
        assert np.array_equal(observed.scores, expected.scores)
        assert np.array_equal(observed.leaf_index, expected.leaf_index)
        assert list(observed.categories) == list(expected.categories)

    def test_embedded_float32_config_serves_float64(self, v3_artifact, test_matrix, tmp_path):
        """An artifact whose config names the removed float32 mode still loads."""

        def embed_dtype(json_path, sidecar):
            payload = json.loads(json_path.read_text())
            payload["serving_config"]["dtype"] = "float32"
            json_path.write_text(json.dumps(payload))

        observed = load_detector(_corrupt_copy(v3_artifact, tmp_path, embed_dtype))
        assert "dtype" not in observed.serving_config.to_dict()
        observed_result = observed.detect(test_matrix)
        expected = load_detector(v3_artifact).detect(test_matrix)
        assert np.array_equal(observed_result.scores, expected.scores)
        assert np.array_equal(observed_result.leaf_index, expected.leaf_index)
        assert list(observed_result.categories) == list(expected.categories)

    def test_embedded_unsupported_dtype_still_rejected(self, v3_artifact, tmp_path):
        def embed_dtype(json_path, sidecar):
            payload = json.loads(json_path.read_text())
            payload["serving_config"]["dtype"] = "float16"
            json_path.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, embed_dtype)
        with pytest.raises(ConfigurationError, match="unsupported serving dtype 'float16'"):
            load_detector(path)

    @pytest.mark.parametrize("knob, value", [("dtype", "float64"), ("mmap", False)])
    def test_removed_override_rejected(self, v3_artifact, knob, value):
        with pytest.raises(ConfigurationError, match=f"override '{knob}' was removed"):
            load_detector(v3_artifact, overrides={knob: value})

    def test_shards_are_memmap_views_and_travel_as_sidecar_regions(self):
        """On the v3 golden at K=2, mapped shard arrays go on the wire as regions.

        Every ``SidecarRef`` maps back, by its offset and shape, to exactly
        the shard's live bytes; every other array travels as a plain array.
        """
        compiled = load_detector(GOLDEN_V3)._compiled
        shards = build_shards(compiled, plan_shards(compiled, 2))
        assert len(shards) == 2
        wire = _reference_wire(shards)
        assert wire is not None
        path, fingerprint, states = wire
        assert Path(path) == GOLDEN_V3.with_suffix(".npz")
        for shard, state in zip(shards, states, strict=True):
            refs = {name for name, value in state.items() if isinstance(value, SidecarRef)}
            assert refs == {"codebook", "unit_norms"}
            for name in refs:
                live = getattr(shard, name)
                assert isinstance(live, np.memmap), name
                assert np.shares_memory(live, getattr(compiled, name))  # a view
                ref = state[name]
                assert ref.shape == live.shape
                assert ref.file_bytes == fingerprint["bytes"]
                mapped = map_region(
                    path,
                    dtype=ref.dtype,
                    shape=ref.shape,
                    offset=ref.offset,
                    file_bytes=ref.file_bytes,
                )
                assert mapped.tobytes() == np.asarray(live).tobytes()
            for name, value in state.items():
                if isinstance(value, np.ndarray):
                    assert type(value) is np.ndarray, name
                    assert np.array_equal(value, getattr(shard, name))


class TestCorruptionAndMisuse:
    def test_missing_sidecar(self, v3_artifact, tmp_path):
        path = _corrupt_copy(v3_artifact, tmp_path, lambda js, sc: sc.unlink())
        with pytest.raises(SerializationError, match="missing binary sidecar"):
            load_detector(path)

    def test_truncated_sidecar(self, v3_artifact, tmp_path):
        def truncate(js, sc):
            sc.write_bytes(sc.read_bytes()[:-64])

        path = _corrupt_copy(v3_artifact, tmp_path, truncate)
        with pytest.raises(SerializationError, match="truncated|bytes"):
            load_detector(path)

    def test_same_size_content_swap_caught_without_verify(self, v3_artifact, tmp_path):
        """Member CRCs are checked on *every* load: a same-size sidecar that
        does not belong to the JSON header fails even at verify=False."""

        def flip_byte(js, sc):
            blob = bytearray(sc.read_bytes())
            blob[-100] ^= 0xFF  # same size, different content
            sc.write_bytes(bytes(blob))

        path = _corrupt_copy(v3_artifact, tmp_path, flip_byte)
        with pytest.raises(SerializationError, match="checksums differ"):
            load_detector(path)

    def test_hash_mismatch_detected_on_verify(self, v3_artifact, tmp_path):
        """Corruption in zip structure (outside member data) only the full
        hash can see: flip a byte inside an alignment-padding extra field —
        size unchanged, member CRCs unchanged, sha256 different."""
        import zipfile

        def flip_padding_byte(js, sc):
            blob = bytearray(sc.read_bytes())
            with zipfile.ZipFile(sc) as archive:
                offsets = [info.header_offset for info in archive.infolist()]
            for offset in offsets:
                name_length = int.from_bytes(blob[offset + 26 : offset + 28], "little")
                extra_length = int.from_bytes(blob[offset + 28 : offset + 30], "little")
                if extra_length >= 5:
                    # 30-byte local header + name + 4-byte TLV head, then
                    # the zero padding no checksum but the file hash covers.
                    blob[offset + 30 + name_length + 4] ^= 0xFF
                    sc.write_bytes(bytes(blob))
                    return
            pytest.skip("sidecar has no padded member to corrupt")

        path = _corrupt_copy(v3_artifact, tmp_path, flip_padding_byte)
        assert load_detector(path).is_fitted  # slips past the cheap checks
        with pytest.raises(SerializationError, match="sha256 mismatch"):
            load_detector(path, overrides={"verify": True})

    def test_stripped_always_on_header_fields_refused(self, v3_artifact, tmp_path):
        """The byte-count / CRC checks never silently degrade to no check."""
        for field, message in (("bytes", "no byte count"), ("crc32", "no member checksums")):

            def strip(js, sc, field=field):
                payload = json.loads(js.read_text())
                del payload["sidecar"][field]
                js.write_text(json.dumps(payload))

            target = tmp_path / field
            target.mkdir()
            path = _corrupt_copy(v3_artifact, target, strip)
            with pytest.raises(SerializationError, match=message):
                load_detector(path)

    def test_unsupported_format_version(self, v3_artifact, tmp_path):
        def bump_version(js, sc):
            payload = json.loads(js.read_text())
            payload["format_version"] = 99
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, bump_version)
        with pytest.raises(SerializationError, match="unsupported format version"):
            load_detector(path)

    def test_unsupported_sidecar_container(self, v3_artifact, tmp_path):
        def change_container(js, sc):
            payload = json.loads(js.read_text())
            payload["sidecar"]["format"] = "arrow"
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, change_container)
        with pytest.raises(SerializationError, match="unsupported sidecar format"):
            load_detector(path)

    def test_sidecar_path_escape_rejected(self, v3_artifact, tmp_path):
        def escape_path(js, sc):
            payload = json.loads(js.read_text())
            payload["sidecar"]["path"] = "../detector.npz"
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, escape_path)
        with pytest.raises(SerializationError, match="invalid sidecar path"):
            load_detector(path)

    def test_missing_sidecar_header(self, v3_artifact, tmp_path):
        def drop_header(js, sc):
            payload = json.loads(js.read_text())
            del payload["sidecar"]
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, drop_header)
        with pytest.raises(SerializationError, match="no sidecar header"):
            load_detector(path)

    def test_verify_with_stripped_hash_refuses(self, v3_artifact, tmp_path):
        """verify=True must never silently degrade to no check."""

        def strip_hash(js, sc):
            payload = json.loads(js.read_text())
            del payload["sidecar"]["sha256"]
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, strip_hash)
        assert load_detector(path).is_fitted  # unverified loads still work
        with pytest.raises(SerializationError, match="records no sha256"):
            load_detector(path, overrides={"verify": True})

    def test_stale_sidecar_region_detected(self, v3_artifact, tmp_path):
        """A region taken against a since-replaced sidecar fails loudly."""
        json_path = _corrupt_copy(v3_artifact, tmp_path, lambda js, sc: None)
        compiled = load_detector(json_path)._compiled
        (shard,) = build_shards(compiled, plan_shards(compiled, 1))
        assert isinstance(shard.codebook, np.memmap)
        path, _, (state,) = _reference_wire([shard])
        ref = state["codebook"]
        sidecar = tmp_path / "detector.npz"
        sidecar.write_bytes(sidecar.read_bytes() + b"\x00" * 16)  # "new artifact"
        with pytest.raises(SerializationError, match="changed on disk"):
            map_region(
                path,
                dtype=ref.dtype,
                shape=ref.shape,
                offset=ref.offset,
                file_bytes=ref.file_bytes,
            )

    def test_bare_dict_load_needs_sidecar_dir(self, v3_artifact):
        payload = json.loads(v3_artifact.read_text())
        with pytest.raises(SerializationError, match="sidecar"):
            detector_from_dict(payload)

    def test_sidecar_missing_required_array(self, v3_artifact, tmp_path):
        def drop_member(js, sc):
            with np.load(sc, allow_pickle=False) as stored:
                arrays = {name: stored[name] for name in stored.files}
            del arrays["codebook"]
            digest = write_npz_atomic(arrays, sc)
            payload = json.loads(js.read_text())
            payload["sidecar"]["bytes"] = digest["bytes"]
            payload["sidecar"]["sha256"] = digest["sha256"]
            payload["sidecar"]["crc32"] = digest["crc32"]
            js.write_text(json.dumps(payload))

        path = _corrupt_copy(v3_artifact, tmp_path, drop_member)
        with pytest.raises(SerializationError, match="missing compiled arrays"):
            load_detector(path)

    def test_not_a_zip_sidecar(self, v3_artifact, tmp_path):
        def scribble(js, sc):
            blob = bytearray(sc.read_bytes())
            blob[:4] = b"XXXX"  # same size, but no zip structure left
            sc.write_bytes(bytes(blob))

        path = _corrupt_copy(v3_artifact, tmp_path, scribble)
        with pytest.raises(SerializationError, match="npz|zip"):
            load_detector(path)

    def test_object_dtype_array_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="object dtype"):
            write_npz_atomic(
                {"bad": np.array([object()], dtype=object)}, tmp_path / "x.npz"
            )


class TestAtomicSidecarWrites:
    def test_failed_replace_leaves_existing_pair_intact(
        self, detectors, tmp_path, monkeypatch
    ):
        detector = detectors[("labelled", "per_unit")]
        path = tmp_path / "detector.json"
        save_detector(detector, path)
        before_json = path.read_bytes()
        before_sidecar = path.with_suffix(".npz").read_bytes()

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_detector(detector, path)
        monkeypatch.undo()
        # The crash hit the *sidecar* write first: both files of the pair
        # are untouched and no temp files linger.
        assert path.read_bytes() == before_json
        assert path.with_suffix(".npz").read_bytes() == before_sidecar
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "detector.json",
            "detector.npz",
        ]

    def test_fresh_pair_is_loadable_and_modes_preserved(self, detectors, tmp_path):
        detector = detectors[("oneclass", "per_unit")]
        path = tmp_path / "nested" / "detector.json"
        save_detector(detector, path)
        assert load_detector(path).is_fitted
        assert (path.stat().st_mode & 0o777) == 0o644
        assert (path.with_suffix(".npz").stat().st_mode & 0o777) == 0o644

    def test_sidecar_written_before_json(self, detectors, tmp_path, monkeypatch):
        """Crash between the two writes leaves a *detectably* stale pair."""
        detector = detectors[("labelled", "global")]
        path = tmp_path / "detector.json"
        save_detector(detector, path)
        original = json.loads(path.read_text())

        import repro.core.serialization as serialization_module

        def exploding_json(payload, target):
            raise OSError("crash between sidecar and JSON write")

        monkeypatch.setattr(serialization_module, "write_json_atomic", exploding_json)
        with pytest.raises(OSError):
            save_detector(detector, path)
        monkeypatch.undo()
        # Old JSON + rewritten sidecar: identical content here (same
        # detector), so the pair still verifies; the point is the ordering —
        # the JSON's integrity header always describes a sidecar that was
        # fully written first.
        assert json.loads(path.read_text()) == original
        loaded = load_detector(path, overrides={"verify": True})
        assert loaded.is_fitted
