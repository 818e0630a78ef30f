"""Tests for the sharded serving subsystem (repro.serving).

The acceptance property of the whole package: routing a batch through K
root-subtree shards — any K, any backend — must reproduce the unsharded
float64 engine *byte for byte*: same leaf rows, same distances, same scores,
predictions and categories.  Sharding is a pure execution-plan change, not an
approximation.
"""

from __future__ import annotations

import itertools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import load_bundle, save_bundle
from repro.core import Ghsom, GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core.serialization import (
    detector_binary_payload,
    detector_from_dict,
    load_detector,
    save_detector,
)
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import ConfigurationError
from repro.serving import (
    ShardedGhsom,
    build_shards,
    plan_shards,
    subtrees_from_compiled,
)
from repro.serving.planner import partition_bounds

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "artifacts"

# Fitting a GHSOM per example is expensive: few examples, generous deadline.
FIT_SETTINGS = {
    "max_examples": 10,
    "deadline": None,
    "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large],
}


def _shard(detector, n_shards=None):
    """Serve ``detector`` through ``n_shards`` root-subtree shards (``None``: unsharded)."""
    return detector.configure(detector.serving_config.with_overrides({"shards": n_shards}))


def _layout(detector):
    """``(n_shards, backend name, workers)`` of the live sharded setup, or ``None``."""
    backend = detector._backend
    if backend is None:
        return None
    return (detector.serving_config.shards, backend.name, backend.workers)


def _make_dataset(seed: int, n_clusters: int, n_features: int, n_samples: int) -> np.ndarray:
    """Clustered data so random configs actually grow multi-level trees."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(n_clusters, n_features))
    assignments = rng.integers(0, n_clusters, size=n_samples)
    return centers[assignments] + rng.normal(0.0, 0.15, size=(n_samples, n_features))


def _random_config(data) -> GhsomConfig:
    return GhsomConfig(
        tau1=data.draw(st.sampled_from([0.3, 0.5])),
        tau2=data.draw(st.sampled_from([0.05, 0.15])),
        max_depth=data.draw(st.integers(1, 3)),
        max_map_size=data.draw(st.sampled_from([9, 16, 25])),
        max_growth_rounds=4,
        min_samples_for_expansion=data.draw(st.sampled_from([10, 25])),
        training=SomTrainingConfig(epochs=2),
        random_state=data.draw(st.integers(0, 2**16)),
    )


def _assert_subtrees_tile(compiled, subtrees):
    """Subtrees in entry-node order tile every non-root node, unit and leaf row."""
    n_root_units = int(compiled.node_offsets[1])
    root_leaves = int(np.sum(compiled.leaf_of_unit[:n_root_units] >= 0))
    node_bounds = [1] + [s.node_stop for s in subtrees]
    unit_bounds = [n_root_units] + [s.unit_stop for s in subtrees]
    leaf_bounds = [root_leaves] + [s.leaf_stop for s in subtrees]
    assert [s.entry_node for s in subtrees] == node_bounds[:-1]
    assert [s.unit_start for s in subtrees] == unit_bounds[:-1]
    assert [s.leaf_start for s in subtrees] == leaf_bounds[:-1]
    assert (node_bounds[-1], unit_bounds[-1], leaf_bounds[-1]) == (
        compiled.n_nodes,
        compiled.n_units,
        compiled.n_leaves,
    )
    for subtree in subtrees:
        assert compiled.child_of_unit[subtree.root_unit] == subtree.entry_node
        # A subtree's leaf segment really belongs to its node range.
        owned = compiled.leaf_node[subtree.leaf_start : subtree.leaf_stop]
        assert np.all((owned >= subtree.entry_node) & (owned < subtree.node_stop))


def _assert_same_detection(result, reference):
    assert np.array_equal(result.scores, reference.scores)
    assert np.array_equal(result.predictions, reference.predictions)
    assert np.array_equal(result.leaf_index, reference.leaf_index)
    assert np.array_equal(
        np.asarray(result.categories, dtype=object),
        np.asarray(reference.categories, dtype=object),
    )


def _copy_golden(tmp_path, name, edit):
    """Copy a committed golden artifact (and its sidecar) with an edited JSON."""
    payload = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    edit(payload)
    sidecar = FIXTURE_DIR / f"{name}.npz"
    if sidecar.exists():
        shutil.copy(sidecar, tmp_path / sidecar.name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def workload():
    """Preprocessed train/test matrices plus training labels."""
    generator = KddSyntheticGenerator(random_state=23)
    train = generator.generate(1000)
    test = generator.generate(600)
    pipeline = PreprocessingPipeline()
    return {
        "X_train": pipeline.fit_transform(train),
        "X_test": pipeline.transform(test),
        "y_train": [str(category) for category in train.categories],
    }


@pytest.fixture(scope="module")
def detector_config():
    return GhsomConfig(
        tau1=0.35,
        tau2=0.05,
        max_depth=3,
        max_map_size=36,
        min_samples_for_expansion=30,
        training=SomTrainingConfig(epochs=3),
        random_state=0,
    )


@pytest.fixture(scope="module")
def labelled_detector(workload, detector_config):
    detector = GhsomDetector(detector_config, random_state=0)
    return detector.fit(workload["X_train"], workload["y_train"])


@pytest.fixture(scope="module")
def compiled(labelled_detector):
    return labelled_detector.model.compile()


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
class TestPlanner:
    def test_subtrees_partition_the_arrays(self, compiled):
        subtrees = subtrees_from_compiled(compiled)
        n_root_units = int(compiled.node_offsets[1])
        # Every internal root unit owns exactly one subtree.
        internal = [u for u in range(n_root_units) if compiled.child_of_unit[u] >= 0]
        assert sorted(s.root_unit for s in subtrees) == internal
        _assert_subtrees_tile(compiled, subtrees)
        # Subtree node/unit/leaf ranges are disjoint and cover every non-root
        # node, every non-root unit and every non-root-level leaf.
        nodes = sorted(
            n for s in subtrees for n in range(s.entry_node, s.node_stop)
        )
        assert nodes == list(range(1, compiled.n_nodes))
        units = sorted(u for s in subtrees for u in range(s.unit_start, s.unit_stop))
        assert units == list(range(n_root_units, compiled.n_units))
        leaves = sorted(l for s in subtrees for l in range(s.leaf_start, s.leaf_stop))
        root_leaves = int(np.sum(compiled.leaf_of_unit[:n_root_units] >= 0))
        assert len(leaves) == compiled.n_leaves - root_leaves

    def test_plan_balances_and_clamps(self, compiled):
        subtrees = subtrees_from_compiled(compiled)
        plan = plan_shards(compiled, 2)
        assert plan.n_shards == min(2, len(subtrees))
        # The shards are contiguous runs covering every subtree once.
        assert plan.subtrees == subtrees
        assert plan.bounds[0] == 0 and plan.bounds[-1] == len(subtrees)
        # Asking for more shards than subtrees clamps instead of erroring.
        oversized = plan_shards(compiled, len(subtrees) + 10)
        assert oversized.n_shards == len(subtrees)
        # Every effective shard has at least one subtree: the partition
        # leaves a subtree for each shard still to come.
        assert all(
            start < stop for start, stop in zip(oversized.bounds, oversized.bounds[1:])
        )
        with pytest.raises(ConfigurationError):
            plan_shards(compiled, 0)

    @given(
        unit_counts=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        n_shards=st.integers(1, 10),
    )
    def test_partition_is_the_optimal_contiguous_split(self, unit_counts, n_shards):
        bounds = partition_bounds(unit_counts, n_shards)
        n = len(unit_counts)
        k = min(n_shards, n)
        # K above the subtree count clamps; every shard is non-empty.
        assert len(bounds) == k + 1
        assert bounds[0] == 0 and bounds[-1] == n
        assert all(start < stop for start, stop in zip(bounds, bounds[1:]))
        largest = max(
            sum(unit_counts[start:stop]) for start, stop in zip(bounds, bounds[1:])
        )
        # Brute force: the best largest shard over every split into k runs.
        best = min(
            max(sum(unit_counts[start:stop]) for start, stop in zip(cut, cut[1:]))
            for inner in itertools.combinations(range(1, n), k - 1)
            for cut in [(0, *inner, n)]
        )
        assert largest == best

    @pytest.mark.parametrize("n_shards", [0, -3])
    def test_partition_rejects_fewer_than_one_shard(self, n_shards):
        with pytest.raises(ConfigurationError):
            partition_bounds([3, 1, 2], n_shards)

    def test_depth_one_tree_has_no_subtrees(self):
        data = np.random.default_rng(0).normal(0.0, 1.0, (300, 4))
        config = GhsomConfig(
            tau1=0.5, max_depth=1, max_map_size=16,
            training=SomTrainingConfig(epochs=2), random_state=0,
        )
        compiled = Ghsom(config).fit(data).compile()
        assert subtrees_from_compiled(compiled) == ()
        engine = ShardedGhsom.from_compiled(compiled, 4)
        assert engine.n_shards == 0
        reference = compiled.assign_arrays(data)
        leaf, dist = engine.assign_arrays(data)
        np.testing.assert_array_equal(leaf, reference[0])
        np.testing.assert_array_equal(dist, reference[1])


class TestLayoutFromArrays:
    """The shard layout always comes from the compiled arrays."""

    def test_fresh_artifacts_carry_no_manifest(self, labelled_detector, tmp_path):
        assert "shard_manifest" not in detector_binary_payload(labelled_detector)[0]
        path = tmp_path / "detector.json"
        save_detector(labelled_detector, path)
        assert "shard_manifest" not in json.loads(path.read_text())

    @pytest.mark.parametrize(
        "garble",
        ["swap_root_units", "shift_node_stop", "drop_entry"],
    )
    def test_tampered_manifest_is_ignored(self, tmp_path, garble):
        def edit(payload):
            entries = payload["shard_manifest"]["root_subtrees"]
            assert len(entries) >= 2
            if garble == "swap_root_units":
                entries[0]["root_unit"], entries[-1]["root_unit"] = (
                    entries[-1]["root_unit"],
                    entries[0]["root_unit"],
                )
            elif garble == "shift_node_stop":
                entries[0]["node_stop"] += 1
                entries[0]["unit_stop"] += 1
            else:
                del entries[0]

        path = _copy_golden(tmp_path, "detector_v3", edit)
        batch = np.load(FIXTURE_DIR / "batch.npy")
        reference = load_detector(path).detect(batch)
        for n_shards in (1, 2):
            sharded = load_detector(path, overrides={"shards": n_shards})
            try:
                _assert_same_detection(sharded.detect(batch), reference)
            finally:
                _shard(sharded)

    def test_children_out_of_order_still_tile(self, tmp_path):
        """A v1 tree whose root children are stored in descending unit order."""

        def reverse_root_children(payload):
            root = payload["model"]["root"]
            root["children"] = dict(reversed(list(root["children"].items())))

        path = _copy_golden(tmp_path, "detector_v1", reverse_root_children)
        detector = load_detector(path)
        compiled = detector._compiled_model()
        subtrees = subtrees_from_compiled(compiled)
        assert len(subtrees) >= 3
        # Entry-node order is descending root-unit order here.
        assert [s.root_unit for s in subtrees] == sorted(
            (s.root_unit for s in subtrees), reverse=True
        )
        _assert_subtrees_tile(compiled, subtrees)
        batch = np.load(FIXTURE_DIR / "batch.npy")
        reference = detector.detect(batch)
        try:
            for n_shards in (2, 3):
                _shard(detector, n_shards)
                result = detector.detect(batch)
                assert result.scores.tobytes() == reference.scores.tobytes()
                _assert_same_detection(result, reference)
        finally:
            _shard(detector)


# --------------------------------------------------------------------------- #
# shards
# --------------------------------------------------------------------------- #
class TestShardSelfContainment:
    def test_shard_arrays_match_global_segments(self, labelled_detector, compiled):
        tables = labelled_detector._leaf_tables()
        plan = plan_shards(compiled, 2)
        shards = build_shards(
            compiled,
            plan,
            thresholds=tables.thresholds,
            labels=tables.labels,
            is_attack=tables.is_attack,
            purity=tables.purity,
        )
        seen_leaves = []
        for shard in shards:
            assert shard.codebook.shape == (shard.n_units, compiled.n_features)
            members = plan.subtrees[
                plan.bounds[shard.shard_id] : plan.bounds[shard.shard_id + 1]
            ]
            np.testing.assert_array_equal(
                shard.codebook,
                compiled.codebook[members[0].unit_start : members[-1].unit_stop],
            )
            # One slice of the source arrays: the codebook is a view.
            assert np.shares_memory(shard.codebook, compiled.codebook)
            # Local child/leaf indices stay inside the shard.
            assert shard.child_of_unit.max(initial=-1) < shard.n_nodes
            assert shard.leaf_of_unit.max(initial=-1) < shard.n_leaves
            # Per-leaf scoring tables are the global segments, remapped.
            np.testing.assert_array_equal(
                shard.thresholds, tables.thresholds[shard.leaf_global_row]
            )
            np.testing.assert_array_equal(
                shard.labels, tables.labels[shard.leaf_global_row]
            )
            np.testing.assert_array_equal(
                shard.is_attack, tables.is_attack[shard.leaf_global_row]
            )
            np.testing.assert_array_equal(
                shard.purity, tables.purity[shard.leaf_global_row]
            )
            seen_leaves.extend(shard.leaf_global_row.tolist())
        # Shards jointly own every non-root-level leaf exactly once.
        assert len(seen_leaves) == len(set(seen_leaves))


# --------------------------------------------------------------------------- #
# router + backends: byte-identity
# --------------------------------------------------------------------------- #
class TestShardedEquivalence:
    @pytest.mark.parametrize("backend", ["serial"])
    def test_engine_equivalence_across_shard_counts(self, compiled, workload, backend):
        X = workload["X_test"]
        reference = compiled.assign_arrays(X)
        n_subtrees = len(subtrees_from_compiled(compiled))
        for n_shards in {1, 2, max(1, n_subtrees)}:
            engine = ShardedGhsom.from_compiled(compiled, n_shards)
            assert engine.backend.name == backend
            leaf, dist = engine.assign_arrays(X)
            np.testing.assert_array_equal(leaf, reference[0])
            np.testing.assert_array_equal(dist, reference[1])
            assert dist.dtype == np.float64
            engine.close()

    def test_detector_detect_byte_identical(self, labelled_detector, workload):
        X = workload["X_test"]
        reference = labelled_detector.detect(X)
        try:
            for n_shards in (1, 3):
                _shard(labelled_detector, n_shards)
                result = labelled_detector.detect(X)
                np.testing.assert_array_equal(result.scores, reference.scores)
                np.testing.assert_array_equal(result.predictions, reference.predictions)
                np.testing.assert_array_equal(result.leaf_index, reference.leaf_index)
                assert result.categories == reference.categories
        finally:
            _shard(labelled_detector)

    def test_one_class_detector_byte_identical(self, workload, detector_config):
        detector = GhsomDetector(detector_config, random_state=0).fit(workload["X_train"])
        X = workload["X_test"]
        reference = detector.detect(X)
        _shard(detector, 4)
        result = detector.detect(X)
        np.testing.assert_array_equal(result.scores, reference.scores)
        assert result.categories == reference.categories
        _shard(detector)

    def test_sharding_survives_refit(self, workload, detector_config):
        detector = GhsomDetector(detector_config, random_state=0).fit(workload["X_train"])
        _shard(detector, 3)
        X = workload["X_test"]
        _ = detector.detect(X)
        detector.fit(workload["X_train"][:400])
        assert _layout(detector) == (3, "serial", 1)
        fresh = GhsomDetector(detector_config, random_state=0).fit(workload["X_train"][:400])
        np.testing.assert_array_equal(detector.detect(X).scores, fresh.detect(X).scores)

    def test_set_sharding_validation(self, labelled_detector):
        with pytest.raises(ConfigurationError):
            _shard(labelled_detector, -1)
        with pytest.raises(ConfigurationError, match="'provisioning' was removed"):
            labelled_detector.configure(
                labelled_detector.serving_config.with_overrides(
                    {"shards": 2, "provisioning": "quantum"}
                )
            )
        assert _layout(labelled_detector) is None  # failed calls leave it unsharded


class TestNumpyHostShardedEquivalence:
    def test_numpy_engine_equivalence_across_shard_counts(
        self, compiled, workload, compilerless_host
    ):
        # The host engine is fused where the kernel loaded; the numpy
        # router's root step (descend_node) keeps its own byte-identity gate.
        X = workload["X_test"]
        reference = compiled.assign_arrays(X)
        n_subtrees = len(subtrees_from_compiled(compiled))
        for n_shards in {1, 2, max(1, n_subtrees)}:
            engine = ShardedGhsom.from_compiled(compiled, n_shards)
            try:
                assert {shard.engine for shard in engine.shards} <= {"numpy"}
                leaf, dist = engine.assign_arrays(X)
            finally:
                engine.close()
            np.testing.assert_array_equal(leaf, reference[0])
            assert dist.tobytes() == reference[1].tobytes()


class TestShardedBundle:
    def test_load_bundle_with_shards(self, tmp_path, labelled_detector, workload):
        pipeline = PreprocessingPipeline()
        pipeline.fit_transform(KddSyntheticGenerator(random_state=23).generate(1000))
        path = tmp_path / "bundle.json"
        save_bundle(pipeline, labelled_detector, path)
        _, plain = load_bundle(path)
        _, sharded = load_bundle(path, overrides={"shards": 3})
        assert _layout(sharded) == (3, "serial", 1)
        X = workload["X_test"]
        reference = plain.detect(X)
        result = sharded.detect(X)
        np.testing.assert_array_equal(result.scores, reference.scores)
        assert result.categories == reference.categories
        # The compiled arrays — not a tree rebuild — provided the shard layout.
        assert not sharded.tree_is_materialized
        _shard(sharded)

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_parent_payload_with_pool_backend_serves_serially(
        self, labelled_detector, workload, backend
    ):
        payload, arrays = detector_binary_payload(labelled_detector)
        payload["serving_config"]["sharding"] = {
            "shards": 3,
            "workers": 2,
            "backend": backend,
            "remote_workers": None,
            "provisioning": "auto",
        }
        loaded = detector_from_dict(json.loads(json.dumps(payload)), arrays=arrays)
        assert _layout(loaded) == (3, "serial", 1)
        X = workload["X_test"]
        reference = labelled_detector.detect(X)
        result = loaded.detect(X)
        np.testing.assert_array_equal(result.scores, reference.scores)
        np.testing.assert_array_equal(result.leaf_index, reference.leaf_index)
        assert result.categories == reference.categories
        _shard(loaded)

    def test_workers_without_shards_is_rejected(self, tmp_path, labelled_detector):
        from repro.exceptions import ReproError

        pipeline = PreprocessingPipeline()
        pipeline.fit_transform(KddSyntheticGenerator(random_state=23).generate(200))
        path = tmp_path / "bundle.json"
        save_bundle(pipeline, labelled_detector, path)
        # The workers / backend knobs are gone: naming one is an error, not a
        # silently ignored flag.
        with pytest.raises(ReproError, match="'workers' was removed"):
            load_bundle(path, overrides={"workers": 4})
        with pytest.raises(ReproError, match="'backend' was removed"):
            load_bundle(path, overrides={"backend": "thread"})


# --------------------------------------------------------------------------- #
# hypothesis: the acceptance property over random models
# --------------------------------------------------------------------------- #
class TestShardedProperty:
    @given(data=st.data())
    @settings(**FIT_SETTINGS)
    def test_sharded_detect_byte_identical(self, data):
        dataset = _make_dataset(
            seed=data.draw(st.integers(0, 2**16)),
            n_clusters=data.draw(st.integers(2, 4)),
            n_features=data.draw(st.integers(2, 5)),
            n_samples=data.draw(st.integers(80, 160)),
        )
        config = _random_config(data)
        labelled = data.draw(st.booleans())
        threshold_strategy = data.draw(st.sampled_from(["per_unit", "global"]))
        labels = None
        if labelled:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            labels = [
                data_label
                for data_label in rng.choice(
                    ["normal", "dos", "probe"], size=dataset.shape[0]
                )
            ]
        detector = GhsomDetector(
            config, threshold_strategy=threshold_strategy, random_state=0
        ).fit(dataset, labels)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        queries = np.concatenate(
            [dataset[:50], dataset[:25] + rng.normal(0.0, 0.8, (25, dataset.shape[1]))]
        )
        reference = detector.detect(queries)
        n_subtrees = len(subtrees_from_compiled(detector.model.compile()))
        try:
            for n_shards in {1, 2, max(1, n_subtrees)}:
                _shard(detector, n_shards)
                result = detector.detect(queries)
                np.testing.assert_array_equal(result.scores, reference.scores)
                np.testing.assert_array_equal(result.predictions, reference.predictions)
                np.testing.assert_array_equal(result.leaf_index, reference.leaf_index)
                assert result.categories == reference.categories
        finally:
            _shard(detector)
