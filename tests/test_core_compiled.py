"""Tests for repro.core.compiled — the flat-array GHSOM inference engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Ghsom, GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core.compiled import compile_ghsom
from repro.core.detector import combine_label_and_distance_scores
from repro.core.labeling import UNLABELED
from repro.core.serialization import detector_binary_payload, detector_from_dict
from repro.exceptions import DataValidationError, NotFittedError

from legacy_descent import assign_legacy, legacy_predict_category, legacy_score_samples


@pytest.fixture(scope="module")
def fitted_model(blob_data):
    config = GhsomConfig(
        tau1=0.4,
        tau2=0.05,
        max_depth=3,
        max_map_size=25,
        max_growth_rounds=8,
        min_samples_for_expansion=20,
        training=SomTrainingConfig(epochs=3),
        random_state=5,
    )
    return Ghsom(config).fit(blob_data)


@pytest.fixture(scope="module")
def query_data(blob_data):
    rng = np.random.default_rng(99)
    return np.clip(blob_data + rng.normal(0.0, 0.05, blob_data.shape), 0.0, 1.0)


class TestCompileStructure:
    def test_compile_is_cached_per_fit(self, fitted_model):
        assert fitted_model.compile() is fitted_model.compile()

    def test_snapshots_compare_by_identity_and_hash(self, fitted_model):
        compiled = fitted_model.compile()
        other = compile_ghsom(fitted_model)
        assert compiled == compiled
        assert compiled != other  # identity semantics, no ndarray ambiguity
        assert len({compiled, other}) == 2  # hashable

    def test_refit_invalidates_cache(self, blob_data):
        config = GhsomConfig(max_depth=1, training=SomTrainingConfig(epochs=2), random_state=0)
        model = Ghsom(config).fit(blob_data)
        first = model.compile()
        model.fit(blob_data)
        assert model.compile() is not first

    def test_unfitted_model_cannot_compile(self):
        with pytest.raises(NotFittedError):
            Ghsom().compile()
        with pytest.raises(NotFittedError):
            compile_ghsom(Ghsom())

    def test_codebook_stacks_every_layer(self, fitted_model):
        compiled = fitted_model.compile()
        assert compiled.n_nodes == fitted_model.n_maps
        assert compiled.n_units == fitted_model.n_units
        assert compiled.codebook.shape == (fitted_model.n_units, fitted_model.n_features)
        for index, node in enumerate(fitted_model.iter_nodes()):
            start = compiled.node_offsets[index]
            stop = compiled.node_offsets[index + 1]
            np.testing.assert_array_equal(compiled.codebook[start:stop], node.layer.codebook)
            assert compiled.node_ids[index] == node.node_id

    def test_units_partition_into_children_and_leaves(self, fitted_model):
        compiled = fitted_model.compile()
        is_child = compiled.child_of_unit >= 0
        is_leaf = compiled.leaf_of_unit >= 0
        assert np.all(is_child ^ is_leaf)
        assert int(is_leaf.sum()) == fitted_model.n_leaf_units == compiled.n_leaves

    def test_leaf_keys_match_tree_leaves(self, fitted_model):
        compiled = fitted_model.compile()
        expected = {
            (node.node_id, unit)
            for node in fitted_model.iter_nodes()
            for unit in range(node.n_units)
            if unit not in node.children
        }
        assert set(compiled.leaf_keys) == expected
        assert len(set(compiled.leaf_keys)) == len(compiled.leaf_keys)

    def test_leaf_index_round_trip(self, fitted_model):
        compiled = fitted_model.compile()
        for row, key in enumerate(compiled.leaf_keys):
            assert compiled.leaf_index_of(key) == row
        with pytest.raises(KeyError):
            compiled.leaf_index_of(("no-such-node", 0))

    def test_leaf_depths_match_node_depths(self, fitted_model):
        compiled = fitted_model.compile()
        for row in range(compiled.n_leaves):
            node_id = compiled.leaf_keys[row][0]
            assert compiled.leaf_depth[row] == fitted_model.get_node(node_id).depth
        assert compiled.max_depth == fitted_model.depth

    def test_leaf_lookup_builds_aligned_arrays(self, fitted_model):
        compiled = fitted_model.compile()
        units = compiled.leaf_lookup(lambda key: key[1], dtype=int)
        np.testing.assert_array_equal(units, compiled.leaf_unit)

    def test_describe_summary(self, fitted_model):
        summary = fitted_model.compile().describe()
        assert summary["n_nodes"] == fitted_model.n_maps
        assert summary["max_depth"] == fitted_model.depth
        assert summary["metric"] == "euclidean"


class TestAssignEquivalence:
    def test_assign_arrays_matches_legacy(self, fitted_model, query_data):
        compiled = fitted_model.compile()
        leaf_index, distances = compiled.assign_arrays(query_data)
        legacy = assign_legacy(fitted_model, query_data)
        assert len(legacy) == leaf_index.shape[0] == query_data.shape[0]
        assert [compiled.leaf_keys[row] for row in leaf_index] == [
            assignment.leaf_key for assignment in legacy
        ]
        np.testing.assert_array_equal(
            distances, np.array([assignment.distance for assignment in legacy])
        )

    def test_assign_builds_identical_dataclasses(self, fitted_model, query_data):
        fast = fitted_model.assign(query_data)
        legacy = assign_legacy(fitted_model, query_data)
        assert fast == legacy

    def test_transform_and_leaf_keys_fast_paths(self, fitted_model, query_data):
        legacy = assign_legacy(fitted_model, query_data)
        np.testing.assert_array_equal(
            fitted_model.transform(query_data),
            np.array([assignment.distance for assignment in legacy]),
        )
        assert fitted_model.leaf_keys(query_data) == [
            assignment.leaf_key for assignment in legacy
        ]

    def test_single_sample(self, fitted_model, query_data):
        leaf_index, distances = fitted_model.assign_arrays(query_data[:1])
        assert leaf_index.shape == (1,)
        assert distances.shape == (1,)

    def test_feature_mismatch_rejected(self, fitted_model):
        with pytest.raises(DataValidationError):
            fitted_model.assign_arrays(np.zeros((3, fitted_model.n_features + 1)))

    def test_compiled_transform_shortcut(self, fitted_model, query_data):
        compiled = fitted_model.compile()
        np.testing.assert_array_equal(
            compiled.transform(query_data), fitted_model.transform(query_data)
        )


class TestDetectorEquivalence:
    @pytest.fixture(scope="class")
    def labeled_detector(self, fast_config, train_matrix, train_categories):
        return GhsomDetector(fast_config, random_state=0).fit(train_matrix, train_categories)

    @pytest.fixture(scope="class")
    def unlabeled_detector(self, fast_config, train_matrix):
        return GhsomDetector(fast_config, random_state=0).fit(train_matrix)

    def test_labeled_scores_identical(self, labeled_detector, test_matrix):
        np.testing.assert_array_equal(
            labeled_detector.score_samples(test_matrix),
            legacy_score_samples(labeled_detector, test_matrix),
        )

    def test_unlabeled_scores_identical(self, unlabeled_detector, test_matrix):
        np.testing.assert_array_equal(
            unlabeled_detector.score_samples(test_matrix),
            legacy_score_samples(unlabeled_detector, test_matrix),
        )

    def test_predictions_identical(self, labeled_detector, test_matrix):
        np.testing.assert_array_equal(
            labeled_detector.predict(test_matrix),
            (legacy_score_samples(labeled_detector, test_matrix) > 1.0).astype(int),
        )

    def test_categories_identical(self, labeled_detector, test_matrix):
        fast = labeled_detector.predict_category(test_matrix)
        assert fast == legacy_predict_category(labeled_detector, test_matrix)
        assert all(isinstance(category, str) for category in fast)

    def test_global_threshold_strategy_identical(self, fast_config, train_matrix, test_matrix):
        detector = GhsomDetector(
            fast_config, threshold_strategy="global", random_state=0
        ).fit(train_matrix)
        np.testing.assert_array_equal(
            detector.score_samples(test_matrix), legacy_score_samples(detector, test_matrix)
        )

    def test_serialization_round_trip_scores_identical(self, labeled_detector, test_matrix):
        payload, arrays = detector_binary_payload(labeled_detector)
        restored = detector_from_dict(payload, arrays=arrays)
        np.testing.assert_array_equal(
            restored.score_samples(test_matrix), labeled_detector.score_samples(test_matrix)
        )
        assert restored.predict_category(test_matrix) == labeled_detector.predict_category(
            test_matrix
        )

    def test_swapping_threshold_strategy_takes_effect(self, fast_config, train_matrix, test_matrix):
        """Externally replacing ``threshold_`` must invalidate the leaf tables."""
        from repro.core.thresholds import GlobalThreshold

        detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix)
        detector.score_samples(test_matrix)  # tables cached
        replacement = GlobalThreshold(percentile=50.0).fit(
            detector.model.transform(train_matrix)
        )
        detector.threshold_ = replacement
        batch = train_matrix[:7]
        expected = detector.model.transform(batch) / replacement.threshold
        np.testing.assert_array_equal(detector.score_samples(batch), expected)

    def test_in_place_threshold_refit_takes_effect(self, fast_config, train_matrix):
        """Refitting the *same* strategy object must also invalidate the tables."""
        detector = GhsomDetector(
            fast_config, threshold_strategy="global", random_state=0
        ).fit(train_matrix)
        batch = train_matrix[:9]
        detector.score_samples(batch)  # tables cached
        distances = detector.model.transform(train_matrix)
        detector.threshold_.percentile = 50.0
        detector.threshold_.fit(distances)  # in-place recalibration
        expected = detector.model.transform(batch) / detector.threshold_.threshold
        np.testing.assert_array_equal(detector.score_samples(batch), expected)

    def test_refit_rebuilds_leaf_tables(self, fast_config, train_matrix, train_categories):
        detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix)
        first_tables = detector._leaf_tables()
        detector.fit(train_matrix, train_categories)
        second_tables = detector._leaf_tables()
        assert second_tables is not first_tables
        assert second_tables.labels is not None


class TestCombineLabelAndDistanceScores:
    def _reference(self, ratios, leaf_keys, labeler):
        ratios = np.asarray(ratios, dtype=float)
        scores = ratios.copy()
        for index, key in enumerate(leaf_keys):
            info = labeler.info_of(key)
            if info.label not in ("normal", UNLABELED):
                scores[index] = 1.0 + info.purity + 0.01 * min(ratios[index], 10.0)
        return scores

    def test_vectorized_matches_reference(self, fast_config, train_matrix, train_categories):
        detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix, train_categories)
        leaf_keys = detector.model.leaf_keys(train_matrix)
        rng = np.random.default_rng(0)
        ratios = rng.uniform(0.0, 12.0, len(leaf_keys))
        np.testing.assert_array_equal(
            combine_label_and_distance_scores(ratios, leaf_keys, detector.labeler),
            self._reference(ratios, leaf_keys, detector.labeler),
        )

    def test_no_labeler_returns_ratios(self):
        ratios = np.array([0.5, 2.0])
        np.testing.assert_array_equal(
            combine_label_and_distance_scores(ratios, [("root", 0), ("root", 1)], None), ratios
        )

    def test_empty_batch(self, fast_config, train_matrix, train_categories):
        detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix, train_categories)
        result = combine_label_and_distance_scores(np.zeros(0), [], detector.labeler)
        assert result.shape == (0,)


class TestFrontierGroupingRegression:
    """The argsort-based frontier grouping is a pure execution-plan change.

    The previous grouping (``np.unique`` over the frontier's nodes + one
    boolean-mask scan per node) and the current single-``np.lexsort`` run
    detection must produce byte-identical outputs: both visit nodes in
    ascending order with ascending sample rows inside each group, so every
    per-node GEMM sees the same operand bytes.  This reference reimplements
    the old grouping verbatim and compares on a wide multi-level tree.
    """

    @staticmethod
    def _unique_mask_descent(matrix, entry_nodes, compiled):
        codebook = compiled.codebook
        node_offsets = compiled.node_offsets
        child_of_unit = compiled.child_of_unit
        leaf_of_unit = compiled.leaf_of_unit
        unit_norms = compiled.unit_norms
        n = matrix.shape[0]
        leaf_index = np.full(n, -1, dtype=np.intp)
        distances = np.zeros(n, dtype=codebook.dtype)
        sample_norms = np.einsum("ij,ij->i", matrix, matrix)
        pending = np.arange(n, dtype=np.intp)
        pending_node = np.ascontiguousarray(entry_nodes, dtype=np.intp)
        while pending.size:
            next_rows = []
            next_nodes = []
            for node in np.unique(pending_node):
                mask = pending_node == node
                rows = pending[mask]
                start = int(node_offsets[node])
                stop = int(node_offsets[node + 1])
                block = codebook[start:stop]
                whole_batch = rows.size == n
                sub = matrix if whole_batch else matrix[rows]
                d2 = sub @ block.T
                d2 *= -2.0
                d2 += (sample_norms if whole_batch else sample_norms[rows])[:, None]
                d2 += unit_norms[start:stop][None, :]
                np.maximum(d2, 0.0, out=d2)
                units = np.argmin(d2, axis=1)
                global_units = start + units
                children = child_of_unit[global_units]
                at_leaf = children < 0
                if at_leaf.any():
                    leaf_rows = rows[at_leaf]
                    leaf_index[leaf_rows] = leaf_of_unit[global_units[at_leaf]]
                    best = d2[at_leaf].min(axis=1)
                    if compiled.metric == "euclidean":
                        best = np.sqrt(best)
                    distances[leaf_rows] = best
                descending = ~at_leaf
                if descending.any():
                    next_rows.append(rows[descending])
                    next_nodes.append(children[descending])
            if next_rows:
                pending = np.concatenate(next_rows)
                pending_node = np.concatenate(next_nodes).astype(np.intp, copy=False)
            else:
                pending = np.empty(0, dtype=np.intp)
                pending_node = pending
        return leaf_index, distances

    def test_byte_identical_on_wide_tree(self, train_matrix, train_categories, test_matrix):
        # A wide config: large maps keep many sibling nodes live on every
        # frontier level, which is exactly where the grouping strategies
        # could diverge.
        config = GhsomConfig(
            tau1=0.3,
            tau2=0.05,
            max_depth=3,
            max_map_size=64,
            max_growth_rounds=10,
            min_samples_for_expansion=20,
            training=SomTrainingConfig(epochs=3),
            random_state=0,
        )
        detector = GhsomDetector(config, random_state=0).fit(train_matrix, train_categories)
        compiled = detector.model.compile()
        assert compiled.n_nodes > 8, "fixture tree is not wide enough to exercise grouping"
        matrix = np.ascontiguousarray(test_matrix, dtype=compiled.codebook.dtype)
        entries = np.zeros(matrix.shape[0], dtype=np.intp)
        expected = self._unique_mask_descent(matrix, entries, compiled)
        actual = compiled.assign_arrays(test_matrix)
        np.testing.assert_array_equal(actual[0], expected[0])
        np.testing.assert_array_equal(actual[1], expected[1].astype(np.float64))
        assert actual[1].tobytes() == expected[1].astype(np.float64).tobytes()
