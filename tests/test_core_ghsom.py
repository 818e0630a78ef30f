"""Tests for repro.core.ghsom (the hierarchical model)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.core.ghsom import Ghsom
from repro.exceptions import DataValidationError, NotFittedError


@pytest.fixture(scope="module")
def hierarchical_data(rng):
    """Two coarse clusters, each containing two sub-clusters (forces hierarchy)."""
    coarse_centers = np.array([[0.15, 0.15, 0.15, 0.15], [0.85, 0.85, 0.85, 0.85]])
    fine_offsets = np.array([[0.06, -0.06, 0.06, -0.06], [-0.06, 0.06, -0.06, 0.06]])
    blocks = []
    for coarse in coarse_centers:
        for fine in fine_offsets:
            blocks.append(coarse + fine + rng.normal(0.0, 0.015, size=(120, 4)))
    return np.clip(np.concatenate(blocks, axis=0), 0.0, 1.0)


@pytest.fixture(scope="module")
def deep_config():
    return GhsomConfig(
        tau1=0.5,
        tau2=0.08,
        max_depth=3,
        max_map_size=25,
        max_growth_rounds=8,
        min_samples_for_expansion=40,
        training=SomTrainingConfig(epochs=4),
        random_state=0,
    )


@pytest.fixture(scope="module")
def fitted_ghsom(hierarchical_data, deep_config):
    return Ghsom(deep_config).fit(hierarchical_data)


class TestFitting:
    def test_unfitted_model_raises(self, hierarchical_data):
        model = Ghsom(GhsomConfig())
        with pytest.raises(NotFittedError):
            model.assign(hierarchical_data)
        with pytest.raises(NotFittedError):
            model.topology_summary()

    def test_qe0_positive(self, fitted_ghsom):
        assert fitted_ghsom.qe0 > 0.0

    def test_root_exists_with_depth_one(self, fitted_ghsom):
        assert fitted_ghsom.root is not None
        assert fitted_ghsom.root.depth == 1
        assert fitted_ghsom.root.node_id == "root"

    def test_hierarchy_grows_on_nested_data(self, fitted_ghsom):
        """Hierarchical data with tau2 low enough must produce child maps."""
        assert fitted_ghsom.n_maps > 1
        assert fitted_ghsom.depth >= 2

    def test_depth_respects_max_depth(self, hierarchical_data):
        config = GhsomConfig(
            tau1=0.5,
            tau2=0.01,
            max_depth=2,
            max_map_size=16,
            training=SomTrainingConfig(epochs=3),
            random_state=0,
        )
        model = Ghsom(config).fit(hierarchical_data)
        assert model.depth <= 2

    def test_degenerate_identical_data(self):
        data = np.tile([0.3, 0.3, 0.3], (60, 1))
        model = Ghsom(
            GhsomConfig(training=SomTrainingConfig(epochs=2), max_map_size=9, random_state=0)
        ).fit(data)
        assert model.is_fitted
        assert model.n_maps == 1

    def test_reproducible_with_same_seed(self, hierarchical_data, deep_config):
        first = Ghsom(deep_config).fit(hierarchical_data)
        second = Ghsom(deep_config).fit(hierarchical_data)
        assert first.topology_summary() == second.topology_summary()

    def test_seeded_fit_is_byte_identical(self):
        # Pins the batch training rule (Gaussian neighbourhood, exp(-4t)
        # radius schedule, growth decisions) bit for bit: any change to the
        # arithmetic of a layer's fit moves this digest.
        rng = np.random.default_rng(7)
        centres = rng.uniform(0.0, 1.0, size=(6, 6))
        data = centres[rng.integers(0, 6, size=1500)] + rng.normal(0.0, 0.05, size=(1500, 6))
        config = GhsomConfig(training=SomTrainingConfig(epochs=4), random_state=7)
        model = Ghsom(config).fit(data)
        digest = hashlib.sha256()
        for node in model.iter_nodes():
            digest.update(node.node_id.encode())
            digest.update(np.ascontiguousarray(node.layer.codebook).tobytes())
        assert (model.n_maps, model.n_units, model.depth) == (7, 744, 2)
        assert digest.hexdigest() == (
            "fe454df3bece6c139b5b82bac4282dac275e673f36ea1e91ac6ba0a7930e386d"
        )

    def test_node_ids_are_unique_paths(self, fitted_ghsom):
        node_ids = [node.node_id for node in fitted_ghsom.iter_nodes()]
        assert len(node_ids) == len(set(node_ids))
        for node in fitted_ghsom.iter_nodes():
            if node.parent_unit is not None:
                assert node.node_id.endswith(f"/{node.parent_unit}")

    def test_children_trained_on_fewer_samples_than_parent(self, fitted_ghsom):
        for node in fitted_ghsom.iter_nodes():
            for unit, child in node.children.items():
                assert child.unit_count.sum() <= node.unit_count[unit]


class TestAssignment:
    def test_every_sample_gets_a_leaf(self, fitted_ghsom, hierarchical_data):
        assignments = fitted_ghsom.assign(hierarchical_data)
        assert len(assignments) == hierarchical_data.shape[0]

    def test_leaf_units_have_no_children(self, fitted_ghsom, hierarchical_data):
        assignments = fitted_ghsom.assign(hierarchical_data)
        for assignment in assignments[:50]:
            node = fitted_ghsom.get_node(assignment.node_id)
            assert assignment.unit not in node.children

    def test_distances_non_negative(self, fitted_ghsom, hierarchical_data):
        scores = fitted_ghsom.transform(hierarchical_data)
        assert np.all(scores >= 0.0)

    def test_training_data_has_small_distances(self, fitted_ghsom, hierarchical_data):
        scores = fitted_ghsom.transform(hierarchical_data)
        outlier = np.full((1, 4), 2.0)  # far outside the [0, 1] data range
        outlier_score = fitted_ghsom.transform(outlier)[0]
        assert outlier_score > np.percentile(scores, 99)

    def test_wrong_dimensionality_rejected(self, fitted_ghsom):
        with pytest.raises(DataValidationError):
            fitted_ghsom.assign(np.zeros((3, 7)))

    def test_leaf_keys_align_with_assign(self, fitted_ghsom, hierarchical_data):
        subset = hierarchical_data[:20]
        keys = fitted_ghsom.leaf_keys(subset)
        assignments = fitted_ghsom.assign(subset)
        assert keys == [assignment.leaf_key for assignment in assignments]

    def test_hierarchy_separates_subclusters(self, fitted_ghsom, hierarchical_data):
        """Samples from different sub-clusters should mostly land on different leaves."""
        keys = fitted_ghsom.leaf_keys(hierarchical_data)
        first_block = set(keys[:120])
        third_block = set(keys[240:360])
        assert first_block.isdisjoint(third_block)


class TestStructureInspection:
    def test_topology_summary_consistency(self, fitted_ghsom):
        summary = fitted_ghsom.topology_summary()
        assert summary["n_maps"] == fitted_ghsom.n_maps
        assert summary["n_units"] == fitted_ghsom.n_units
        assert summary["n_leaf_units"] <= summary["n_units"]
        assert summary["depth"] == fitted_ghsom.depth
        assert summary["max_units_per_map"] <= fitted_ghsom.config.max_map_size

    def test_get_node_by_id(self, fitted_ghsom):
        assert fitted_ghsom.get_node("root") is fitted_ghsom.root
        with pytest.raises(KeyError):
            fitted_ghsom.get_node("root/999999")

    def test_growth_history_covers_every_map(self, fitted_ghsom):
        history = fitted_ghsom.growth_history()
        assert set(history) == {node.node_id for node in fitted_ghsom.iter_nodes()}
        for events in history.values():
            assert len(events) >= 1

    def test_smaller_tau2_gives_deeper_or_equal_hierarchy(self, hierarchical_data):
        shallow_config = GhsomConfig(
            tau1=0.5, tau2=0.5, max_depth=4, max_map_size=16,
            training=SomTrainingConfig(epochs=3), random_state=0,
        )
        deep_config = GhsomConfig(
            tau1=0.5, tau2=0.03, max_depth=4, max_map_size=16,
            training=SomTrainingConfig(epochs=3), random_state=0,
        )
        shallow = Ghsom(shallow_config).fit(hierarchical_data)
        deep = Ghsom(deep_config).fit(hierarchical_data)
        assert deep.n_maps >= shallow.n_maps
