"""The Growing Hierarchical Self-Organizing Map (GHSOM).

A GHSOM is a tree of growing SOM layers:

* the **root layer** is grown on the whole training set with the breadth
  target ``tau1 * qe0``, where ``qe0`` is the quantization error of the data
  around its global mean;
* after a layer stabilises, every unit whose quantization error is still
  larger than the depth threshold ``tau2 * qe0`` — and which has enough
  mapped samples — is **expanded** into a child layer trained only on the
  samples mapped to that unit, with breadth target ``tau1 * qe_unit``;
* expansion recurses until ``max_depth`` or until no unit violates the depth
  criterion.

Inference descends the tree: a sample's best matching unit is found on the
root layer, then on that unit's child layer (if any), and so on until a leaf
unit is reached.  The leaf identity and the distance to its weight vector are
the raw outputs every detector in this library builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.compiled import CompiledGhsom, compile_ghsom
from repro.core.config import GhsomConfig
from repro.core.growing_som import GrowingSom
from repro.core.quantization import dataset_quantization_error
from repro.exceptions import NotFittedError
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs
from repro.utils.validation import check_array_2d


@dataclass
class GhsomNode:
    """One layer of the GHSOM hierarchy.

    Attributes
    ----------
    node_id:
        Path-like identifier: ``"root"`` for the root layer, ``"root/3"`` for
        the child layer expanded from unit 3 of the root, and so on.
    layer:
        The trained :class:`~repro.core.growing_som.GrowingSom`.
    depth:
        Depth in the hierarchy (the root layer has depth 1).
    parent_unit:
        Flat unit index in the parent layer this node was expanded from
        (``None`` for the root).
    children:
        Mapping from unit index on this layer to the child node expanded
        from it.
    unit_qe, unit_count:
        Per-unit quantization error and training-sample count recorded at fit
        time (used for expansion decisions, inspection and thresholds).
    """

    node_id: str
    layer: GrowingSom
    depth: int
    parent_unit: Optional[int] = None
    children: Dict[int, "GhsomNode"] = field(default_factory=dict)
    unit_qe: np.ndarray = field(default_factory=lambda: np.zeros(0))
    unit_count: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    @property
    def n_units(self) -> int:
        """Number of units on this layer."""
        return self.layer.n_units

    def iter_subtree(self) -> Iterator["GhsomNode"]:
        """Yield this node and every descendant (pre-order)."""
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()


@dataclass(frozen=True)
class LeafAssignment:
    """Where one sample landed in the hierarchy."""

    node_id: str
    unit: int
    depth: int
    distance: float

    @property
    def leaf_key(self) -> Tuple[str, int]:
        """Hashable identity of the leaf unit."""
        return (self.node_id, self.unit)


class Ghsom:
    """Growing Hierarchical Self-Organizing Map.

    Parameters
    ----------
    config:
        All growth and training hyper-parameters (see :class:`GhsomConfig`).
    random_state:
        Overrides ``config.random_state`` when given.

    Example
    -------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = np.concatenate([rng.normal(0, 0.1, (100, 4)), rng.normal(1, 0.1, (100, 4))])
    >>> model = Ghsom(GhsomConfig(tau1=0.5, tau2=0.2, max_depth=2))
    >>> _ = model.fit(data)
    >>> model.n_maps >= 1
    True
    """

    def __init__(
        self,
        config: Optional[GhsomConfig] = None,
        random_state: RandomState = None,
    ) -> None:
        self.config = config or GhsomConfig()
        seed = self.config.random_state if random_state is None else random_state
        self._rng = ensure_rng(seed)
        self.root: Optional[GhsomNode] = None
        self.qe0: float = 0.0
        self.n_features: Optional[int] = None
        self._compiled: Optional[CompiledGhsom] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.root is not None

    def _check_fitted(self) -> None:
        if self.root is None:
            raise NotFittedError("Ghsom must be fitted before it can be used")

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, data) -> "Ghsom":
        """Build the hierarchy on ``data``."""
        self._compiled = None
        matrix = check_array_2d(data, "data", min_rows=2)
        self.n_features = matrix.shape[1]
        self.qe0 = dataset_quantization_error(matrix)
        if self.qe0 == 0.0:
            # Degenerate dataset (all rows identical): a single 2x2 layer suffices.
            self.qe0 = 1e-12
        root_layer = GrowingSom(
            n_features=self.n_features,
            config=self.config,
            parent_qe=self.qe0,
            random_state=self._rng,
        )
        root_layer.fit(matrix)
        self.root = GhsomNode(node_id="root", layer=root_layer, depth=1)
        self._record_unit_statistics(self.root, matrix)
        self._expand_node(self.root, matrix)
        return self

    def _record_unit_statistics(self, node: GhsomNode, data: np.ndarray) -> None:
        node.unit_qe = node.layer.unit_errors(data)
        node.unit_count = node.layer.unit_counts(data)

    def _expand_node(self, node: GhsomNode, data: np.ndarray) -> None:
        """Vertically expand the units of ``node`` that violate the depth criterion."""
        if node.depth >= self.config.max_depth:
            return
        assignments = node.layer.transform(data)
        depth_threshold = self.config.tau2 * self.qe0
        expandable_units = [
            unit
            for unit in range(node.n_units)
            if node.unit_count[unit] >= self.config.min_samples_for_expansion
            and node.unit_qe[unit] > depth_threshold
        ]
        if not expandable_units:
            return
        child_rngs = spawn_rngs(self._rng, len(expandable_units))
        for unit, child_rng in zip(expandable_units, child_rngs, strict=True):
            subset = data[assignments == unit]
            if subset.shape[0] < self.config.min_samples_for_expansion:
                continue
            child_layer = GrowingSom(
                n_features=self.n_features,
                config=self.config,
                parent_qe=float(node.unit_qe[unit]),
                random_state=child_rng,
            )
            child_layer.fit(subset)
            child = GhsomNode(
                node_id=f"{node.node_id}/{unit}",
                layer=child_layer,
                depth=node.depth + 1,
                parent_unit=unit,
            )
            self._record_unit_statistics(child, subset)
            node.children[unit] = child
            self._expand_node(child, subset)

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def compile(self) -> CompiledGhsom:
        """The flat-array inference engine for this tree (compiled once per fit).

        The snapshot is cached; :meth:`fit` invalidates it.  See
        :mod:`repro.core.compiled` for the representation.
        """
        self._check_fitted()
        if self._compiled is None:
            self._compiled = compile_ghsom(self)
        return self._compiled

    def assign_arrays(self, data) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized leaf assignment: ``(leaf_index, distance)`` ndarrays.

        ``leaf_index`` rows index the compiled leaf table
        (``self.compile().leaf_keys``); no per-sample Python objects are
        created.  This is the fast path every batch consumer should use.
        """
        return self.compile().assign_arrays(data)

    def assign(self, data) -> List[LeafAssignment]:
        """Descend the hierarchy for every sample and return its leaf assignment."""
        compiled = self.compile()
        leaf_index, distances = compiled.assign_arrays(data)
        keys = compiled.leaf_keys
        depths = compiled.leaf_depth
        return [
            LeafAssignment(
                node_id=keys[row][0],
                unit=keys[row][1],
                depth=int(depths[row]),
                distance=float(distance),
            )
            for row, distance in zip(leaf_index, distances, strict=True)
        ]

    def transform(self, data) -> np.ndarray:
        """Distance of each sample to its leaf BMU (the raw anomaly score)."""
        return self.assign_arrays(data)[1]

    def leaf_keys(self, data) -> List[Tuple[str, int]]:
        """``(node_id, unit)`` leaf identity per sample."""
        compiled = self.compile()
        leaf_index, _ = compiled.assign_arrays(data)
        return compiled.keys_of(leaf_index)

    # ------------------------------------------------------------------ #
    # structure inspection
    # ------------------------------------------------------------------ #
    def iter_nodes(self) -> Iterator[GhsomNode]:
        """Iterate over every layer of the hierarchy (pre-order)."""
        self._check_fitted()
        yield from self.root.iter_subtree()

    def get_node(self, node_id: str) -> GhsomNode:
        """Look a layer up by its ``node_id``."""
        for node in self.iter_nodes():
            if node.node_id == node_id:
                return node
        raise KeyError(f"no GHSOM node with id {node_id!r}")

    @property
    def n_maps(self) -> int:
        """Total number of layers in the hierarchy."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def n_units(self) -> int:
        """Total number of units across all layers."""
        return sum(node.n_units for node in self.iter_nodes())

    @property
    def n_leaf_units(self) -> int:
        """Units that have no child layer (the ones samples can land on)."""
        return sum(
            1
            for node in self.iter_nodes()
            for unit in range(node.n_units)
            if unit not in node.children
        )

    @property
    def depth(self) -> int:
        """Maximum depth of the hierarchy."""
        return max(node.depth for node in self.iter_nodes())

    def topology_summary(self) -> Dict[str, object]:
        """Structural statistics used by the topology experiment (Table 5)."""
        self._check_fitted()
        nodes = list(self.iter_nodes())
        units_per_map = [node.n_units for node in nodes]
        return {
            "n_maps": len(nodes),
            "n_units": int(np.sum(units_per_map)),
            "n_leaf_units": self.n_leaf_units,
            "depth": self.depth,
            "mean_units_per_map": float(np.mean(units_per_map)),
            "max_units_per_map": int(np.max(units_per_map)),
            "qe0": float(self.qe0),
            "tau1": self.config.tau1,
            "tau2": self.config.tau2,
        }

    def growth_history(self) -> Dict[str, List]:
        """Growth trajectories of every layer, keyed by node id (Figure 3)."""
        self._check_fitted()
        return {node.node_id: list(node.layer.growth_history) for node in self.iter_nodes()}
