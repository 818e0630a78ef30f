"""Compiled flat-array inference for fitted GHSOM trees.

A fitted :class:`~repro.core.ghsom.Ghsom` is a tree of SOM layers; a
recursive descent over it (the pre-compilation path, kept as the test oracle
in ``tests/legacy_descent.py``) is correct but pays a per-sample Python tax
(one ``LeafAssignment`` dataclass per record, per-object attribute reads in
every consumer).  For batch scoring — the hot path of the anomaly
detector — that tax dominates the actual distance arithmetic.

:class:`CompiledGhsom` flattens the hierarchy once, at compile time, into a
handful of contiguous numpy arrays:

* ``codebook`` — every layer's weight matrix stacked into one ``(U, d)``
  array, with ``node_offsets`` delimiting each layer's slice;
* ``child_of_unit`` — for every global unit row, the node index of the child
  layer expanded from it (or ``-1`` when the unit is a leaf);
* ``leaf_of_unit`` — for every global unit row, its row in the *leaf table*
  (or ``-1`` for internal units);
* the leaf table itself — parallel arrays mapping leaf row to ``(node_id,
  unit)`` leaf key, depth, and owning node.

Batch scoring then becomes a per-level vectorized distance + argmin over the
*frontier* of samples still descending (a single flat argmin when the tree is
one layer deep), with zero per-sample Python objects: the result is a pair of
ndarrays ``(leaf_index, distance)``.  Leaf indices are stable integers, so any
per-leaf quantity (threshold, label, purity) can be turned into an ``(L,)``
lookup array once and applied to a batch with a single fancy-indexing
operation — this is what :class:`~repro.core.detector.GhsomDetector` builds
its vectorized scoring on.

The compiled path reproduces the legacy semantics *exactly*: best-matching-
unit search runs on squared Euclidean distance, and the reported
quantization distance is the square root of that squared distance at the
best-matching unit.  Equivalence is enforced bit-for-bit by the property
tests in ``tests/test_property_compiled.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro._typing import AnyArray
from repro.core import kernels
from repro.exceptions import DataValidationError, NotFittedError
from repro.utils.validation import check_array_2d

LeafKey = Tuple[str, int]


@dataclass(frozen=True, eq=False)
class CompiledGhsom:
    """Flat-array snapshot of a fitted GHSOM, optimised for batch inference.

    Instances are immutable snapshots produced by :func:`compile_ghsom` (or
    :meth:`repro.core.ghsom.Ghsom.compile`, which caches one per fit) and
    compare by identity (``eq=False``: the ndarray fields make element-wise
    dataclass equality both ambiguous and unhashable).

    Attributes
    ----------
    n_features:
        Input dimensionality.
    node_ids:
        Path-like id of every layer, indexed by node index (root is 0).
    node_depths:
        Depth of every layer (root is 1).
    node_offsets:
        ``(n_nodes + 1,)`` prefix sums delimiting each layer's slice of
        ``codebook``; layer ``i`` owns rows ``node_offsets[i]:node_offsets[i+1]``.
    codebook:
        ``(U, d)`` stacked weight matrix of every unit of every layer.
    child_of_unit:
        ``(U,)`` node index of the child layer expanded from each global unit
        row, ``-1`` when the unit is a leaf.
    leaf_of_unit:
        ``(U,)`` leaf-table row of each global unit, ``-1`` for internal units.
    leaf_node, leaf_unit, leaf_depth:
        ``(L,)`` parallel arrays mapping leaf row to owning node index, local
        unit index on that layer, and depth.
    leaf_keys:
        ``(node_id, unit)`` leaf identity per leaf row — the same hashable
        keys the legacy path exposes via ``LeafAssignment.leaf_key``.
    """

    n_features: int
    node_ids: Tuple[str, ...]
    node_depths: AnyArray
    node_offsets: AnyArray
    codebook: AnyArray
    child_of_unit: AnyArray
    leaf_of_unit: AnyArray
    leaf_node: AnyArray
    leaf_unit: AnyArray
    leaf_depth: AnyArray
    leaf_keys: Tuple[LeafKey, ...]
    #: Precomputed ``|w|^2`` per global unit row, reused by every batch.
    unit_norms: AnyArray
    _leaf_index_of: Dict[LeafKey, int] = field(repr=False)

    # ------------------------------------------------------------------ #
    # construction from stored arrays
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        *,
        n_features: int,
        node_ids: Sequence[str],
        node_depths: npt.ArrayLike,
        node_offsets: npt.ArrayLike,
        codebook: npt.ArrayLike,
        child_of_unit: npt.ArrayLike,
        leaf_of_unit: npt.ArrayLike,
        leaf_node: npt.ArrayLike,
        leaf_unit: npt.ArrayLike,
        leaf_depth: npt.ArrayLike,
        unit_norms: Optional[npt.ArrayLike] = None,
    ) -> "CompiledGhsom":
        """Assemble a snapshot from its defining arrays (deserialization).

        The entry point for every artifact reader: v2 payloads pass parsed
        JSON lists, the v3 binary reader passes read-only memory-mapped
        views.  Arrays already carrying the target dtype are adopted
        *without copying* — the inference path never writes to the defining
        arrays, so memmap-backed (and otherwise read-only) inputs are served
        from directly and their pages fault in on first use.  ``unit_norms``
        is derived data: passing the stored value avoids touching every
        codebook page at load time; when omitted (v2 JSON payloads do not
        store it) it is recomputed from the codebook.
        """
        def adopt(array: npt.ArrayLike, dtype: "np.dtype[Any]") -> AnyArray:
            # asanyarray + conditional conversion keeps np.memmap instances
            # intact when dtype and layout already match (always true for
            # sidecars written by this library) — the subclass is what lets
            # downstream consumers pickle these arrays by file reference.
            adopted = np.asanyarray(array)
            if adopted.dtype != dtype or not adopted.flags["C_CONTIGUOUS"]:
                adopted = np.ascontiguousarray(adopted, dtype=dtype)
            return adopted

        ids = tuple(str(node_id) for node_id in node_ids)
        book = adopt(codebook, np.dtype(float))
        lnode = adopt(leaf_node, np.dtype(np.intp))
        lunit = adopt(leaf_unit, np.dtype(np.intp))
        # tolist() first: iterating a memmap element-wise pays a Python-level
        # __getitem__ per leaf, which is most of a v3 artifact's load time.
        leaf_keys = tuple(
            (ids[node], unit)
            for node, unit in zip(lnode.tolist(), lunit.tolist(), strict=True)
        )
        norms = (
            np.einsum("ij,ij->i", book, book)
            if unit_norms is None
            else adopt(unit_norms, np.dtype(float))
        )
        return cls(
            n_features=int(n_features),
            node_ids=ids,
            node_depths=adopt(node_depths, np.dtype(np.intp)),
            node_offsets=adopt(node_offsets, np.dtype(np.intp)),
            codebook=book,
            child_of_unit=adopt(child_of_unit, np.dtype(np.intp)),
            leaf_of_unit=adopt(leaf_of_unit, np.dtype(np.intp)),
            leaf_node=lnode,
            leaf_unit=lunit,
            leaf_depth=adopt(leaf_depth, np.dtype(np.intp)),
            leaf_keys=leaf_keys,
            unit_norms=norms,
            _leaf_index_of={key: row for row, key in enumerate(leaf_keys)},
        )

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of layers in the hierarchy."""
        return len(self.node_ids)

    @property
    def n_units(self) -> int:
        """Total units across all layers."""
        return int(self.codebook.shape[0])

    @property
    def n_leaves(self) -> int:
        """Number of leaf units (rows of the leaf table)."""
        return len(self.leaf_keys)

    @property
    def max_depth(self) -> int:
        """Deepest layer of the hierarchy."""
        return int(self.node_depths.max())

    def leaf_index_of(self, key: LeafKey) -> int:
        """Leaf-table row of a ``(node_id, unit)`` key.

        Raises
        ------
        KeyError
            If the key does not name a leaf unit of this tree.
        """
        return self._leaf_index_of[key]

    def keys_of(self, leaf_indices: npt.ArrayLike) -> List[LeafKey]:
        """Leaf keys for a batch of leaf-table rows."""
        keys = self.leaf_keys
        return [keys[index] for index in np.asarray(leaf_indices, dtype=np.intp)]

    def leaf_lookup(
        self,
        getter: Callable[[LeafKey], object],
        dtype: npt.DTypeLike = float,
    ) -> AnyArray:
        """Materialise a per-leaf quantity into an ``(L,)`` lookup array.

        ``getter`` is called once per leaf key (not once per sample), so
        dict-backed quantities such as per-unit thresholds or unit labels are
        evaluated ``L`` times at compile time instead of ``n`` times per
        scored batch.
        """
        return np.array([getter(key) for key in self.leaf_keys], dtype=dtype)

    def describe(self) -> Dict[str, object]:
        """Structural summary (used by the benchmark harness and docs)."""
        return {
            "n_nodes": self.n_nodes,
            "n_units": self.n_units,
            "n_leaves": self.n_leaves,
            "max_depth": self.max_depth,
            "n_features": self.n_features,
        }

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def assign_arrays(self, data: object) -> Tuple[AnyArray, AnyArray]:
        """Leaf-table row and quantization distance for every sample.

        The descent runs on the host's engine
        (:func:`repro.core.kernels.host_engine`): the fused kernel where it
        loaded, else the numpy engine, the byte-exact reference.  The fused
        engine returns the same leaf assignments with distances inside the
        documented kernel tolerance.

        Returns
        -------
        (leaf_index, distance):
            ``leaf_index`` is an ``(n,)`` integer array of rows into the leaf
            table; ``distance`` is the ``(n,)`` float array of Euclidean
            distances — both identical to what the legacy
            recursive descent produces, with no per-sample Python objects.
        """
        return self.assign_validated(check_array_2d(data, "data"))

    def assign_validated(self, matrix: AnyArray) -> Tuple[AnyArray, AnyArray]:
        """:meth:`assign_arrays` on a matrix ``check_array_2d`` already returned.

        ``matrix`` must come from ``check_array_2d``: a caller that validates
        at its own boundary (``GhsomDetector.detect``) scans each batch for
        non-finite values once, not twice.
        """
        if matrix.shape[1] != self.n_features:
            raise DataValidationError(
                f"data has {matrix.shape[1]} features, the model expects {self.n_features}"
            )
        if kernels.host_engine() == "fused":
            leaf_index, distances = kernels.fused_descent(self, matrix)
        else:
            entry_nodes = np.zeros(matrix.shape[0], dtype=np.intp)
            leaf_index, distances = frontier_descent(
                matrix,
                entry_nodes,
                codebook=self.codebook,
                node_offsets=self.node_offsets,
                child_of_unit=self.child_of_unit,
                leaf_of_unit=self.leaf_of_unit,
                unit_norms=self.unit_norms,
            )
        return leaf_index, distances

    def transform(self, data: object) -> AnyArray:
        """Quantization distance per sample (the raw anomaly score)."""
        return self.assign_arrays(data)[1]


def descend_node(
    sub: AnyArray,
    sub_norms: AnyArray,
    rows: Optional[AnyArray],
    block: AnyArray,
    block_norms: AnyArray,
    block_children: AnyArray,
    block_leaves: AnyArray,
    leaf_index: AnyArray,
    distances: AnyArray,
) -> Tuple[AnyArray, AnyArray, AnyArray]:
    """One node of the numpy descent: best-matching units, then landings.

    ``sub`` holds the samples on the node and ``sub_norms`` their ``|x|^2``;
    ``block``, ``block_norms``, ``block_children`` and ``block_leaves`` are
    the node's slices of the codebook, unit norms, ``child_of_unit`` and
    ``leaf_of_unit``.  Samples whose unit is a leaf land: their leaf-table
    row and distance are written into ``leaf_index`` / ``distances`` at
    ``rows`` (the samples' output rows; ``None`` when ``sub`` is the whole
    output in order).  The distance is the square root of the clamped
    expanded squared distance at the argmin, the row minimum, which the
    byte-identity contract pins.  Returns ``(units, children, at_leaf)``.

    :func:`frontier_descent` and the sharded router's root step both run
    this, which is what keeps sharded scores byte-identical to the
    unsharded engine's.
    """
    # In-place |x - w|^2 = -2 x.w + |x|^2 + |w|^2: the same IEEE
    # operations as `squared_euclidean` (negation and scaling by 2
    # are exact, a - b == (-b) + a), with no (n, u) temporaries.
    d2 = sub @ block.T
    d2 *= -2.0
    d2 += sub_norms[:, None]
    d2 += block_norms[None, :]
    np.maximum(d2, 0.0, out=d2)
    units = d2.argmin(axis=1)
    children = block_children[units]
    at_leaf = children < 0
    if at_leaf.any():
        landed = np.flatnonzero(at_leaf) if rows is None else rows[at_leaf]
        leaf_index[landed] = block_leaves[units[at_leaf]]
        distances[landed] = np.sqrt(d2[at_leaf, units[at_leaf]])
    return units, children, at_leaf


def frontier_descent(
    matrix: AnyArray,
    entry_nodes: AnyArray,
    *,
    codebook: AnyArray,
    node_offsets: AnyArray,
    child_of_unit: AnyArray,
    leaf_of_unit: AnyArray,
    unit_norms: AnyArray,
) -> Tuple[AnyArray, AnyArray]:
    """Per-level vectorized BMU descent over a flat-array hierarchy.

    The core inference loop shared by :meth:`CompiledGhsom.assign_arrays`
    (every sample enters at node 0) and the sharded serving engine in
    :mod:`repro.serving` (each sample enters at its subtree's root node).
    Factoring the loop out — rather than duplicating it per engine — is what
    makes the sharded path byte-identical to the unsharded one by
    construction: both run the exact same IEEE operations on the exact same
    row groupings.

    ``matrix`` must already be validated (``check_array_2d``);
    ``entry_nodes`` holds the node index each sample starts its descent on.
    Returns ``(leaf_index, distances)``.
    """
    # A v3 artifact serves from np.memmap arrays, whose every slice and
    # gather runs Python-level __getitem__/__array_finalize__.  Plain ndarray
    # views of the same buffers skip that; the snapshot keeps the memmaps,
    # whose file regions by-reference shard provisioning sends.
    codebook = codebook.view(np.ndarray)
    child_of_unit = child_of_unit.view(np.ndarray)
    leaf_of_unit = leaf_of_unit.view(np.ndarray)
    unit_norms = unit_norms.view(np.ndarray)
    offsets: List[int] = node_offsets.tolist()
    n = matrix.shape[0]
    leaf_index = np.full(n, -1, dtype=np.intp)
    distances = np.zeros(n)
    # |x|^2 per sample, computed once and reused at every level (the
    # legacy path recomputes it per node; row-wise sums are bitwise
    # identical either way).
    sample_norms = np.einsum("ij,ij->i", matrix, matrix)
    # Frontier descent: `pending` holds the sample rows still travelling
    # down the tree, `pending_node` the node each currently sits on.
    pending = np.arange(n, dtype=np.intp)
    pending_node = np.ascontiguousarray(entry_nodes, dtype=np.intp)
    while pending.size:
        next_rows: List[AnyArray] = []
        next_nodes: List[AnyArray] = []
        # One two-key sort groups the frontier by node with ascending sample
        # order inside each group — the same per-node row sets (and therefore
        # bitwise-identical BLAS inputs and outputs) the former np.unique +
        # per-node boolean-mask pass produced, at O(p log p) per level
        # instead of O(nodes x pending) mask scans.  Ascending sample order
        # matches the legacy recursion's subset construction.
        order = np.lexsort((pending, pending_node))
        sorted_rows = pending[order]
        sorted_nodes = pending_node[order]
        boundaries = np.flatnonzero(sorted_nodes[1:] != sorted_nodes[:-1]) + 1
        run_starts = np.concatenate(([0], boundaries))
        run_stops = np.concatenate((boundaries, [sorted_nodes.size]))
        for run_begin, run_end in zip(run_starts.tolist(), run_stops.tolist(), strict=True):
            node = int(sorted_nodes[run_begin])
            rows = sorted_rows[run_begin:run_end]
            start = offsets[node]
            stop = offsets[node + 1]
            whole_batch = rows.size == n
            _, children, at_leaf = descend_node(
                matrix if whole_batch else matrix[rows],
                sample_norms if whole_batch else sample_norms[rows],
                rows,
                codebook[start:stop],
                unit_norms[start:stop],
                child_of_unit[start:stop],
                leaf_of_unit[start:stop],
                leaf_index,
                distances,
            )
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


def compile_ghsom(model: Any) -> CompiledGhsom:
    """Flatten a fitted :class:`~repro.core.ghsom.Ghsom` into a :class:`CompiledGhsom`.

    The snapshot reflects the tree at compile time; refitting the model
    requires recompiling (handled automatically by ``Ghsom.compile``).
    """
    if not getattr(model, "is_fitted", False):
        raise NotFittedError("Ghsom must be fitted before it can be compiled")
    nodes = list(model.iter_nodes())  # pre-order: parents precede children
    node_index = {node.node_id: index for index, node in enumerate(nodes)}
    unit_counts = [node.n_units for node in nodes]
    node_offsets = np.zeros(len(nodes) + 1, dtype=np.intp)
    np.cumsum(unit_counts, out=node_offsets[1:])
    codebook = np.ascontiguousarray(
        np.concatenate([node.layer.codebook for node in nodes], axis=0), dtype=float
    )
    total_units = int(node_offsets[-1])
    child_of_unit = np.full(total_units, -1, dtype=np.intp)
    leaf_of_unit = np.full(total_units, -1, dtype=np.intp)
    leaf_node: List[int] = []
    leaf_unit: List[int] = []
    leaf_depth: List[int] = []
    leaf_keys: List[LeafKey] = []
    for index, node in enumerate(nodes):
        start = int(node_offsets[index])
        for unit, child in node.children.items():
            child_of_unit[start + int(unit)] = node_index[child.node_id]
        for unit in range(node.n_units):
            if unit in node.children:
                continue
            leaf_of_unit[start + unit] = len(leaf_keys)
            leaf_node.append(index)
            leaf_unit.append(unit)
            leaf_depth.append(node.depth)
            leaf_keys.append((node.node_id, unit))
    return CompiledGhsom(
        n_features=int(model.n_features),
        node_ids=tuple(node.node_id for node in nodes),
        node_depths=np.array([node.depth for node in nodes], dtype=np.intp),
        node_offsets=node_offsets,
        codebook=codebook,
        child_of_unit=child_of_unit,
        leaf_of_unit=leaf_of_unit,
        leaf_node=np.array(leaf_node, dtype=np.intp),
        leaf_unit=np.array(leaf_unit, dtype=np.intp),
        leaf_depth=np.array(leaf_depth, dtype=np.intp),
        leaf_keys=tuple(leaf_keys),
        unit_norms=np.einsum("ij,ij->i", codebook, codebook),
        _leaf_index_of={key: row for row, key in enumerate(leaf_keys)},
    )
