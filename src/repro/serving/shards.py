"""Self-contained subtree shards of a compiled GHSOM.

A :class:`SubtreeShard` carries everything one worker needs to finish the
descent of the samples routed to it: its own codebook slice, local topology
arrays, its segment of the leaf table with per-leaf scoring tables, and the
``leaf_global_row`` remap that makes merged results indistinguishable from
the unsharded engine's.  Shards are plain dataclasses of ndarrays, so the
remote backend can ship their field states to shard workers.

Scoring inside a shard runs the exact
:func:`~repro.core.compiled.frontier_descent` loop of the unsharded engine —
same arithmetic, same per-node row grouping — which is what keeps the merged
output byte-identical.

When the source model was loaded from a v3 binary artifact, shard slicing
preserves the memory mapping: a shard whose subtrees form one contiguous run
keeps codebook/norm *views* into the single file mapping instead of copying
its slice, so a K-shard load maps the artifact once.  Shards also pickle
memmap-backed arrays **by reference** (``__getstate__`` swaps them for
``(path, dtype, shape, offset)`` descriptors; ``__setstate__`` re-opens the
mapping) — the remote backend's by-reference provisioning sends those
descriptors, so a worker holding the artifact maps its own copy of the
sidecar instead of receiving the codebook bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro._typing import AnyArray
from repro.core import kernels
from repro.core.compiled import CompiledGhsom, frontier_descent
from repro.serving.planner import RootSubtree, ShardPlan
from repro.utils.mmapio import array_from_portable, array_to_portable


@dataclass(frozen=True, eq=False)
class SubtreeShard:
    """One shard: a group of root subtrees flattened into local arrays.

    Node, unit and leaf indices inside the shard are *local* (0-based over
    the shard's own arrays); ``leaf_global_row`` maps local leaf rows back to
    the global leaf table, and ``root_units`` / ``entry_local_node`` tell the
    router where each owned root unit's descent enters the shard.
    """

    shard_id: int
    metric: str
    n_features: int
    #: Global root-layer unit rows owned by this shard, with the local node
    #: index each one's descent enters at (parallel arrays).
    root_units: AnyArray
    entry_local_node: AnyArray
    #: Local flat-array hierarchy (same layout as ``CompiledGhsom``).
    node_offsets: AnyArray
    codebook: AnyArray
    child_of_unit: AnyArray
    leaf_of_unit: AnyArray
    unit_norms: AnyArray
    #: Local leaf row -> global leaf-table row.
    leaf_global_row: AnyArray
    #: Per-leaf scoring-table segments (present when the owning detector has
    #: them): a worker holding the shard can score to final ratios/labels
    #: without any global state.
    thresholds: Optional[AnyArray] = None
    labels: Optional[AnyArray] = None
    is_attack: Optional[AnyArray] = None
    purity: Optional[AnyArray] = None
    #: Compute engine for this shard's descents (``None`` = library default).
    #: Resolution is per call and *non-strict*: a shard pickled to a worker
    #: without a fused-kernel provider silently degrades to the numpy engine
    #: rather than failing the batch (the remote byte-identity contract only
    #: holds under the numpy default anyway).
    engine: Optional[str] = None

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets.shape[0] - 1)

    @property
    def n_units(self) -> int:
        return int(self.codebook.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_global_row.shape[0])

    def __getstate__(self) -> Dict[str, object]:
        # Memmap-backed arrays travel as (path, dtype, shape, offset)
        # references — a worker re-opens the artifact mapping instead of
        # receiving the codebook bytes through the pickle stream.
        state: Dict[str, object] = {}
        for field_info in fields(self):
            value = getattr(self, field_info.name)
            state[field_info.name] = (
                array_to_portable(value) if isinstance(value, np.ndarray) else value
            )
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            # repro-lint: disable=RPL005 -- rehydrating the frozen dataclass
            # from its portable pickle state; mirrors what __init__ would do.
            object.__setattr__(self, name, array_from_portable(value))

    def assign_entries(
        self, matrix: AnyArray, entry_nodes: AnyArray
    ) -> Tuple[AnyArray, AnyArray]:
        """Descend the shard for a routed sub-batch.

        ``matrix`` is the router-prepared sub-batch (already validated and
        cast to the serving dtype); ``entry_nodes`` holds each row's local
        entry node.  Returns local leaf rows plus distances in the serving
        dtype — the router remaps and widens them.
        """
        resolved = kernels.resolve_engine(
            self.engine, metric=self.metric, dtype=self.codebook.dtype
        )
        if resolved == "fused":
            # The shard itself is the kernel-plan cache key, so the lane
            # transposition of its codebook happens once per shard lifetime.
            return kernels.fused_descent(
                self,
                np.ascontiguousarray(matrix),
                np.ascontiguousarray(entry_nodes, dtype=np.int64),
                metric=self.metric,
            )
        return frontier_descent(
            matrix,
            entry_nodes,
            codebook=self.codebook,
            node_offsets=self.node_offsets,
            child_of_unit=self.child_of_unit,
            leaf_of_unit=self.leaf_of_unit,
            unit_norms=self.unit_norms,
            metric=self.metric,
        )


def build_shard(
    compiled: CompiledGhsom,
    shard_id: int,
    members: Sequence[RootSubtree],
    *,
    thresholds: Optional[AnyArray] = None,
    labels: Optional[AnyArray] = None,
    is_attack: Optional[AnyArray] = None,
    purity: Optional[AnyArray] = None,
    engine: Optional[str] = None,
) -> SubtreeShard:
    """Materialise one shard by slicing the compiled arrays.

    Every subtree is a contiguous run of nodes / units / leaf rows, so the
    shard's arrays are concatenations of slices with the node, unit and leaf
    indices remapped to the shard-local space.  The optional scoring tables
    are global ``(L,)`` arrays; the shard keeps only its own segments.
    """
    node_ranges = [(subtree.entry_node, subtree.node_stop) for subtree in members]
    local_nodes = np.concatenate(
        [np.arange(start, stop, dtype=np.intp) for start, stop in node_ranges]
    ) if members else np.empty(0, dtype=np.intp)
    node_map = np.full(compiled.n_nodes, -1, dtype=np.intp)
    node_map[local_nodes] = np.arange(local_nodes.size, dtype=np.intp)

    offsets = compiled.node_offsets
    unit_counts = offsets[local_nodes + 1] - offsets[local_nodes] if members else np.empty(0, dtype=np.intp)
    node_offsets = np.zeros(local_nodes.size + 1, dtype=np.intp)
    np.cumsum(unit_counts, out=node_offsets[1:])

    def gather_units(source: AnyArray) -> AnyArray:
        if not members:
            return np.empty((0,) + source.shape[1:], dtype=source.dtype)
        if len(members) == 1:
            # One contiguous run: keep the slice as a *view*.  For a
            # memmap-backed source this is what lets a K-shard load share the
            # single file mapping instead of copying K codebook slices.
            subtree = members[0]
            return source[subtree.unit_start : subtree.unit_stop]
        return np.concatenate(
            [source[subtree.unit_start : subtree.unit_stop] for subtree in members]
        )

    # Codebook slices stay row-contiguous, so per-node GEMM inputs are the
    # same contiguous blocks the unsharded engine feeds BLAS.  The
    # contiguity check (rather than an unconditional ascontiguousarray, whose
    # subok=False would downcast) keeps single-run slices of a memory-mapped
    # codebook as np.memmap views — shards of a v3 artifact then share the
    # one file mapping and pickle by reference.
    codebook = gather_units(compiled.codebook)
    if not codebook.flags["C_CONTIGUOUS"]:
        codebook = np.ascontiguousarray(codebook)
    unit_norms = gather_units(compiled.unit_norms)
    child_global = gather_units(compiled.child_of_unit)
    child_of_unit = np.where(child_global >= 0, node_map[child_global], -1)

    leaf_ranges = [(subtree.leaf_start, subtree.leaf_stop) for subtree in members]
    leaf_global_row = np.concatenate(
        [np.arange(start, stop, dtype=np.intp) for start, stop in leaf_ranges]
    ) if members else np.empty(0, dtype=np.intp)
    leaf_map = np.full(compiled.n_leaves, -1, dtype=np.intp)
    leaf_map[leaf_global_row] = np.arange(leaf_global_row.size, dtype=np.intp)
    leaf_global = gather_units(compiled.leaf_of_unit)
    leaf_of_unit = np.where(leaf_global >= 0, leaf_map[leaf_global], -1)

    def gather_leaves(table: Optional[AnyArray]) -> Optional[AnyArray]:
        if table is None:
            return None
        return np.asarray(table)[leaf_global_row]

    return SubtreeShard(
        shard_id=int(shard_id),
        metric=compiled.metric,
        n_features=compiled.n_features,
        root_units=np.array([subtree.root_unit for subtree in members], dtype=np.intp),
        entry_local_node=node_map[
            np.array([subtree.entry_node for subtree in members], dtype=np.intp)
        ] if members else np.empty(0, dtype=np.intp),
        node_offsets=node_offsets,
        codebook=codebook,
        child_of_unit=child_of_unit,
        leaf_of_unit=leaf_of_unit,
        unit_norms=unit_norms,
        leaf_global_row=leaf_global_row,
        thresholds=gather_leaves(thresholds),
        labels=gather_leaves(labels),
        is_attack=gather_leaves(is_attack),
        purity=gather_leaves(purity),
        engine=None if engine is None else str(engine),
    )


def build_shards(
    compiled: CompiledGhsom,
    plan: ShardPlan,
    *,
    thresholds: Optional[AnyArray] = None,
    labels: Optional[AnyArray] = None,
    is_attack: Optional[AnyArray] = None,
    purity: Optional[AnyArray] = None,
    engine: Optional[str] = None,
) -> Tuple[SubtreeShard, ...]:
    """Materialise every shard of a plan (see :func:`build_shard`)."""
    return tuple(
        build_shard(
            compiled,
            shard_id,
            plan.members_of(shard_id),
            thresholds=thresholds,
            labels=labels,
            is_attack=is_attack,
            purity=purity,
            engine=engine,
        )
        for shard_id in range(plan.n_shards)
    )
