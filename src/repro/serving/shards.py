"""Self-contained subtree shards of a compiled GHSOM.

A :class:`SubtreeShard` carries everything one worker needs to finish the
descent of the samples routed to it: its own codebook slice, local topology
arrays, its segment of the leaf table with per-leaf scoring tables, and the
``leaf_global_row`` remap that makes merged results indistinguishable from
the unsharded engine's.  Shards are plain dataclasses of ndarrays, so the
remote backend can ship their field states to shard workers.  Besides the
arrays, a state names only the coordinator's engine: every engine reports
Euclidean distances, so no distance name travels.

Scoring inside a shard runs the exact
:func:`~repro.core.compiled.frontier_descent` loop of the unsharded engine —
same arithmetic, same per-node row grouping — or, on the fused engine, the
same batch-invariant kernel, which is what keeps the merged output
byte-identical.

Each shard is one contiguous run of root subtrees (see
:mod:`repro.serving.planner`), so building it takes one slice of every
compiled array.  When the source model was loaded from a v3 binary artifact,
the codebook and unit-norm slices stay *views* into the single file mapping,
so a K-shard load maps the artifact once.  The remote backend's
by-reference provisioning sends those views as region descriptors, so a
worker holding the artifact maps its own copy of the sidecar instead of
receiving the codebook bytes, and rebuilds each shard from its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro._typing import AnyArray
from repro.core import kernels
from repro.core.compiled import CompiledGhsom, frontier_descent
from repro.serving.planner import RootSubtree, ShardPlan


@dataclass(frozen=True, eq=False)
class SubtreeShard:
    """One shard: a run of adjacent root subtrees with shard-local indices.

    Node, unit and leaf indices inside the shard are *local* (0-based over
    the shard's own arrays); ``leaf_global_row`` maps local leaf rows back to
    the global leaf table, and ``root_units`` / ``entry_local_node`` tell the
    router where each owned root unit's descent enters the shard.
    """

    shard_id: int
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
    #: The engine of the host that built the shard (``"numpy"`` or
    #: ``"fused"``, see :func:`repro.core.kernels.host_engine`): the one
    #: engine name that crosses hosts.  A shard worker refuses at provision
    #: a state whose engine it cannot run, so a remote descent runs the
    #: coordinator's arithmetic or none.
    engine: str
    #: Per-leaf scoring-table segments (present when the owning detector has
    #: them): a worker holding the shard can score to final ratios/labels
    #: without any global state.
    thresholds: Optional[AnyArray] = None
    labels: Optional[AnyArray] = None
    is_attack: Optional[AnyArray] = None
    purity: Optional[AnyArray] = None

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets.shape[0] - 1)

    @property
    def n_units(self) -> int:
        return int(self.codebook.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_global_row.shape[0])

    def assign_entries(
        self, matrix: AnyArray, entry_nodes: AnyArray
    ) -> Tuple[AnyArray, AnyArray]:
        """Descend the shard for a routed sub-batch.

        ``matrix`` is the router-prepared sub-batch (already validated);
        ``entry_nodes`` holds each row's local entry node.  Returns local leaf
        rows plus distances — the router remaps them.
        """
        if self.engine == "fused":
            # The shard itself is the kernel-plan cache key, so the lane
            # transposition of its codebook happens once per shard lifetime.
            return kernels.fused_descent(
                self,
                np.ascontiguousarray(matrix),
                np.ascontiguousarray(entry_nodes, dtype=np.int64),
            )
        return frontier_descent(
            matrix,
            entry_nodes,
            codebook=self.codebook,
            node_offsets=self.node_offsets,
            child_of_unit=self.child_of_unit,
            leaf_of_unit=self.leaf_of_unit,
            unit_norms=self.unit_norms,
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
) -> SubtreeShard:
    """Materialise one shard by slicing the compiled arrays.

    ``members`` is a non-empty run of adjacent subtrees (entry-node order),
    so the shard is one contiguous run of nodes / units / leaf rows.  The
    codebook, unit norms and scoring-table segments are views of the source
    arrays; the topology arrays shift to shard-local indices by subtracting
    the run's first node, unit and leaf row.  The optional scoring tables are
    global ``(L,)`` arrays.
    """
    first, last = members[0], members[-1]
    node_start, unit_start, leaf_start = first.entry_node, first.unit_start, first.leaf_start
    units = slice(unit_start, last.unit_stop)
    leaves = slice(leaf_start, last.leaf_stop)
    child_global = np.asarray(compiled.child_of_unit[units])
    leaf_global = np.asarray(compiled.leaf_of_unit[units])

    def segment(table: Optional[AnyArray]) -> Optional[AnyArray]:
        return None if table is None else table[leaves]

    # Views, not copies: a v3 artifact's memory-mapped codebook slices stay
    # np.memmap, so every shard shares the one file mapping and can be
    # provisioned by reference.
    return SubtreeShard(
        shard_id=int(shard_id),
        n_features=compiled.n_features,
        root_units=np.array([subtree.root_unit for subtree in members], dtype=np.intp),
        entry_local_node=np.array(
            [subtree.entry_node - node_start for subtree in members], dtype=np.intp
        ),
        node_offsets=np.asarray(
            compiled.node_offsets[node_start : last.node_stop + 1], dtype=np.intp
        ) - unit_start,
        codebook=compiled.codebook[units],
        child_of_unit=np.where(child_global >= 0, child_global - node_start, -1),
        leaf_of_unit=np.where(leaf_global >= 0, leaf_global - leaf_start, -1),
        unit_norms=compiled.unit_norms[units],
        leaf_global_row=np.arange(leaf_start, last.leaf_stop, dtype=np.intp),
        engine=kernels.host_engine(),
        thresholds=segment(thresholds),
        labels=segment(labels),
        is_attack=segment(is_attack),
        purity=segment(purity),
    )


def build_shards(
    compiled: CompiledGhsom,
    plan: ShardPlan,
    *,
    thresholds: Optional[AnyArray] = None,
    labels: Optional[AnyArray] = None,
    is_attack: Optional[AnyArray] = None,
    purity: Optional[AnyArray] = None,
) -> Tuple[SubtreeShard, ...]:
    """Materialise every shard of a plan (see :func:`build_shard`)."""
    return tuple(
        build_shard(
            compiled,
            shard_id,
            plan.subtrees[start:stop],
            thresholds=thresholds,
            labels=labels,
            is_attack=is_attack,
            purity=purity,
        )
        for shard_id, (start, stop) in enumerate(zip(plan.bounds, plan.bounds[1:]))
    )
