"""The sharded serving engine: root-step routing + shard dispatch + merge.

:class:`ShardedGhsom` exposes the same ``assign_arrays`` contract as
:class:`~repro.core.compiled.CompiledGhsom` — ``(leaf_index, distances)`` in
global leaf rows and float64 — but executes the descent in three steps:

1. **route** — run the root-level distance + argmin once over the whole
   batch, exactly as the unsharded engine's first step does: the numpy
   engine's first frontier iteration, or the fused kernel on the root map
   alone on a host whose engine is fused.  Samples whose best root unit
   is a leaf are finished right here;
2. **dispatch** — group the remaining rows by the shard that owns their root
   unit (each shard a contiguous run of root subtrees) and execute each
   sub-batch on the configured backend;
3. **merge** — scatter shard results back into input order, remapping local
   leaf rows through each shard's ``leaf_global_row``.

Because routing replicates the root step bit-for-bit and shards run the
same descent (the shared :func:`~repro.core.compiled.frontier_descent` loop
on the same row groupings, or the batch-invariant fused kernel), the merged
output is byte-identical to the unsharded float64 engine for every shard
count and backend.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._typing import AnyArray
from repro.core import kernels
from repro.core.compiled import CompiledGhsom, descend_node
from repro.exceptions import DataValidationError
from repro.serving.backends import SerialBackend, ShardBackend
from repro.serving.planner import ShardPlan, plan_shards
from repro.serving.shards import SubtreeShard, build_shards
from repro.utils.validation import check_array_2d


class ShardedGhsom:
    """A compiled GHSOM partitioned into root subtrees behind one router.

    Build instances with :meth:`from_compiled`; the constructor takes the
    already-materialised pieces.  The engine keeps a reference to its source
    :class:`CompiledGhsom` (``source``) so owners can detect staleness after
    a refit, but scoring itself only touches the root block and the shards.
    """

    def __init__(
        self,
        *,
        source: CompiledGhsom,
        plan: ShardPlan,
        shards: Tuple[SubtreeShard, ...],
        backend: ShardBackend,
    ) -> None:
        self.source = source
        self.plan = plan
        self.shards = tuple(shards)
        self.backend = backend
        self.n_features = source.n_features
        n_root_units = int(source.node_offsets[1])
        #: Root-layer slices (views into the source arrays: the root block is
        #: the one piece every worker topology shares).
        self._root_map = _RootMap(
            source.codebook[:n_root_units], source.unit_norms[:n_root_units]
        )
        self._root_child = source.child_of_unit[:n_root_units]
        self._root_leaf_row = source.leaf_of_unit[:n_root_units]
        #: Root unit -> owning shard (-1 for leaf root units) and the local
        #: entry node of its subtree inside that shard.
        self._shard_of_unit = np.full(n_root_units, -1, dtype=np.intp)
        self._entry_of_unit = np.full(n_root_units, -1, dtype=np.intp)
        for shard in self.shards:
            self._shard_of_unit[shard.root_units] = shard.shard_id
            self._entry_of_unit[shard.root_units] = shard.entry_local_node
        #: Stage timings of the most recent :meth:`assign_arrays` call —
        #: ``{"route_s", "descend_s", "merge_s"}`` wall-clock seconds — read
        #: by the detector to fill :class:`~repro.serving.config.ServingStats`.
        self.last_timings: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledGhsom,
        n_shards: int,
        *,
        backend: Optional[ShardBackend] = None,
        thresholds: Optional[AnyArray] = None,
        labels: Optional[AnyArray] = None,
        is_attack: Optional[AnyArray] = None,
        purity: Optional[AnyArray] = None,
    ) -> "ShardedGhsom":
        """Plan, slice and wire a sharded engine for ``compiled``.

        ``backend`` executes the shard tasks (a fresh :class:`SerialBackend`
        when omitted; build a configured one with
        :meth:`~repro.serving.config.ServingConfig.build_backend`).  The
        subtree layout is always derived from ``compiled`` itself; the
        per-leaf scoring tables, when given, are segmented into the shards
        so each one is fully self-contained.  Every shard carries the
        host's engine, the engine the root routing step runs on too.
        """
        plan = plan_shards(compiled, n_shards)
        shards = build_shards(
            compiled,
            plan,
            thresholds=thresholds,
            labels=labels,
            is_attack=is_attack,
            purity=purity,
        )
        return cls(
            source=compiled,
            plan=plan,
            shards=shards,
            backend=backend if backend is not None else SerialBackend(),
        )

    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_leaves(self) -> int:
        return self.source.n_leaves

    def describe(self) -> Dict[str, object]:
        """Structural + balance summary (benchmark harness and docs)."""
        summary = dict(self.source.describe())
        summary.update(self.plan.describe())
        summary["backend"] = self.backend.name
        summary["workers"] = self.backend.workers
        return summary

    def close(self) -> None:
        """Release the backend's resources (a remote backend's connections)."""
        self.backend.close()

    # ------------------------------------------------------------------ #
    def assign_arrays(self, data: object) -> Tuple[AnyArray, AnyArray]:
        """Leaf rows and distances, byte-identical to the unsharded engine.

        See the module docstring for the route / dispatch / merge structure.
        """
        return self.assign_validated(check_array_2d(data, "data"))

    def assign_validated(self, matrix: AnyArray) -> Tuple[AnyArray, AnyArray]:
        """:meth:`assign_arrays` on a matrix ``check_array_2d`` already returned.

        ``matrix`` must be a C-contiguous float64 array, as
        ``GhsomDetector.detect`` hands it over after validating the batch.
        """
        if matrix.shape[1] != self.n_features:
            raise DataValidationError(
                f"data has {matrix.shape[1]} features, the model expects {self.n_features}"
            )
        t_route = perf_counter()
        n = matrix.shape[0]
        leaf_index = np.full(n, -1, dtype=np.intp)
        distances = np.zeros(n)
        # --- route: the unsharded engine's first step --------------------- #
        if kernels.host_engine() == "fused":
            units, root_distances = kernels.fused_descent(self._root_map, matrix)
            at_leaf = self._root_child[units] < 0
            leaf_index[at_leaf] = self._root_leaf_row[units[at_leaf]]
            distances[at_leaf] = root_distances[at_leaf]
        else:
            units, _, _ = descend_node(
                matrix,
                np.einsum("ij,ij->i", matrix, matrix),
                None,
                self._root_map.codebook,
                self._root_map.unit_norms,
                self._root_child,
                self._root_leaf_row,
                leaf_index,
                distances,
            )
        # --- dispatch: one task per shard with routed samples ------------- #
        sample_shard = self._shard_of_unit[units]
        tasks: List[Tuple[int, AnyArray, AnyArray]] = []
        task_rows: List[AnyArray] = []
        for shard in self.shards:
            # flatnonzero yields ascending rows — the same ordering the
            # unsharded frontier uses, so shard-side BLAS inputs match.
            rows = np.flatnonzero(sample_shard == shard.shard_id)
            if rows.size == 0:
                continue
            entries = self._entry_of_unit[units[rows]]
            tasks.append((shard.shard_id, matrix[rows], entries))
            task_rows.append(rows)
        route_s = perf_counter() - t_route
        # --- merge: scatter results back into input order ----------------- #
        descend_s = merge_s = 0.0
        if tasks:
            t_descend = perf_counter()
            results = self.backend.run(self.shards, tasks)
            descend_s = perf_counter() - t_descend
            t_merge = perf_counter()
            for (shard_id, _, _), rows, (local_leaf, shard_distances) in zip(
                tasks, task_rows, results, strict=True
            ):
                leaf_index[rows] = self.shards[shard_id].leaf_global_row[local_leaf]
                distances[rows] = shard_distances
            merge_s = perf_counter() - t_merge
        self.last_timings = {"route_s": route_s, "descend_s": descend_s, "merge_s": merge_s}
        return leaf_index, distances

    def transform(self, data: object) -> AnyArray:
        """Quantization distance per sample (the raw anomaly score)."""
        return self.assign_arrays(data)[1]


class _RootMap:
    """The root map alone as a one-node tree whose every unit is a leaf.

    The fused kernel lands each sample on this tree with leaf row = root
    unit and the distance the unsharded kernel reports at the root node:
    its landing is the unsharded kernel's root step.  The instance is also
    the kernel-plan cache key of the root block.
    """

    def __init__(self, codebook: AnyArray, unit_norms: AnyArray) -> None:
        n_units = codebook.shape[0]
        self.codebook = codebook
        self.unit_norms = unit_norms
        self.node_offsets = np.array([0, n_units], dtype=np.int64)
        self.child_of_unit = np.full(n_units, -1, dtype=np.int64)
        self.leaf_of_unit = np.arange(n_units, dtype=np.int64)
