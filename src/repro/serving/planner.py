"""Shard planning: root-subtree discovery, balancing, and the shard manifest.

The compiled flat arrays (:class:`~repro.core.compiled.CompiledGhsom`) store
nodes in pre-order, so every subtree hanging off an internal root unit is a
*contiguous* run of node indices — and therefore a contiguous slice of the
stacked codebook, of the per-unit topology arrays, and of the leaf table.
:func:`subtrees_from_compiled` recovers those runs; :func:`plan_shards`
groups them into ``K`` balanced shards (longest-processing-time-first over
unit counts, the cost proxy for the per-level distance matmuls).

The subtree layout is partition-independent, which makes it the natural
**shard manifest** for the v2 model artifact: a worker holding the manifest
and the raw compiled-array payload can slice out exactly its shard without
ever materialising the full tree.  :func:`manifest_from_compiled` /
:func:`subtrees_from_manifest` are the two directions of that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compiled import CompiledGhsom
from repro.exceptions import ConfigurationError, SerializationError

#: Version marker of the manifest payload embedded in v2 artifacts.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RootSubtree:
    """One root unit's subtree as contiguous slices of the flat arrays.

    Attributes
    ----------
    root_unit:
        Global unit row on the root layer (root-layer rows start at 0, so
        this is also the local unit index on the root map).
    entry_node:
        Node index of the child layer expanded from ``root_unit`` — where a
        routed sample starts its descent.
    node_stop:
        Nodes ``entry_node:node_stop`` form the subtree (pre-order
        contiguity).
    unit_start, unit_stop:
        The subtree's slice of the stacked codebook / per-unit arrays.
    leaf_start, leaf_stop:
        The subtree's segment of the global leaf table.
    """

    root_unit: int
    entry_node: int
    node_stop: int
    unit_start: int
    unit_stop: int
    leaf_start: int
    leaf_stop: int

    @property
    def n_nodes(self) -> int:
        return self.node_stop - self.entry_node

    @property
    def n_units(self) -> int:
        return self.unit_stop - self.unit_start

    @property
    def n_leaves(self) -> int:
        return self.leaf_stop - self.leaf_start


def subtrees_from_compiled(compiled: CompiledGhsom) -> Tuple[RootSubtree, ...]:
    """Discover the root subtrees of a compiled model from its flat arrays.

    Returns one :class:`RootSubtree` per *internal* root unit, in root-unit
    order.  Root units that are leaves have no subtree — the router resolves
    them during the root step itself.  A depth-1 tree yields an empty tuple.
    """
    offsets = compiled.node_offsets
    n_nodes = compiled.n_nodes
    # Pre-order subtree extents: a node's subtree is [i, subtree_stop[i]).
    # Children always carry larger indices than their parent, so a reverse
    # sweep sees every child's extent before the parent needs it.
    subtree_stop = np.arange(1, n_nodes + 1, dtype=np.intp)
    for node in range(n_nodes - 1, -1, -1):
        children = compiled.child_of_unit[int(offsets[node]) : int(offsets[node + 1])]
        for child in children[children >= 0]:
            subtree_stop[node] = max(subtree_stop[node], subtree_stop[child])
    n_root_units = int(offsets[1])
    leaf_node = compiled.leaf_node
    subtrees: List[RootSubtree] = []
    for unit in range(n_root_units):
        entry = int(compiled.child_of_unit[unit])
        if entry < 0:
            continue
        stop = int(subtree_stop[entry])
        subtrees.append(
            RootSubtree(
                root_unit=unit,
                entry_node=entry,
                node_stop=stop,
                unit_start=int(offsets[entry]),
                unit_stop=int(offsets[stop]),
                # Leaf rows are assigned in node order, so a contiguous node
                # range owns a contiguous leaf-table segment.
                leaf_start=int(np.searchsorted(leaf_node, entry, side="left")),
                leaf_stop=int(np.searchsorted(leaf_node, stop, side="left")),
            )
        )
    return tuple(subtrees)


@dataclass(frozen=True)
class ShardPlan:
    """A balanced assignment of root subtrees to shards.

    ``assignment[i]`` is the shard id of ``subtrees[i]``; ``n_shards`` is the
    *effective* shard count (never more than the number of subtrees, so every
    shard has work).
    """

    n_shards: int
    subtrees: Tuple[RootSubtree, ...]
    assignment: Tuple[int, ...]

    def members_of(self, shard_id: int) -> Tuple[RootSubtree, ...]:
        """The subtrees assigned to one shard, in discovery order."""
        return tuple(
            subtree
            for subtree, shard in zip(self.subtrees, self.assignment, strict=True)
            if shard == shard_id
        )

    def describe(self) -> Dict[str, object]:
        """Balance summary (used by the benchmark harness and docs)."""
        unit_loads = [0] * self.n_shards
        leaf_loads = [0] * self.n_shards
        for subtree, shard in zip(self.subtrees, self.assignment, strict=True):
            unit_loads[shard] += subtree.n_units
            leaf_loads[shard] += subtree.n_leaves
        return {
            "n_shards": self.n_shards,
            "n_subtrees": len(self.subtrees),
            "units_per_shard": unit_loads,
            "leaves_per_shard": leaf_loads,
            "unit_balance": (
                min(unit_loads) / max(unit_loads) if self.n_shards and max(unit_loads) else 1.0
            ),
        }


def plan_shards(
    source: CompiledGhsom,
    n_shards: int,
    *,
    subtrees: Optional[Sequence[RootSubtree]] = None,
) -> ShardPlan:
    """Partition a compiled model's root subtrees into ``n_shards`` shards.

    ``source`` is a :class:`CompiledGhsom` (``subtrees`` may be passed
    explicitly when they were already recovered, e.g. from an artifact's
    shard manifest).  Balancing is greedy longest-processing-time-first on
    unit counts: subtrees are assigned, largest first, to the currently
    lightest shard.  The effective shard count is clamped to the number of
    subtrees; asking for more shards than subtrees is not an error.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    layout = tuple(subtrees) if subtrees is not None else subtrees_from_compiled(source)
    effective = min(int(n_shards), len(layout)) if layout else 0
    assignment = [0] * len(layout)
    if effective:
        loads = [0] * effective
        order = sorted(
            range(len(layout)), key=lambda i: layout[i].n_units, reverse=True
        )
        for index in order:
            shard = min(range(effective), key=loads.__getitem__)
            assignment[index] = shard
            loads[shard] += layout[index].n_units
    return ShardPlan(
        n_shards=effective, subtrees=layout, assignment=tuple(assignment)
    )


# --------------------------------------------------------------------------- #
# manifest (stored inside v2 artifacts)
# --------------------------------------------------------------------------- #
_MANIFEST_FIELDS = (
    "root_unit",
    "entry_node",
    "node_stop",
    "unit_start",
    "unit_stop",
    "leaf_start",
    "leaf_stop",
)


def manifest_from_compiled(compiled: CompiledGhsom) -> Dict[str, object]:
    """The JSON-compatible shard manifest of a compiled model.

    Stores the partition-independent subtree layout plus the root-layer
    summary a router needs, so ``load_bundle(overrides={"shards": K})`` can
    plan and slice worker shards straight from the artifact payload.
    """
    subtrees = subtrees_from_compiled(compiled)
    return {
        "version": MANIFEST_VERSION,
        "n_root_units": int(compiled.node_offsets[1]),
        "n_leaves": compiled.n_leaves,
        "n_units": compiled.n_units,
        "root_subtrees": [
            {field: getattr(subtree, field) for field in _MANIFEST_FIELDS}
            for subtree in subtrees
        ],
    }


def subtrees_from_manifest(manifest: Dict[str, object]) -> Tuple[RootSubtree, ...]:
    """Rebuild the subtree layout from a stored shard manifest."""
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise SerializationError(f"unsupported shard manifest version {version!r}")
    entries = manifest.get("root_subtrees")
    if not isinstance(entries, list):
        raise SerializationError("shard manifest is missing its root_subtrees list")
    subtrees: List[RootSubtree] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise SerializationError(f"malformed shard manifest entry: {entry!r}")
        subtrees.append(
            RootSubtree(**{field: int(entry[field]) for field in _MANIFEST_FIELDS})
        )
    return tuple(subtrees)
