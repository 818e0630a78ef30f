"""Shard planning: root-subtree discovery and contiguous balancing.

The compiled flat arrays (:class:`~repro.core.compiled.CompiledGhsom`) store
nodes in pre-order, so every subtree hanging off an internal root unit is a
*contiguous* run of node indices — and therefore a contiguous slice of the
stacked codebook, of the per-unit topology arrays, and of the leaf table.
Those runs also sit next to each other: sorted by entry node, the root
subtrees tile every non-root node, unit and leaf row.
:func:`subtrees_from_compiled` recovers them; :func:`plan_shards` cuts the
sequence into ``K`` contiguous shards that minimise the largest shard's unit
count (the cost proxy for the per-level distance matmuls), so each shard is
again one slice of every array.

The layout is always derived from the compiled arrays themselves: there is
no stored copy that could disagree with them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.compiled import CompiledGhsom
from repro.exceptions import ConfigurationError


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

    Returns one :class:`RootSubtree` per *internal* root unit, in entry-node
    order.  Pre-order puts each root subtree right after the previous one,
    so a subtree ends where the next one's entry node begins (the last one
    at ``n_nodes``).  Root units that are leaves have no subtree — the
    router resolves them during the root step itself.  A depth-1 tree
    yields an empty tuple.
    """
    offsets = compiled.node_offsets
    root_children = np.asarray(compiled.child_of_unit[: int(offsets[1])])
    root_units = np.flatnonzero(root_children >= 0)
    root_units = root_units[np.argsort(root_children[root_units])]
    node_bounds = np.append(root_children[root_units], compiled.n_nodes)
    unit_bounds = np.asarray(offsets)[node_bounds]
    # Leaf rows are assigned in node order, so a contiguous node range owns
    # a contiguous leaf-table segment.
    leaf_bounds = np.searchsorted(compiled.leaf_node, node_bounds, side="left")
    return tuple(
        RootSubtree(
            root_unit=int(unit),
            entry_node=int(node_bounds[i]),
            node_stop=int(node_bounds[i + 1]),
            unit_start=int(unit_bounds[i]),
            unit_stop=int(unit_bounds[i + 1]),
            leaf_start=int(leaf_bounds[i]),
            leaf_stop=int(leaf_bounds[i + 1]),
        )
        for i, unit in enumerate(root_units)
    )


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous partition of the root subtrees into shards.

    Shard ``s`` owns ``subtrees[bounds[s]:bounds[s + 1]]``; ``n_shards`` is
    the *effective* shard count (never more than the number of subtrees, so
    every shard has work).
    """

    subtrees: Tuple[RootSubtree, ...]
    bounds: Tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    def describe(self) -> Dict[str, object]:
        """Balance summary (used by the benchmark harness and docs)."""
        unit_loads: List[int] = []
        leaf_loads: List[int] = []
        for start, stop in zip(self.bounds, self.bounds[1:]):
            first, last = self.subtrees[start], self.subtrees[stop - 1]
            unit_loads.append(last.unit_stop - first.unit_start)
            leaf_loads.append(last.leaf_stop - first.leaf_start)
        return {
            "n_shards": self.n_shards,
            "n_subtrees": len(self.subtrees),
            "units_per_shard": unit_loads,
            "leaves_per_shard": leaf_loads,
            "unit_balance": min(unit_loads) / max(unit_loads) if unit_loads else 1.0,
        }


def partition_bounds(unit_counts: Sequence[int], n_shards: int) -> Tuple[int, ...]:
    """Cut ``unit_counts`` into contiguous runs minimising the largest sum.

    Returns ``min(n_shards, len(unit_counts)) + 1`` ascending bounds starting
    at 0 and ending at ``len(unit_counts)``; every run is non-empty.  The
    optimal capacity is a binary search over the greedy shard count, each
    greedy run one ``bisect`` over the prefix sums.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    n = len(unit_counts)
    if n == 0:
        return (0,)
    k = min(int(n_shards), n)
    prefix = [0, *accumulate(unit_counts)]

    def run_stop(start: int, capacity: int) -> int:
        return bisect.bisect_right(prefix, prefix[start] + capacity) - 1

    def shards_needed(capacity: int) -> int:
        count = start = 0
        while start < n:
            start = run_stop(start, capacity)
            count += 1
        return count

    low, high = max(unit_counts), prefix[-1]
    while low < high:
        middle = (low + high) // 2
        if shards_needed(middle) <= k:
            high = middle
        else:
            low = middle + 1
    bounds = [0]
    for shard in range(k - 1):
        # Fill greedily, but leave one subtree for each shard still to come.
        bounds.append(min(run_stop(bounds[-1], low), n - (k - 1 - shard)))
    bounds.append(n)
    return tuple(bounds)


def plan_shards(source: CompiledGhsom, n_shards: int) -> ShardPlan:
    """Partition a compiled model's root subtrees into ``n_shards`` shards.

    Each shard is a contiguous run of subtrees in entry-node order, chosen
    to minimise the largest shard's unit count.  The effective shard count
    is clamped to the number of subtrees; asking for more shards than
    subtrees is not an error.
    """
    subtrees = subtrees_from_compiled(source)
    bounds = partition_bounds([subtree.n_units for subtree in subtrees], n_shards)
    return ShardPlan(subtrees=subtrees, bounds=bounds)
