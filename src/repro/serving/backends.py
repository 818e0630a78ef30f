"""The shard-executor seam and its local implementation.

A backend runs a list of shard tasks — ``(shard_index, sub_matrix,
entry_nodes)`` triples — and returns their ``(local_leaf, distances)``
results in task order.  The router treats every implementation alike:

* :class:`SerialBackend` — an in-process loop over the tasks; the local
  sharded path.
* :class:`~repro.serving.remote.RemoteBackend` — ships the tasks to shard
  workers on other hosts.  It sits behind the same seam in its own module,
  keeping this one socket-free, and fails over to a :class:`SerialBackend`.

:meth:`~repro.serving.config.ServingConfig.build_backend` is the one place a
serving config becomes one of these instances.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro._typing import AnyArray
from repro.serving.shards import SubtreeShard

#: One shard task: (shard index, routed sub-batch, local entry nodes).
ShardTask = Tuple[int, AnyArray, AnyArray]
#: One shard result: (local leaf rows, float64 distances).
ShardResult = Tuple[AnyArray, AnyArray]


class ShardBackend:
    """Interface of a shard executor (the serial implementation)."""

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def run(
        self, shards: Sequence[SubtreeShard], tasks: Sequence[ShardTask]
    ) -> List[ShardResult]:
        """Execute every task and return results in task order."""
        return [
            shards[index].assign_entries(matrix, entries)
            for index, matrix, entries in tasks
        ]

    def close(self) -> None:
        """Release held resources (a no-op for the serial backend)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ShardBackend):
    """Run shards one after another in the calling thread."""
