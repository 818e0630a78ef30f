"""Pluggable shard executors: serial and thread pool.

A backend runs a list of shard tasks — ``(shard_index, sub_matrix,
entry_nodes)`` triples — and returns their ``(local_leaf, distances)``
results in task order.  The router treats the implementations identically;
they only trade off where the work happens:

* :class:`SerialBackend` — in-process loop; the zero-overhead baseline and
  the default for small models.
* :class:`ThreadPoolBackend` — one thread per in-flight shard.  The descent's
  hot operation is a BLAS GEMM, which releases the GIL, so shards genuinely
  overlap on multi-core machines with zero serialization cost.

The remote backend (:class:`~repro.serving.remote.RemoteBackend`) sits
behind the same seam in its own module, keeping this one socket-free.
:meth:`~repro.serving.config.ServingPlan.build_backend` is the one place a
backend name becomes one of these instances.

Backends hold no shard state between calls except the lazily created pool;
``close()`` releases it (also invoked by the owning detector when sharding
is reconfigured).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError, ReproError, ServingError
from repro.serving.config import ServingConfig, usable_workers
from repro.serving.shards import SubtreeShard

#: One shard task: (shard index, routed sub-batch, local entry nodes).
ShardTask = Tuple[int, AnyArray, AnyArray]
#: One shard result: (local leaf rows, distances in the serving dtype).
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
        """Release any pooled resources (a no-op for the serial backend)."""

    def configure_serving(self, config: "ServingConfig") -> None:
        """Receive the :class:`~repro.serving.config.ServingConfig` in force.

        Called by ``GhsomDetector.configure`` whenever this backend is (re)
        attached.  Local backends execute whatever shards they are handed, so
        the default is a no-op; the remote backend overrides this to ship the
        config to its workers at provisioning time.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ShardBackend):
    """Run shards one after another in the calling thread."""


class ThreadPoolBackend(ShardBackend):
    """Run shards on a thread pool (BLAS releases the GIL during the GEMMs)."""

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers) if workers is not None else usable_workers()
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def workers(self) -> int:
        return self._workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(
        self, shards: Sequence[SubtreeShard], tasks: Sequence[ShardTask]
    ) -> List[ShardResult]:
        if len(tasks) <= 1:
            # Inline fast path — same error surface as the pooled one.
            try:
                return ShardBackend.run(self, shards, tasks)
            except ReproError:
                raise
            except Exception as exc:
                index, matrix, _ = tasks[0]
                raise self._wrapped_failure(index, matrix, exc) from exc
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-shard"
            )
        pool = self._pool
        futures = self._submit_all(
            tasks,
            lambda task: pool.submit(shards[task[0]].assign_entries, task[1], task[2]),
        )
        return self._collect(tasks, futures)

    def _wrapped_failure(self, index: int, matrix: AnyArray, exc: Exception) -> ServingError:
        return ServingError(
            f"{self.name} shard backend failed while scoring shard "
            f"{index} ({matrix.shape[0]} records on "
            f"{self.workers} workers): {type(exc).__name__}: {exc}"
        )

    def _submit_all(
        self,
        tasks: Sequence[ShardTask],
        submit_one: "Callable[[ShardTask], Future[ShardResult]]",
    ) -> "List[Future[ShardResult]]":
        """Submit every task, wrapping *dispatch-time* pool failures.

        ``Executor.submit`` itself raises once the pool is broken or shut
        down — that failure needs the same :class:`ServingError` surface and
        broken-pool cleanup as a failure surfacing through
        ``future.result()``, or the pool stays broken and every later
        ``run`` dies at submit time forever.
        """
        futures: List[Future[ShardResult]] = []
        try:
            for task in tasks:
                futures.append(submit_one(task))
        except Exception as exc:
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenExecutor):
                self.close()
            index, matrix, _ = tasks[len(futures)]
            raise self._wrapped_failure(index, matrix, exc) from exc
        return futures

    def _collect(
        self, tasks: Sequence[ShardTask], futures: "Sequence[Future[ShardResult]]"
    ) -> List[ShardResult]:
        """Gather futures in task order, wrapping worker failures.

        A raw ``future.result()`` surfaces pool internals with no hint of
        *which* shard died on *how much* data.  Library errors
        (:class:`ReproError`) pass through untouched; anything else is
        wrapped in a :class:`ServingError` naming the backend, the shard and
        the task size — the same error surface the remote backend's failover
        reports through.  A broken executor is closed so the next call
        rebuilds a fresh pool instead of failing forever.
        """
        results: List[ShardResult] = []
        try:
            for (index, matrix, _), future in zip(tasks, futures, strict=True):
                try:
                    results.append(future.result())
                except ReproError:
                    raise
                except Exception as exc:
                    raise self._wrapped_failure(index, matrix, exc) from exc
        except BaseException as error:
            for future in futures:
                future.cancel()
            exc_cause = error.__cause__
            if isinstance(error, BrokenExecutor) or isinstance(exc_cause, BrokenExecutor):
                self.close()
            raise
        return results
