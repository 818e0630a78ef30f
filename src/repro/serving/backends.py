"""Pluggable shard executors: serial, thread pool, process pool.

A backend runs a list of shard tasks — ``(shard_index, sub_matrix,
entry_nodes)`` triples — and returns their ``(local_leaf, distances)``
results in task order.  The router treats the three implementations
identically; they only trade off where the work happens:

* :class:`SerialBackend` — in-process loop; the zero-overhead baseline and
  the default for small models.
* :class:`ThreadPoolBackend` — one thread per in-flight shard.  The descent's
  hot operation is a BLAS GEMM, which releases the GIL, so shards genuinely
  overlap on multi-core machines with zero serialization cost.
* :class:`ProcessPoolBackend` — one OS process per worker.  Workers receive
  the (read-only) shard arrays once — inherited via fork where available, so
  the codebook pages are shared copy-on-write rather than copied — and only
  the routed sub-batches cross the process boundary per call.

Backends hold no shard state between calls except the lazily created pools;
``close()`` releases them (also invoked by the owning detector when sharding
is reconfigured).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError, ReproError, ServingError
from repro.serving.config import ServingConfig, usable_workers
from repro.serving.shards import SubtreeShard

#: One shard task: (shard index, routed sub-batch, local entry nodes).
ShardTask = Tuple[int, AnyArray, AnyArray]
#: One shard result: (local leaf rows, distances in the serving dtype).
ShardResult = Tuple[AnyArray, AnyArray]


def same_shard_objects(
    previous: Optional[Tuple[SubtreeShard, ...]], current: Tuple[SubtreeShard, ...]
) -> bool:
    """Whether two shard tuples hold the *same objects* in the same order.

    The staleness rule shared by every provisioned backend (process pool,
    remote workers): element-wise identity.  Rebuilt-but-equal shards are
    different arrays and mean stale worker state (an ``==`` check would stop
    refreshing the day ``SubtreeShard`` grew an ``__eq__``), while a fresh
    list/tuple of the same shard objects is *not* stale and must not torch a
    warm pool.
    """
    return (
        previous is not None
        and len(previous) == len(current)
        and all(a is b for a, b in zip(previous, current, strict=True))
    )


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


class _PooledBackend(ShardBackend):
    """Shared pool lifecycle for the thread and process backends."""

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers) if workers is not None else usable_workers()
        self._pool: Optional[Executor] = None

    @property
    def workers(self) -> int:
        return self._workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "_PooledBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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

        ``Executor.submit`` itself raises (e.g. ``BrokenProcessPool``) once a
        worker died mid-dispatch — that failure needs the same
        :class:`ServingError` surface and broken-pool cleanup as a failure
        surfacing through ``future.result()``, or the pool stays broken and
        every later ``run`` dies at submit time forever.
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

        A raw ``future.result()`` surfaces pool internals — a bare
        ``BrokenProcessPool`` or a remote-formatted worker traceback with no
        hint of *which* shard died on *how much* data.  Library errors
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


class ThreadPoolBackend(_PooledBackend):
    """Run shards on a thread pool (BLAS releases the GIL during the GEMMs)."""

    name = "thread"

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


# ---- process pool ---------------------------------------------------------- #
#: Shards visible inside process-pool workers, set once by the initializer.
#: Under a fork context the initargs travel to the child through inherited
#: (copy-on-write) memory — the shard arrays are shared, not pickled; under
#: spawn they are pickled exactly once per worker.
_WORKER_SHARDS: Optional[Tuple[SubtreeShard, ...]] = None


def _worker_init(shards: Tuple[SubtreeShard, ...]) -> None:
    global _WORKER_SHARDS
    _WORKER_SHARDS = shards


def _worker_run(index: int, matrix: AnyArray, entries: AnyArray) -> ShardResult:
    assert _WORKER_SHARDS is not None, "process-pool worker was not initialised"
    return _WORKER_SHARDS[index].assign_entries(matrix, entries)


class ProcessPoolBackend(_PooledBackend):
    """Run shards on a process pool with shared read-only shard arrays.

    The pool is (re)built whenever it is asked to serve a different shard
    tuple than the one its workers were initialised with, so a refitted or
    re-sharded detector never scores against stale worker state.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers)
        self._pool_shards: Optional[Tuple[SubtreeShard, ...]] = None

    def _ensure_pool(self, shards: Sequence[SubtreeShard]) -> Executor:
        current = tuple(shards)
        if self._pool is not None and not same_shard_objects(self._pool_shards, current):
            self.close()
        if self._pool is None:
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - spawn-only platforms (Windows/macOS)
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(current,),
            )
            self._pool_shards = current
        return self._pool

    def close(self) -> None:
        super().close()
        self._pool_shards = None

    def run(
        self, shards: Sequence[SubtreeShard], tasks: Sequence[ShardTask]
    ) -> List[ShardResult]:
        if not tasks:
            return []
        pool = self._ensure_pool(shards)
        futures = self._submit_all(
            tasks, lambda task: pool.submit(_worker_run, task[0], task[1], task[2])
        )
        return self._collect(tasks, futures)


_BACKENDS: Dict[str, Callable[..., ShardBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadPoolBackend,
    "process": ProcessPoolBackend,
}
#: Backend names make_backend understands ("remote" resolves lazily — the
#: remote backend lives in its own module to keep this one socket-free).
BACKEND_NAMES = tuple(sorted(_BACKENDS)) + ("remote",)


def make_backend(
    backend: Union[str, ShardBackend], workers: Optional[int] = None
) -> ShardBackend:
    """Resolve a backend name (or pass through an instance).

    ``workers`` only applies to the pooled backends; passing it alongside an
    already-constructed instance is rejected to avoid silently ignoring it.
    The remote backend is addressed as ``"remote:HOST:PORT[,HOST:PORT...]"``
    (its worker count is the address list, so ``workers`` is rejected).
    """
    if isinstance(backend, ShardBackend):
        if workers is not None:
            raise ConfigurationError(
                "workers cannot be overridden on an already-constructed backend"
            )
        return backend
    name = str(backend)
    if name == "remote" or name.startswith("remote:"):
        if workers is not None:
            raise ConfigurationError(
                "the remote backend's worker count is its address list; "
                "drop workers= and list one HOST:PORT per worker"
            )
        spec = name.partition(":")[2]
        if not spec:
            raise ConfigurationError(
                "the remote backend needs worker addresses: pass "
                "'remote:HOST:PORT[,HOST:PORT...]' (CLI: --shard-backend "
                "remote --remote-workers HOST:PORT,...) or construct "
                "repro.serving.RemoteBackend directly"
            )
        from repro.serving.remote import RemoteBackend

        return RemoteBackend.from_spec(spec)
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown shard backend {backend!r}; available: {list(BACKEND_NAMES)}"
        )
    if factory is SerialBackend:
        if workers is not None and workers != 1:
            raise ConfigurationError("the serial backend always uses 1 worker")
        return SerialBackend()
    return factory(workers)
