"""Distributed shard serving: the remote backend and the shard worker.

This module turns root-subtree sharding from a single-host optimisation
into the system's horizontal-scaling substrate.  It has two halves:

* :class:`RemoteBackend` — a :class:`~repro.serving.backends.ShardBackend`
  that dispatches the router's shard tasks to worker processes on other
  hosts over TCP (see :mod:`repro.serving.transport` for the framed
  protocol).  One persistent, multiplexed connection per worker; tasks for
  different shards are pipelined concurrently.  A peer whose handshake
  advertises another role (a detection gateway) is never provisioned: it
  is skipped like an unreachable address.
* :class:`ShardWorkerServer` — the worker side, started via ``repro-ids
  shard-worker --listen HOST:PORT [--model bundle.json]``: the
  :class:`~repro.serving.server.FramedServer` asyncio core with a
  ``ping``/``provision``/``run`` ops table.  Each coordinator connection is
  provisioned with a shard set once, then streams ``run`` requests against
  it.

**Provisioning** follows one policy with two paths, chosen per worker.
*By reference*: when the coordinator's shards are views into one v3 binary
artifact's memory-mapped sidecar, the live bytes still match that file and
the worker advertises a matching copy, the wire carries one
:class:`~repro.serving.transport.SidecarRef` (dtype, shape, offset) per
mapped array plus the sidecar's fingerprint (size + per-member CRC-32s and
offsets); the worker validates its local sidecar against the fingerprint
and maps the same regions through :func:`~repro.utils.mmapio.map_region` —
refusing on any mismatch, because mapping different bytes would silently
break byte-identity.  *By value*: otherwise (in-memory models, workers
without the artifact or with a different one), shard arrays are streamed
in full.

**Failover**: a dead, refusing or timed-out worker never surfaces as a
partial result.  Its tasks are re-run on a local serial backend, so
``detect`` always returns the complete, byte-identical answer — remote
workers only ever make it faster, never wrong.  Results are byte-identical
to the serial backend by construction: workers run the same descent over
the same array bytes.  Every shard state names the coordinator's engine,
and a worker that cannot run it (a ``fused`` state on a host where the
kernel did not load) refuses the provision, so its tasks fail over instead
of being answered in other arithmetic.  Workers advertise their engine in
the handshake, so the coordinator does not even send shard states to a
worker that would refuse them.  On the numpy engine the
construction also assumes a *homogeneous numerical stack* across hosts —
same NumPy/BLAS builds on comparable CPUs — because the per-level GEMM is
exactly as reproducible as the library computing it; deploy heterogeneous
fleets only with the same pinned builds everywhere (the loopback CI gate
runs coordinator and workers on one stack, which is the supported
configuration).

The transport pickles frames, so point the backend only at workers you
trust, on a private network.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro._typing import AnyArray
from repro.core import kernels
from repro.exceptions import ConfigurationError, SerializationError, ServingError
from repro.serving.backends import SerialBackend, ShardBackend, ShardResult, ShardTask
from repro.serving.server import DEFERRED, Connection, FramedServer, ping
from repro.serving.shards import SubtreeShard
from repro.serving.transport import (
    SidecarRef,
    TransportError,
    WorkerConnection,
    parse_address,
)
from repro.utils.mmapio import (
    fingerprints_match,
    map_region,
    memmap_region,
    sidecar_fingerprint,
)


def same_shard_objects(
    previous: Optional[Tuple[SubtreeShard, ...]], current: Tuple[SubtreeShard, ...]
) -> bool:
    """Whether two shard tuples hold the *same objects* in the same order.

    The staleness rule of worker provisioning: element-wise identity.
    Rebuilt-but-equal shards are different arrays and mean stale worker
    state (an ``==`` check would stop refreshing the day ``SubtreeShard``
    grew an ``__eq__``), while a fresh list/tuple of the same shard objects
    is *not* stale and must not re-provision a warm fleet.
    """
    return (
        previous is not None
        and len(previous) == len(current)
        and all(a is b for a, b in zip(previous, current, strict=True))
    )


def _frame_int(value: object) -> int:
    """A wire-frame integer field; a float, a string or a bool is refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ServingError(
        f"expected an integer frame field, got {type(value).__name__}"
    )


# --------------------------------------------------------------------------- #
# shard wire forms
# --------------------------------------------------------------------------- #
def _reference_wire(
    shards: Sequence[SubtreeShard],
) -> Optional[Tuple[str, Dict[str, object], List[Dict[str, object]]]]:
    """The by-reference wire form, or ``None`` when shards aren't mappable.

    By-reference provisioning needs every memory-mapped shard array to live
    in one file (the artifact's sidecar) — then the wire carries
    ``(sidecar path, fingerprint, states)``, where each mapped field of a
    state is a :class:`SidecarRef` to its region and a worker holding a
    byte-identical copy of the sidecar maps the same regions.  Returns
    ``None`` when no array is memmap-backed (in-memory model), the regions
    span multiple files, or the file on disk no longer serves the
    coordinator's live bytes (see below).

    The region descriptors promise workers "map these offsets and you hold
    exactly the bytes the coordinator serves".  That promise is verified
    here, not assumed: every referenced region is re-read from the file and
    compared against the live mapped array, because an atomically replaced
    artifact (new inode, possibly same size) leaves the coordinator serving
    the *old* mapping while the path — and therefore the fingerprint and
    every worker check — describes the *new* file.  One sequential read of
    the shard regions per provisioning epoch; on any mismatch the caller
    falls back to by-value, which streams the true live bytes.
    """
    regions: List[Dict[str, Tuple[str, int]]] = []
    for shard in shards:
        mapped: Dict[str, Tuple[str, int]] = {}
        for field_info in fields(SubtreeShard):
            region = memmap_region(getattr(shard, field_info.name))
            if region is not None:
                mapped[field_info.name] = region
        regions.append(mapped)
    paths = {path for mapped in regions for path, _ in mapped.values()}
    if len(paths) != 1:
        return None
    path = next(iter(paths))
    try:
        with open(path, "rb") as stream:
            for shard, mapped in zip(shards, regions, strict=True):
                for name, (_, offset) in mapped.items():
                    if not _region_matches(stream, offset, getattr(shard, name)):
                        return None
    except OSError:
        return None
    fingerprint = sidecar_fingerprint(path)
    states = _value_wire(shards)
    for shard, state, mapped in zip(shards, states, regions, strict=True):
        for name, (_, offset) in mapped.items():
            array = getattr(shard, name)
            state[name] = SidecarRef(
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
                file_bytes=cast(int, fingerprint["bytes"]),
            )
    return path, fingerprint, states


def _region_matches(stream: IO[bytes], offset: int, live: AnyArray) -> bool:
    """Whether the file region at ``offset`` equals the live array's bytes.

    Fixed-size chunks: the members being compared can rival the host's RAM
    (the sidecar is mmap-served precisely because it may not fit), so the
    comparison must never materialise a whole region.
    """
    view = memoryview(live).cast("B")
    stream.seek(int(offset))
    position = 0
    while position < len(view):
        chunk = stream.read(min(1 << 22, len(view) - position))
        if not chunk or chunk != view[position : position + len(chunk)]:
            return False
        position += len(chunk)
    return True


def _value_wire(shards: Sequence[SubtreeShard]) -> List[Dict[str, object]]:
    """The by-value wire form: every array travels as its bytes.

    Memmap-backed arrays are re-exposed as plain ndarray views over the
    mapping (``.view(np.ndarray)``), which pickle by value — the worker
    receives the exact bytes the coordinator serves from, so results stay
    byte-identical without the worker needing the artifact file.
    """
    states: List[Dict[str, object]] = []
    for shard in shards:
        state: Dict[str, object] = {}
        for field_info in fields(SubtreeShard):
            value = getattr(shard, field_info.name)
            if isinstance(value, np.ndarray):
                value = np.asarray(value).view(np.ndarray)
            state[field_info.name] = value
        states.append(state)
    return states


def _check_runnable(state: Dict[str, object]) -> None:
    """Refuse a shard state this worker cannot descend as the coordinator does.

    The state names the coordinator's engine.  Answering a fused
    coordinator in numpy arithmetic would change scores in the last bits
    without any error, so a worker without the kernel refuses the state and
    the coordinator runs those tasks itself.  Coordinators from before the
    distance was fixed to Euclidean also send a ``metric`` entry:
    ``"euclidean"`` is what every worker computes, anything else is refused
    the same way.
    """
    engine = state.get("engine")
    if not isinstance(engine, str) or engine not in ("numpy", "fused"):
        raise ServingError(
            f"shard state names engine {engine!r}; a shard worker runs 'numpy' or 'fused'"
        )
    if engine == "fused" and not kernels.fused_available():
        raise ServingError(
            "shard state needs the fused engine, which this worker cannot run: "
            + kernels.fused_build_error()
        )
    if "metric" in state and state["metric"] != "euclidean":
        raise ServingError(
            f"shard state names metric {state['metric']!r}; a shard worker "
            "serves Euclidean distances only"
        )


def _shard_from_state(
    state: Dict[str, object], sidecar_path: Optional[Path]
) -> SubtreeShard:
    """Rebuild a shard from a provisioned wire state on the worker side."""
    _check_runnable(state)
    restored: Dict[str, Any] = dict(state)
    restored.pop("metric", None)  # a parent coordinator's "euclidean"
    for name, value in state.items():
        if isinstance(value, SidecarRef):
            if sidecar_path is None:
                raise ServingError(
                    "by-reference shard state received but this worker has no "
                    "model artifact; restart it with --model"
                )
            restored[name] = map_region(
                sidecar_path,
                dtype=value.dtype,
                shape=value.shape,
                offset=value.offset,
                file_bytes=value.file_bytes,
            )
    return SubtreeShard(**restored)


# --------------------------------------------------------------------------- #
# coordinator side: the remote backend
# --------------------------------------------------------------------------- #
class RemoteBackend(ShardBackend):
    """Run shard tasks on remote worker processes over TCP.

    Slots in behind the same ``run(shards, tasks)`` seam as the in-process
    backends.  Tasks are spread round-robin over the live workers and
    pipelined concurrently on each persistent connection; any task a worker
    cannot finish — connection refused, death mid-batch, a provisioning
    refusal, a timeout — fails over to a local :class:`SerialBackend`, so
    the merged result is always complete and byte-identical.

    Each worker gets the shard set by reference when the shards map one v3
    sidecar, the live bytes still match it and the worker advertises a
    matching copy; otherwise by value.

    Dead workers are reconnected (and re-provisioned) on the next ``run``
    call, so a restarted worker rejoins the pool without coordinator
    restarts.  ``stats`` counts remote/failed-over tasks and provisioning
    modes for observability and tests.
    """

    name = "remote"

    def __init__(
        self,
        addresses: Union[str, Sequence[Union[str, Tuple[str, int]]]],
        *,
        connect_timeout: float = 10.0,
        task_timeout: float = 120.0,
        reconnect_backoff: float = 30.0,
    ) -> None:
        if isinstance(addresses, str):
            addresses = [part for part in addresses.split(",") if part.strip()]
        parsed = tuple(
            address if isinstance(address, tuple) else parse_address(address)
            for address in addresses
        )
        if not parsed:
            raise ConfigurationError(
                "the remote backend needs at least one worker address "
                "(HOST:PORT)"
            )
        self._addresses = parsed
        self._fallback = SerialBackend()
        self._connect_timeout = float(connect_timeout)
        self._task_timeout = float(task_timeout)
        self._reconnect_backoff = float(reconnect_backoff)
        self._connections: Dict[Tuple[str, int], WorkerConnection] = {}
        #: Monotonic deadline before which a failed address is not re-dialed
        #: (a dead host must not add a connect timeout to every batch).
        self._retry_at: Dict[Tuple[str, int], float] = {}
        #: The shard tuple the current epoch was provisioned for, compared
        #: element-wise by identity (see ``same_shard_objects``).
        self._epoch_shards: Optional[Tuple[SubtreeShard, ...]] = None
        self._epoch = -1
        self._wire_reference: Optional[Tuple[str, Dict[str, object], List[Dict[str, object]]]] = None
        self._wire_value: Optional[List[Dict[str, object]]] = None
        self.stats: Dict[str, int] = {
            "remote_tasks": 0,
            "failover_tasks": 0,
            "provision_reference": 0,
            "provision_value": 0,
            "connects": 0,
        }

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        return len(self._addresses)

    @property
    def addresses(self) -> Tuple[Tuple[str, int], ...]:
        return self._addresses

    def close(self) -> None:
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        self._epoch_shards = None
        self._wire_reference = None
        self._wire_value = None

    # ------------------------------------------------------------------ #
    def run(
        self, shards: Sequence[SubtreeShard], tasks: Sequence[ShardTask]
    ) -> List[ShardResult]:
        if not tasks:
            return []
        shard_tuple = tuple(shards)
        connections = self._ensure_workers(shard_tuple)
        results: List[Optional[ShardResult]] = [None] * len(tasks)
        failed: List[int] = []
        pending: List[Tuple[int, WorkerConnection, "Future[object]"]] = []
        if connections:
            for position, (index, matrix, entries) in enumerate(tasks):
                connection = connections[position % len(connections)]
                try:
                    future = connection.submit(
                        "run",
                        epoch=self._epoch,
                        shard=int(index),
                        matrix=matrix,
                        entries=entries,
                    )
                except ServingError:
                    self._drop(connection)
                    failed.append(position)
                    continue
                pending.append((position, connection, future))
        else:
            failed = list(range(len(tasks)))
        for position, connection, future in pending:
            try:
                leaf, distances = cast(
                    "Tuple[object, object]", future.result(timeout=self._task_timeout)
                )
                results[position] = (np.asarray(leaf), np.asarray(distances))
                self.stats["remote_tasks"] += 1
            except (ServingError, FutureTimeoutError):
                # Timed-out workers are dropped entirely: a late response to
                # an abandoned request must never be mistaken for a fresh one.
                self._drop(connection)
                failed.append(position)
        if failed:
            failed.sort()
            recovered = self._fallback.run(shard_tuple, [tasks[i] for i in failed])
            for position, result in zip(failed, recovered, strict=True):
                results[position] = result
            self.stats["failover_tasks"] += len(failed)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _ensure_workers(
        self, shards: Tuple[SubtreeShard, ...]
    ) -> List[WorkerConnection]:
        """Connect + provision every reachable worker for this shard tuple.

        Staleness is element-wise identity: different shard *objects* mean
        different arrays and stale worker state; a fresh tuple of the same
        objects does not force re-provisioning.
        """
        if not same_shard_objects(self._epoch_shards, shards):
            self._epoch += 1
            self._epoch_shards = shards
            self._wire_reference = _reference_wire(shards)
            self._wire_value = None  # materialised lazily (it copies arrays)
        live: List[WorkerConnection] = []
        for address in self._addresses:
            connection = self._connections.get(address)
            if connection is not None and not connection.is_alive:
                self._drop(connection)
                connection = None
            if connection is None:
                if time.monotonic() < self._retry_at.get(address, 0.0):
                    continue  # recently failed; don't re-dial every batch
                try:
                    connection = WorkerConnection(
                        address,
                        connect_timeout=self._connect_timeout,
                        role="shard-worker",
                    )
                except TransportError:
                    self._retry_at[address] = time.monotonic() + self._reconnect_backoff
                    continue  # unreachable or not a shard worker; retried after backoff
                self._retry_at.pop(address, None)
                self._connections[address] = connection
                self.stats["connects"] += 1
            if connection.provisioned_epoch != self._epoch:
                try:
                    self._provision(connection, shards)
                    connection.provisioned_epoch = self._epoch
                except (ServingError, FutureTimeoutError):
                    self._drop(connection)
                    # A worker that accepts connections but cannot be
                    # provisioned (wedged process, stalling proxy) must not
                    # re-cost a full provision attempt on every batch.
                    self._retry_at[address] = time.monotonic() + self._reconnect_backoff
                    continue
            live.append(connection)
        return live

    def _provision(
        self, connection: WorkerConnection, shards: Tuple[SubtreeShard, ...]
    ) -> None:
        """Ship the current shard set to one worker (reference or value).

        The shard states carry this host's engine.  A worker that advertised
        the numpy engine cannot run fused states: it is refused here,
        without a frame, and its tasks fail over.  Only a refused
        by-reference provision is retried by value (the worker's sidecar
        may have changed since the handshake).
        """
        if connection.info.get("engine") == "numpy" and any(
            shard.engine == "fused" for shard in shards
        ):
            host, port = connection.address
            raise ServingError(
                f"shard worker {host}:{port} runs the numpy engine and cannot "
                "run this coordinator's fused shard states"
            )
        wire_reference = self._wire_reference
        advertised = connection.info.get("sidecar")
        if (
            wire_reference is not None
            and isinstance(advertised, dict)
            and fingerprints_match(wire_reference[1], advertised)
        ):
            _, fingerprint, states = wire_reference
            try:
                connection.call(
                    "provision",
                    timeout=self._task_timeout,
                    mode="reference",
                    epoch=self._epoch,
                    sidecar=fingerprint,
                    shards=states,
                )
                self.stats["provision_reference"] += 1
                return
            except ServingError:
                # The worker's sidecar changed between handshake and
                # provision; stream the arrays instead of giving it up.
                pass
        if self._wire_value is None:
            self._wire_value = _value_wire(shards)
        connection.call(
            "provision",
            timeout=self._task_timeout,
            mode="value",
            epoch=self._epoch,
            sidecar=None,
            shards=self._wire_value,
        )
        self.stats["provision_value"] += 1

    def _drop(self, connection: WorkerConnection) -> None:
        connection.close()
        if self._connections.get(connection.address) is connection:
            del self._connections[connection.address]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        addresses = ",".join(f"{host}:{port}" for host, port in self._addresses)
        return f"RemoteBackend({addresses})"


# --------------------------------------------------------------------------- #
# worker side: the TCP shard server
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Provisioned:
    """One connection's provisioned shard set and the epoch it serves."""

    shards: Tuple[SubtreeShard, ...]
    epoch: int


def _run_shard(shards: Tuple[SubtreeShard, ...], frame: Dict[str, object]) -> object:
    """One ``run`` request's descent (runs in the executor)."""
    index = _frame_int(frame["shard"])
    if not 0 <= index < len(shards):
        raise ServingError(
            f"shard index {index} out of range (provisioned {len(shards)} shards)"
        )
    return shards[index].assign_entries(
        np.asarray(frame["matrix"]), np.asarray(frame["entries"])
    )


class ShardWorkerServer(FramedServer):
    """A shard worker: accepts coordinator connections and runs their tasks.

    Each connection carries its *own* provisioned shard set (two
    coordinators never share or race state).  When constructed with
    ``model_path`` (a bundle or detector artifact JSON), the worker resolves
    the v3 sidecar next to it, validates the local file against the
    artifact's integrity header, and advertises the sidecar fingerprint
    during the handshake — enabling by-reference provisioning.  The
    handshake also names the engine this host runs
    (:func:`~repro.core.kernels.host_engine`).

    The worker is the :class:`~repro.serving.server.FramedServer` core with
    a ``ping``/``provision``/``run`` ops table.  ``provision`` completes
    before the connection's next frame is read, so the epoch protocol stays
    in order.  Each ``run`` descends in the loop's default executor against
    the shard set its request arrived under, and is answered when it
    finishes: pipelined tasks overlap (the BLAS descent releases the GIL),
    and the multiplexed client matches responses by id.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``address``.  ``start()`` serves on a background thread (tests);
    ``serve_forever()`` blocks (the CLI entrypoint).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        model_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.model_path = Path(model_path) if model_path is not None else None
        self.sidecar_path: Optional[Path] = None
        if self.model_path is not None:
            # Lazy import: repro.core.serialization imports repro.serving
            # modules, so a top-level import here would be circular.
            from repro.core.serialization import artifact_sidecar_header

            resolved = artifact_sidecar_header(self.model_path)
            if resolved is not None:
                sidecar_path, header = resolved
                if not sidecar_path.exists():
                    raise ServingError(
                        f"model artifact {self.model_path} records sidecar "
                        f"{sidecar_path.name}, but the file is missing — keep "
                        "the JSON + .npz pair together on the worker host"
                    )
                if not fingerprints_match(header, sidecar_fingerprint(sidecar_path)):
                    raise ServingError(
                        f"sidecar {sidecar_path} does not match the integrity "
                        f"header of {self.model_path}: the worker's artifact "
                        "copy is stale or corrupt — re-sync both files"
                    )
                self.sidecar_path = sidecar_path
        super().__init__(
            host,
            port,
            role="shard-worker",
            info=self.worker_info,
            ops={"ping": ping, "provision": self._provision, "run": self._run},
            peer="coordinator",
        )

    # ------------------------------------------------------------------ #
    def worker_info(self) -> Dict[str, object]:
        """The worker's part of the handshake info (model, sidecar and engine)."""
        sidecar: Optional[Dict[str, object]] = None
        if self.sidecar_path is not None:
            try:
                sidecar = sidecar_fingerprint(self.sidecar_path)
            except (OSError, SerializationError):
                # File vanished or was corrupted since startup; the worker
                # must keep serving by value, not brick on every handshake.
                sidecar = None
        return {
            "model": None if self.model_path is None else str(self.model_path),
            "sidecar": sidecar,
            "engine": kernels.host_engine(),
        }

    # ------------------------------------------------------------------ #
    async def _provision(self, connection: Connection, frame: Dict[str, object]) -> object:
        # Awaited inside the read loop: the next frame is read only after
        # the new shard set is in place.  CRC checks and mmaps block, so
        # they run in the executor.
        provisioned = await asyncio.get_running_loop().run_in_executor(
            None, self._provisioned, frame
        )
        connection.state = provisioned
        return {"n_shards": len(provisioned.shards), "epoch": provisioned.epoch}

    async def _run(self, connection: Connection, frame: Dict[str, object]) -> object:
        state = connection.state
        if not isinstance(state, _Provisioned) or _frame_int(frame["epoch"]) != state.epoch:
            held = state.epoch if isinstance(state, _Provisioned) else None
            raise ServingError(
                "connection is not provisioned for epoch "
                f"{frame.get('epoch')!r} (worker holds {held!r}); provision "
                "before running tasks"
            )
        # The task keeps the shard set of its request: a later provision on
        # this connection must not swap arrays under it.
        self._answer_later(
            connection,
            frame["id"],
            asyncio.get_running_loop().run_in_executor(None, _run_shard, state.shards, frame),
        )
        return DEFERRED

    def _provisioned(self, frame: Dict[str, object]) -> _Provisioned:
        """Map one provision request's shards.

        Each shard runs with the engine its state carries, or the provision
        is refused (see :func:`_check_runnable`).  A ``serving`` key from a
        coordinator that still ships its config is ignored.
        """
        mode = frame.get("mode")
        states = frame.get("shards")
        if mode not in ("reference", "value") or not isinstance(states, list):
            raise ServingError(f"malformed provision request (mode={mode!r})")
        sidecar_path = None
        if mode == "reference":
            if self.sidecar_path is None:
                raise ServingError(
                    "this worker was started without a binary model artifact; "
                    "by-reference provisioning is impossible — restart it with "
                    "--model pointing at the v3 bundle, or let the coordinator "
                    "stream shards by value"
                )
            expected = frame.get("sidecar")
            if not isinstance(expected, dict):
                raise ServingError(
                    "by-reference provisioning needs the coordinator's sidecar "
                    "fingerprint; none was sent"
                )
            if not fingerprints_match(expected, sidecar_fingerprint(self.sidecar_path)):
                raise ServingError(
                    f"sidecar mismatch: this worker's {self.sidecar_path} does "
                    "not match the coordinator's artifact (size or per-member "
                    "CRC-32s differ) — refusing by-reference provisioning; "
                    "re-sync the model artifact to this host"
                )
            sidecar_path = self.sidecar_path
        shards = tuple(_shard_from_state(state, sidecar_path) for state in states)
        return _Provisioned(shards=shards, epoch=_frame_int(frame["epoch"]))
