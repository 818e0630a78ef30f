"""The async detection gateway: a micro-batching front door for live scoring.

Every other entry point in this library is batch-shaped, but an inline
deployment sees millions of concurrent *single-record* requests — the shape
the compiled engine is worst at (per-call overhead dominates a one-row
descent).  :class:`DetectionGateway` closes that gap: an asyncio TCP server
speaking the existing framed transport (:mod:`repro.serving.transport`)
that serves queued ``detect`` requests as ONE
:meth:`~repro.core.detector.GhsomDetector.detect` call, then
demultiplexes the per-request slices back to their connections.  The
batcher is **self-clocking**: an idle gateway serves a request at once,
and the requests that arrive while one ``detect`` runs form the next batch
(bounded by a **max-batch-rows** cap).  Batch size follows the load; there
is no timer to tune.

The numerical contract is precise: the gateway adds **zero numerical
error**.  Every reply is exactly ``detect()`` on the served batch, sliced
per request — a request served alone is bit-for-bit the direct call, and a
coalesced batch is bit-for-bit ``detect()`` on the concatenated rows
(``tests/test_serving_gateway.py`` proves both).  Coalescing itself carries
the same caveat as changing your own batch size: BLAS blocks the distance
GEMM differently for different row counts, so a row's *score* may move by
~1 ULP depending on which batch it rode in.  That is a property of
``detect`` (measurable entirely without the gateway), not of the transport
or the demultiplexer.

Contracts worth knowing:

* **one model, configured once** — the gateway serves a single detector
  whose :class:`~repro.serving.config.ServingConfig` was applied at startup
  (the CLI ``serve`` command runs the standard precedence: CLI flags >
  artifact-embedded config > defaults).  The config's provenance
  (:meth:`~repro.serving.config.ServingConfig.provenance`, with the host's
  usable cores) is advertised in the handshake.
* **backpressure, never silent drops** — admission is bounded by
  ``max_pending_rows``; a request that would overflow it is rejected with
  an explicit :class:`~repro.exceptions.ServingError` reply.  Every
  admitted request gets exactly one reply (result or error) unless its
  client disconnects first.
* **per-request deadlines** — a ``detect`` request may carry ``timeout_ms``
  (a time budget starting at admission); a request still queued past its
  budget is answered with a deadline error instead of a stale result.
* **graceful drain** — :meth:`DetectionGateway.shutdown` stops accepting,
  rejects new work, and lets everything already admitted finish before the
  loop exits.

The transport pickles frames, so the gateway shares the shard worker's
trust model: serve trusted clients on a private network, never an
internet-facing port.

:class:`GatewayClient` is the matching client — a thin typed layer over the
:class:`~repro.serving.transport.WorkerConnection` multiplexer, so one
socket carries any number of in-flight requests (the benchmark drives 512).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError, ServingError
from repro.serving.server import DEFERRED, Connection, FramedServer, ping
from repro.serving.transport import WorkerConnection, parse_address

if TYPE_CHECKING:  # import cycle: repro.core.detector lazily imports serving
    from repro.core.detector import DetectionResult, GhsomDetector


# --------------------------------------------------------------------------- #
# wire-facing result
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GatewayResult:
    """One request's slice of a gateway micro-batch.

    The arrays are exactly this request's slice of the serving batch's
    :meth:`~repro.core.detector.GhsomDetector.detect` result — no transport
    round-trip error, byte-for-byte; ``batch_rows`` reports how many rows
    the micro-batch held in total, so ``> len(result)`` means the request
    was coalesced with concurrent traffic.
    """

    scores: AnyArray
    predictions: AnyArray
    categories: List[str]
    leaf_index: Optional[AnyArray]
    batch_rows: int

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @staticmethod
    def from_payload(payload: object) -> "GatewayResult":
        """Validate one ``detect`` result payload from the wire."""
        if not isinstance(payload, dict):
            raise ServingError(f"malformed gateway result payload: {payload!r}")
        scores = np.asarray(payload.get("scores"), dtype=float)
        predictions = np.asarray(payload.get("predictions"))
        categories_raw = payload.get("categories")
        if not isinstance(categories_raw, list):
            raise ServingError("malformed gateway result payload: categories missing")
        leaf_raw = payload.get("leaf_index")
        leaf_index = None if leaf_raw is None else np.asarray(leaf_raw)
        if scores.ndim != 1 or scores.shape[0] != predictions.shape[0] or scores.shape[0] != len(categories_raw):
            raise ServingError(
                "malformed gateway result payload: per-record arrays disagree "
                f"on length ({scores.shape[0]} scores, {predictions.shape[0]} "
                f"predictions, {len(categories_raw)} categories)"
            )
        try:
            batch_rows = int(payload["batch_rows"])  # type: ignore[call-overload]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServingError(
                "malformed gateway result payload: batch_rows missing"
            ) from exc
        return GatewayResult(
            scores=scores,
            predictions=predictions,
            categories=[str(category) for category in categories_raw],
            leaf_index=leaf_index,
            batch_rows=batch_rows,
        )


# --------------------------------------------------------------------------- #
# server
# --------------------------------------------------------------------------- #
@dataclass
class _PendingRequest:
    """One admitted ``detect`` request waiting for (or riding) a micro-batch."""

    connection: Connection
    request_id: object
    rows: AnyArray
    n_rows: int
    #: Monotonic instant after which the request must be answered with a
    #: deadline error instead of a result (``None`` = no budget).
    deadline: Optional[float]
    timeout_ms: Optional[float]


class DetectionGateway(FramedServer):
    """Asyncio TCP server that micro-batches ``detect`` requests.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.core.detector.GhsomDetector` (serving
        config already applied; the gateway resolves its plan once here and
        never reconfigures it).
    host, port:
        Listen address; ``port=0`` binds an ephemeral port — read the real
        one from :attr:`address` (available immediately, the listening
        socket is created in the constructor).
    max_batch_rows:
        Row cap per ``detect`` call; also the largest row-block one request
        may carry.
    max_pending_rows:
        Admission bound: total rows admitted-but-unanswered.  A request
        that would overflow it is rejected with an explicit error reply.
    drain_timeout_s:
        Upper bound :meth:`shutdown` waits for admitted work to finish.

    The lifecycle (``start()`` on a background thread, ``serve_forever()``
    on the calling one, :meth:`shutdown`), the handshake and the frame loop
    are the :class:`~repro.serving.server.FramedServer` core's; the gateway
    is its ``ping``/``detect`` ops table plus the micro-batcher.
    """

    def __init__(
        self,
        detector: "GhsomDetector",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch_rows: int = 4096,
        max_pending_rows: int = 32768,
        drain_timeout_s: float = 10.0,
    ) -> None:
        if max_batch_rows < 1:
            raise ConfigurationError(f"max_batch_rows must be >= 1, got {max_batch_rows}")
        if max_pending_rows < max_batch_rows:
            raise ConfigurationError(
                f"max_pending_rows ({max_pending_rows}) must be >= "
                f"max_batch_rows ({max_batch_rows}), or a full-size request "
                "could never be admitted"
            )
        if not detector.is_fitted:
            raise ServingError("the gateway needs a fitted detector")
        self._detector = detector
        self._max_batch_rows = int(max_batch_rows)
        self._max_pending_rows = int(max_pending_rows)
        self._plan_info = detector.serving_config.provenance(usable_cores=True)
        self._n_features = int(detector._compiled_model().n_features)
        super().__init__(
            host,
            port,
            role="gateway",
            info=self.gateway_info,
            ops={"ping": ping, "detect": self._detect},
            drain_timeout_s=drain_timeout_s,
        )
        self.stats.update(
            requests=0,
            rows=0,
            batches=0,
            batched_rows=0,
            largest_batch_rows=0,
            rejected_backpressure=0,
            expired_deadlines=0,
        )
        self._pending_rows = 0
        self._queue: Deque[_PendingRequest] = deque()
        #: Set on admission and at drain; the idle batcher waits on it.
        self._wake = asyncio.Event()
        self._closing = False
        self._batcher: Optional["asyncio.Task[None]"] = None

    def gateway_info(self) -> Dict[str, object]:
        """The gateway's part of the handshake info (model shape and knobs)."""
        return {
            "n_features": self._n_features,
            "max_batch_rows": self._max_batch_rows,
            "max_pending_rows": self._max_pending_rows,
            "plan": dict(self._plan_info),
        }

    async def _startup(self) -> None:
        self._batcher = asyncio.create_task(self._batch_loop())

    async def _drain(self) -> None:
        # Admitted work drains: new detect ops are rejected from here on,
        # everything already in the queue still gets its real result.
        deadline = time.monotonic() + self._drain_timeout_s
        while self._pending_rows > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        self._closing = True  # the batcher stops once the queue is empty
        self._wake.set()
        if self._batcher is not None:
            try:
                await asyncio.wait_for(self._batcher, timeout=self._drain_timeout_s)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._batcher.cancel()

    async def _detect(self, connection: Connection, frame: Dict[str, object]) -> object:
        self._admit(connection, frame["id"], frame)
        return DEFERRED  # the batcher answers

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _admit(
        self, connection: Connection, request_id: object, frame: Dict[str, object]
    ) -> None:
        """Validate and enqueue one ``detect`` request (or raise the rejection)."""
        if self._draining:
            raise ServingError(
                "gateway is draining (shutdown in progress); the request was "
                "not admitted"
            )
        rows = self._coerce_rows(frame.get("rows"))
        deadline: Optional[float] = None
        timeout_ms: Optional[float] = None
        budget = frame.get("timeout_ms")
        if budget is not None:
            # ``not >= 0`` also rejects NaN, which compares false both ways.
            if (
                isinstance(budget, bool)
                or not isinstance(budget, (int, float, np.integer, np.floating))
                or not bool(budget >= 0)
            ):
                raise ServingError(
                    f"timeout_ms must be a non-negative number, got {budget!r}"
                )
            timeout_ms = float(budget)
            deadline = time.monotonic() + timeout_ms / 1e3
        n_rows = int(rows.shape[0])
        if self._pending_rows + n_rows > self._max_pending_rows:
            self.stats["rejected_backpressure"] += 1
            raise ServingError(
                f"gateway pending queue is full ({self._pending_rows} rows "
                f"admitted, cap {self._max_pending_rows}); back off and retry"
            )
        self._pending_rows += n_rows
        self.stats["requests"] += 1
        self.stats["rows"] += n_rows
        self._queue.append(
            _PendingRequest(
                connection=connection,
                request_id=request_id,
                rows=rows,
                n_rows=n_rows,
                deadline=deadline,
                timeout_ms=timeout_ms,
            )
        )
        self._wake.set()

    def _coerce_rows(self, payload: object) -> AnyArray:
        """Per-request row validation — a bad request must not poison a batch."""
        if not isinstance(payload, np.ndarray):
            raise ServingError(
                "detect rows must be a numpy array (one record or a 2-D "
                f"row-block), got {type(payload).__name__}"
            )
        matrix = payload.reshape(1, -1) if payload.ndim == 1 else payload
        if matrix.ndim != 2:
            raise ServingError(
                f"detect rows must be 1-D or 2-D, got shape {payload.shape}"
            )
        if matrix.dtype.kind not in "fiu":
            raise ServingError(
                f"detect rows must be numeric, got dtype {matrix.dtype}"
            )
        if matrix.shape[0] < 1:
            raise ServingError("detect rows must contain at least one record")
        if matrix.shape[1] != self._n_features:
            raise ServingError(
                f"detect rows have {matrix.shape[1]} features, the model "
                f"expects {self._n_features}"
            )
        if matrix.shape[0] > self._max_batch_rows:
            raise ServingError(
                f"row-block of {matrix.shape[0]} rows exceeds this gateway's "
                f"max-batch-rows cap of {self._max_batch_rows}; split the "
                "request"
            )
        # Convert to float64 at admission: batch concatenation is then
        # dtype-uniform and detect()'s own validation pass-through — exactly
        # the arrays a direct detect() call would descend with.
        rows = np.ascontiguousarray(matrix, dtype=float)
        # Non-finite values (including ones the cast overflowed to inf) would
        # make detect() reject the whole coalesced batch; reject this request.
        if not np.isfinite(rows).all():
            raise ServingError("detect rows must be finite (no NaN or inf values)")
        return rows

    # ------------------------------------------------------------------ #
    # the micro-batcher
    # ------------------------------------------------------------------ #
    async def _batch_loop(self) -> None:
        """Serve the queue as single ``detect`` calls until drain empties it.

        Self-clocking: an idle batcher serves a request at once.  While one
        batch computes in the executor, the event loop keeps admitting
        requests, and the next batch is everything queued by then, up to
        ``max_batch_rows`` — under load the batch size adapts to however
        much arrives per descent.
        """
        queue = self._queue
        while True:
            if not queue:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = [queue.popleft()]
            total_rows = batch[0].n_rows
            while queue and total_rows + queue[0].n_rows <= self._max_batch_rows:
                total_rows += queue[0].n_rows
                batch.append(queue.popleft())
            await self._execute(batch)

    async def _execute(self, batch: Sequence[_PendingRequest]) -> None:
        """Run one coalesced ``detect`` call and demultiplex the replies."""
        now = time.monotonic()
        live: List[_PendingRequest] = []
        for item in batch:
            if item.deadline is not None and now > item.deadline:
                self.stats["expired_deadlines"] += 1
                self._pending_rows -= item.n_rows
                await item.connection.reply(
                    item.request_id,
                    {
                        "ok": False,
                        "error": (
                            f"ServingError: deadline expired (timeout_ms="
                            f"{item.timeout_ms}) before the request was served"
                        ),
                    },
                )
            else:
                live.append(item)
        if not live:
            return
        matrix = (
            live[0].rows
            if len(live) == 1
            else np.concatenate([item.rows for item in live], axis=0)
        )
        loop = asyncio.get_running_loop()
        try:
            result: "DetectionResult" = await loop.run_in_executor(
                None, self._detector.detect, matrix
            )
        # repro-lint: disable=RPL007 -- gateway batch path: the failure is
        # shipped back as an error reply to every coalesced request (they
        # must never hang); raising would kill the batch loop and starve
        # every connection.
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            for item in live:
                self._pending_rows -= item.n_rows
                self.stats["request_errors"] += 1
                await item.connection.reply(
                    item.request_id, {"ok": False, "error": message}
                )
            return
        batch_rows = int(matrix.shape[0])
        self.stats["batches"] += 1
        self.stats["batched_rows"] += batch_rows
        self.stats["largest_batch_rows"] = max(
            self.stats["largest_batch_rows"], batch_rows
        )
        offset = 0
        for item in live:
            stop = offset + item.n_rows
            payload: Dict[str, object] = {
                "scores": np.ascontiguousarray(result.scores[offset:stop]),
                "predictions": np.ascontiguousarray(result.predictions[offset:stop]),
                "categories": list(result.categories[offset:stop]),
                "leaf_index": (
                    None
                    if result.leaf_index is None
                    else np.ascontiguousarray(result.leaf_index[offset:stop])
                ),
                "batch_rows": batch_rows,
            }
            offset = stop
            self._pending_rows -= item.n_rows
            await item.connection.reply(
                item.request_id, {"ok": True, "result": payload}
            )


# --------------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------------- #
class GatewayClient:
    """Multiplexed client for one :class:`DetectionGateway`.

    A thin typed layer over :class:`~repro.serving.transport.WorkerConnection`
    — one persistent socket, any number of in-flight ``detect`` requests,
    responses matched back by id.  The handshake's ``role`` advertisement is
    verified up front, so pointing the client at a shard worker fails with
    one clear error instead of a vocabulary mismatch mid-request.
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        connect_timeout: float = 10.0,
    ) -> None:
        resolved = parse_address(address) if isinstance(address, str) else (
            str(address[0]),
            int(address[1]),
        )
        self._connection = WorkerConnection(
            resolved, connect_timeout=connect_timeout, role="gateway"
        )
        self.address = resolved

    # ------------------------------------------------------------------ #
    @property
    def info(self) -> Dict[str, object]:
        """The gateway's handshake info (resolved plan, knobs, n_features)."""
        return dict(self._connection.info)

    @property
    def n_features(self) -> Optional[int]:
        """Feature width the gateway's model expects (from the handshake)."""
        advertised = self._connection.info.get("n_features")
        return int(advertised) if isinstance(advertised, (int, np.integer)) else None

    @property
    def is_alive(self) -> bool:
        return self._connection.is_alive

    # ------------------------------------------------------------------ #
    def submit(
        self, rows: object, *, timeout_ms: Optional[float] = None
    ) -> "Future[GatewayResult]":
        """Send one ``detect`` request; the future resolves to its result.

        ``rows`` is one record (1-D) or a small row-block (2-D); the
        authoritative validation happens gateway-side.  ``timeout_ms`` is a
        server-side budget: a request still queued past it is answered with
        a deadline error.  The returned future raises
        :class:`~repro.exceptions.ServingError` for gateway rejections and
        :class:`~repro.serving.transport.TransportError` for a dead
        connection.
        """
        matrix = np.asarray(rows)
        inner = (
            self._connection.submit("detect", rows=matrix)
            if timeout_ms is None
            else self._connection.submit(
                "detect", rows=matrix, timeout_ms=float(timeout_ms)
            )
        )
        outer: "Future[GatewayResult]" = Future()

        def _transfer(done: "Future[object]") -> None:
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            try:
                outer.set_result(GatewayResult.from_payload(done.result()))
            except ServingError as exc:
                outer.set_exception(exc)

        inner.add_done_callback(_transfer)
        return outer

    def detect(
        self,
        rows: object,
        *,
        timeout: Optional[float] = None,
        timeout_ms: Optional[float] = None,
    ) -> GatewayResult:
        """Synchronous convenience: :meth:`submit` + ``result``."""
        return self.submit(rows, timeout_ms=timeout_ms).result(timeout=timeout)

    def ping(self, *, timeout: Optional[float] = 10.0) -> bool:
        """Round-trip liveness probe."""
        return self._connection.call("ping", timeout=timeout) == "pong"

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
