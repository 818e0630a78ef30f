"""Framed TCP transport for distributed shard serving.

The wire format is deliberately small: every message is one **frame** —
an 8-byte prefix (4-byte magic + big-endian payload length) followed by a
pickled payload.  On top of frames sit two fixed exchanges:

* **handshake** — the first frame in each direction.  The client sends
  ``{"kind": "hello", "protocol": N}``; the server answers either
  ``{"kind": "hello", "protocol": N, "worker": {...}}`` or
  ``{"kind": "reject", "error": ...}`` and closes.  A version mismatch is
  detected *before* any request is interpreted, so old coordinators and new
  workers (or vice versa) fail with one clear error instead of a pickle
  explosion mid-batch.
* **requests** — ``{"id": n, "op": ..., **params}`` frames answered by
  ``{"id": n, "ok": True, "result": ...}`` or ``{"id": n, "ok": False,
  "error": ...}``.  Responses carry the request id, which is what lets a
  single connection multiplex many in-flight requests.

The request vocabulary is *role-scoped*: a shard worker serves ``ping`` /
``provision`` / ``run``, the detection gateway
(:mod:`repro.serving.gateway`) serves ``ping`` / ``detect``.  Adding an op
is a compatible change — an unknown op gets an error reply, never a broken
stream — so :data:`PROTOCOL_VERSION` stays put; servers instead advertise
``role`` and ``ops`` keys in the handshake's worker-info dict, which is how
a client verifies the peer speaks the vocabulary it needs before the first
request (``WorkerConnection(address, role=...)``).

This module holds the frames (a blocking socket form and an asyncio form)
and the client side.  The server side of every role, handshake included,
is one asyncio core: :class:`repro.serving.server.FramedServer`.
:class:`WorkerConnection` is the client: one persistent socket per peer, a
send lock, and a background reader thread that matches response frames to
pending :class:`~concurrent.futures.Future` objects — the "small socket
multiplexer" the remote backend pipelines its shard tasks through and the
gateway client sends its requests over.

Payloads are pickled (protocol 5: zero-copy numpy buffers), which means the
transport must only ever connect trusted peers.  Run workers on a private
cluster network, never on an internet-facing port.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ServingError

#: Protocol version spoken by this module.  Bumped whenever the frame
#: layout, the handshake, or the request vocabulary changes incompatibly;
#: both ends refuse mismatched peers during the handshake.
PROTOCOL_VERSION = 1

#: Frame magic: lets either end reject a non-repro peer (or a corrupted
#: stream) on the first 4 bytes instead of trying to unpickle garbage.
FRAME_MAGIC = b"RSHD"
_PREFIX = struct.Struct("!4sI")

#: Upper bound on a single frame's payload.  Generous (shard provisioning
#: ships codebook slices) but finite, so a corrupted length field cannot
#: make the receiver attempt a multi-terabyte allocation.
MAX_FRAME_BYTES = 1 << 31


class TransportError(ServingError):
    """A framed-transport failure: connect, handshake, or a broken stream."""


@dataclass(frozen=True)
class SidecarRef:
    """A shard array that lives in the model artifact's ``.npz`` sidecar.

    The by-reference provisioning form of a memory-mapped shard array, and
    the only region descriptor: instead of the bytes, the wire carries the
    dtype/shape/offset of the region (found by
    :func:`~repro.utils.mmapio.memmap_region`).  The receiving worker checks
    *its own* copy of the sidecar against the coordinator's fingerprint,
    then maps the same region with :func:`~repro.utils.mmapio.map_region`,
    which refuses a non-numeric dtype, a negative shape or a region past the
    end of the file.  ``file_bytes`` pins the sidecar size the reference was
    taken against, so a stale worker-side file fails loudly.
    """

    dtype: str
    shape: Tuple[int, ...]
    offset: int
    file_bytes: int


# --------------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------------- #
def _read_exact(sock: socket.socket, n_bytes: int) -> bytes:
    """Read exactly ``n_bytes`` or raise :class:`TransportError`.

    A peer closing mid-frame surfaces as a short read — the "truncated
    frame" failure mode — never as a partial pickle reaching the caller.
    """
    chunks: List[bytes] = []
    remaining = n_bytes
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise TransportError(f"connection failed mid-frame: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame ({n_bytes - remaining} of "
                f"{n_bytes} bytes received): truncated frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _encode_body(payload: object) -> bytes:
    """Pickle one frame payload, enforcing the frame-size ceiling."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return body


def _frame_length(prefix: bytes) -> int:
    """Validate a frame prefix (magic + length) and return the body length."""
    magic, length = _PREFIX.unpack(prefix)
    if magic != FRAME_MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r}: the peer is not speaking the repro "
            "shard-serving protocol"
        )
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit "
            "(corrupted stream?)"
        )
    return int(length)


def _decode_body(body: bytes) -> object:
    """Unpickle one frame body."""
    try:
        return pickle.loads(body)
    except Exception as exc:  # pickle raises a zoo of error types
        raise TransportError(f"could not decode frame payload: {exc}") from exc


def send_frame(sock: socket.socket, payload: object) -> None:
    """Pickle ``payload`` and send it as one length-prefixed frame."""
    body = _encode_body(payload)
    prefix = _PREFIX.pack(FRAME_MAGIC, len(body))
    try:
        if len(body) < (1 << 16):
            sock.sendall(prefix + body)
        else:
            # Don't duplicate a large payload (by-value provisioning ships
            # whole codebooks) just to glue 8 bytes in front of it.
            sock.sendall(prefix)
            sock.sendall(body)
    except OSError as exc:
        raise TransportError(f"could not send frame: {exc}") from exc


def recv_frame(sock: socket.socket) -> object:
    """Receive one frame and unpickle its payload.

    Raises :class:`TransportError` for a closed/truncated stream, a wrong
    magic (not a repro peer), or an implausible length field.
    """
    prefix = _read_exact(sock, _PREFIX.size)
    length = _frame_length(prefix)
    body = _read_exact(sock, length)
    return _decode_body(body)


async def _read_exact_async(reader: asyncio.StreamReader, n_bytes: int) -> bytes:
    """Asyncio twin of :func:`_read_exact`: ``n_bytes`` or :class:`TransportError`."""
    try:
        return await reader.readexactly(n_bytes)
    except asyncio.IncompleteReadError as exc:
        raise TransportError(
            f"connection closed mid-frame ({len(exc.partial)} of "
            f"{n_bytes} bytes received): truncated frame"
        ) from exc
    except OSError as exc:
        raise TransportError(f"connection failed mid-frame: {exc}") from exc


async def read_frame_async(reader: asyncio.StreamReader) -> object:
    """Asyncio twin of :func:`recv_frame` (same frames, same failure modes).

    A peer that closes cleanly *between* frames surfaces as a
    :class:`TransportError` too ("0 of 8 bytes received"), matching the
    synchronous reader's contract: the server core treats any transport
    failure as the end of the connection.
    """
    prefix = await _read_exact_async(reader, _PREFIX.size)
    length = _frame_length(prefix)
    body = await _read_exact_async(reader, length)
    return _decode_body(body)


async def write_frame_async(writer: asyncio.StreamWriter, payload: object) -> None:
    """Asyncio twin of :func:`send_frame`, with flow control via ``drain``.

    The whole frame goes into the writer's buffer in one synchronous
    ``write``, so two coroutines can never interleave partial frames.
    """
    body = _encode_body(payload)
    try:
        writer.write(_PREFIX.pack(FRAME_MAGIC, len(body)) + body)
        await writer.drain()
    except OSError as exc:
        raise TransportError(f"could not send frame: {exc}") from exc


# --------------------------------------------------------------------------- #
# handshake
# --------------------------------------------------------------------------- #
def client_handshake(sock: socket.socket, *, protocol: int = PROTOCOL_VERSION) -> Dict[str, object]:
    """Run the client side of the handshake; returns the worker's info dict."""
    # repro-lint: disable=RPL004 -- handshake is single threaded: it runs
    # before the connection is shared and before any reader thread exists.
    send_frame(sock, {"kind": "hello", "protocol": int(protocol)})
    reply = recv_frame(sock)
    if not isinstance(reply, dict) or reply.get("kind") not in ("hello", "reject"):
        raise TransportError(f"unexpected handshake reply: {reply!r}")
    if reply.get("kind") == "reject":
        raise TransportError(f"worker rejected the connection: {reply.get('error')}")
    if reply.get("protocol") != PROTOCOL_VERSION:
        raise TransportError(
            f"worker speaks protocol {reply.get('protocol')!r}, this "
            f"coordinator speaks {PROTOCOL_VERSION}; upgrade the older side"
        )
    worker = reply.get("worker")
    return dict(worker) if isinstance(worker, dict) else {}


# --------------------------------------------------------------------------- #
# multiplexed client connection
# --------------------------------------------------------------------------- #
class WorkerConnection:
    """One persistent, multiplexed connection to a shard worker or a gateway.

    ``submit`` sends a request frame and returns a future; any number may be
    in flight at once (the peer answers in its own order, responses are
    matched back by id).  The first stream error fails every pending future
    and marks the connection dead — the remote backend then fails the
    affected tasks over to its local fallback.

    ``role`` names the peer the caller needs (``"shard-worker"``,
    ``"gateway"``).  A peer that advertises another role is refused with a
    :class:`TransportError` before any request is sent, the error an
    unreachable address raises.  A peer that advertises no role predates
    role advertisement and is accepted.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        connect_timeout: float = 10.0,
        protocol: int = PROTOCOL_VERSION,
        role: Optional[str] = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        try:
            self._sock = socket.create_connection(self.address, timeout=connect_timeout)
        except OSError as exc:
            raise TransportError(
                f"could not connect to shard worker {self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.info = client_handshake(self._sock, protocol=protocol)
            advertised = self.info.get("role")
            if role is not None and advertised is not None and advertised != role:
                raise TransportError(
                    f"the peer at {self.address[0]}:{self.address[1]} advertises "
                    f"role {advertised!r}, not {role!r}: it serves the ops "
                    f"{self.info.get('ops')!r}, a different request vocabulary"
                )
        except BaseException:
            self._sock.close()
            raise
        # Error replies name the peer by the role its handshake advertised
        # ("shard-worker" -> "shard worker", "gateway"); peers that predate
        # role advertisement are plain "peer"s.
        role = str(self.info.get("role") or "peer").replace("-", " ")
        self._peer_label = f"{role} {self.address[0]}:{self.address[1]}"
        # Request/response frames block indefinitely at the socket level;
        # per-task deadlines are enforced by future.result(timeout) so one
        # slow worker cannot wedge the reader thread's unrelated responses.
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future[object]] = {}
        self._next_id = 0
        self._dead: Optional[TransportError] = None
        #: Provisioning epoch the worker last acknowledged on this
        #: connection (bookkeeping owned by the remote backend).
        self.provisioned_epoch: Optional[int] = None
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-remote-{self.address[0]}:{self.address[1]}",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------ #
    @property
    def is_alive(self) -> bool:
        return self._dead is None

    def submit(self, op: str, **params: object) -> Future[object]:
        """Send one request frame; the returned future resolves to the result.

        The future raises :class:`ServingError` when the worker answered
        with an application error, and :class:`TransportError` when the
        connection died before the response arrived.
        """
        future: Future[object] = Future()
        with self._pending_lock:
            if self._dead is not None:
                raise self._dead
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = future
        try:
            with self._send_lock:
                send_frame(self._sock, {"id": request_id, "op": op, **params})
        except TransportError as exc:
            self._fail_all(exc)
            raise
        return future

    def call(self, op: str, *, timeout: Optional[float] = None, **params: object) -> object:
        """Synchronous convenience: ``submit`` + ``result``."""
        return self.submit(op, **params).result(timeout=timeout)

    def close(self) -> None:
        self._fail_all(TransportError("connection closed"))

    def __enter__(self) -> "WorkerConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _read_loop(self) -> None:
        while True:
            try:
                frame = recv_frame(self._sock)
            except TransportError as exc:
                self._fail_all(
                    exc
                    if self._dead is None
                    else TransportError("connection closed")
                )
                return
            # Any processing failure must kill the connection loudly: a
            # silently dead reader would leave is_alive True and every
            # pending future hanging until its timeout.
            try:
                if not isinstance(frame, dict) or "id" not in frame:
                    raise TransportError(f"malformed response frame: {frame!r}")
                with self._pending_lock:
                    future = self._pending.pop(int(frame["id"]), None)
                if future is None:
                    continue  # response to an abandoned request
                if frame.get("ok"):
                    future.set_result(frame.get("result"))
                else:
                    future.set_exception(
                        ServingError(
                            f"{self._peer_label} refused a request: {frame.get('error')}"
                        )
                    )
            except TransportError as exc:
                self._fail_all(exc)
                return
            except Exception as exc:
                self._fail_all(
                    TransportError(f"could not process response frame: {exc}")
                )
                return

    def _fail_all(self, error: TransportError) -> None:
        with self._pending_lock:
            if self._dead is None:
                self._dead = error
            pending, self._pending = self._pending, {}
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        for future in pending.values():
            if not future.done():
                future.set_exception(error)


def parse_address(spec: str) -> Tuple[str, int]:
    """Parse one ``HOST:PORT`` worker address.

    IPv6 hosts use the standard bracketed form: ``[::1]:9000`` parses to
    ``("::1", 9000)`` — the brackets are stripped, because
    ``socket.create_connection`` resolves the bare address, not the
    bracketed spelling.  An unbracketed multi-colon spec such as
    ``::1:9000`` is ambiguous (every colon is a plausible host/port split)
    and rejected outright rather than silently mis-split.
    """
    text = str(spec).strip()
    if text.startswith("["):
        bracketed, _, port = text.partition("]")
        host = bracketed[1:]
        if not host or not port.startswith(":"):
            raise ServingError(
                f"invalid worker address {spec!r}; expected [IPV6-ADDR]:PORT"
            )
        port = port[1:]
    else:
        host, separator, port = text.rpartition(":")
        if not separator or not host:
            raise ServingError(
                f"invalid worker address {spec!r}; expected HOST:PORT"
            )
        if ":" in host:
            raise ServingError(
                f"invalid worker address {spec!r}; an unbracketed IPv6 "
                "address is ambiguous — write it as [ADDR]:PORT"
            )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ServingError(
            f"invalid worker address {spec!r}; the port must be an integer"
        ) from exc
