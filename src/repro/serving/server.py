"""One asyncio server core for every role on the framed protocol.

The detection gateway (:mod:`repro.serving.gateway`) and the shard worker
(:mod:`repro.serving.remote`) are one server with two request
vocabularies.  :class:`FramedServer` owns what they share:

* the listener, bound in the constructor, so :attr:`~FramedServer.address`
  is known before serving starts (``port=0`` binds an ephemeral port);
* the lifecycle: :meth:`~FramedServer.start` serves on a background thread
  (tests, benchmarks), :meth:`~FramedServer.serve_forever` on the calling
  thread (the CLI, where SIGTERM drains like Ctrl-C), and
  :meth:`~FramedServer.shutdown` or the context manager stops either;
* the handshake, which advertises the server's ``role`` and the ``ops`` of
  its table next to the role's own info;
* the frame loop: ``{"id", "op"}`` validation, dispatch through the ops
  table, error replies, one reply lock per connection, client tracking,
  and the drain hook that shutdown runs before it closes the clients.

A role is an ops table ``{op: async handler}``.  A handler gets the
:class:`Connection` and the request frame, and returns the result the core
sends back.  A handler that raises gets an error reply, and the connection
stays up.  A handler that answers later returns :data:`DEFERRED`: the
gateway's batcher replies to each admitted ``detect`` itself, and the shard
worker hands each ``run`` to :meth:`FramedServer._answer_later`, so the read
loop goes on while the descent runs.  Blocking work goes through
``loop.run_in_executor``.  The role's info callable always does: the shard
worker's computes a CRC over its whole sidecar file.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import threading
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Mapping, Optional, Set, Tuple, TypeVar

from repro.exceptions import ServingError
from repro.serving.transport import (
    PROTOCOL_VERSION,
    TransportError,
    read_frame_async,
    write_frame_async,
)

#: What a handler returns when it sends its reply itself, later.
DEFERRED: object = object()

#: Read-ahead bound of each connection's stream reader.  asyncio's 64 KiB
#: default pauses the socket every 128 KiB, several times per shard-task
#: frame (a ~1 MiB row block); frames may be far larger anyway.
_READ_LIMIT = 1 << 22


@dataclass(eq=False)  # identity semantics: connections live in a set
class Connection:
    """One client connection: its writer, its reply lock and the role's state."""

    writer: asyncio.StreamWriter
    #: Per-connection state owned by the role (the shard worker keeps its
    #: provisioned shard set here); ``None`` until a handler sets it.
    state: object = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False

    async def reply(self, request_id: object, payload: Dict[str, object]) -> None:
        """Send one response frame; a vanished client is not an error."""
        if self.closed:
            return
        try:
            async with self.lock:
                await write_frame_async(self.writer, {"id": request_id, **payload})
        except TransportError:
            self.closed = True  # client disconnected mid-flight


Handler = Callable[[Connection, Dict[str, object]], Awaitable[object]]


async def ping(connection: Connection, frame: Dict[str, object]) -> object:
    """The liveness op every role serves."""
    return "pong"


async def _unknown_op(connection: Connection, frame: Dict[str, object]) -> object:
    raise ServingError(f"unknown operation {frame['op']!r}")


_Server = TypeVar("_Server", bound="FramedServer")


class FramedServer:
    """Asyncio TCP server for one role of the framed protocol.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port.
    role:
        Advertised in the handshake (``"gateway"``, ``"shard-worker"``);
        clients check it before their first request.
    info:
        Returns the role's own handshake info.  It runs in the default
        executor, once per connection.
    ops:
        The request vocabulary ``{op: async handler}``; the handshake
        advertises its keys, in order.
    peer:
        What the handshake's protocol-mismatch text calls the client.
    drain_timeout_s:
        Upper bound on the wait for in-flight answers at shutdown.

    Subclasses may override :meth:`_startup` (runs on the loop before the
    first connection is accepted) and :meth:`_drain` (runs at shutdown,
    after the listener closed and before the clients are closed).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        role: str,
        info: Callable[[], Dict[str, object]],
        ops: Mapping[str, Handler],
        peer: str = "client",
        drain_timeout_s: float = 10.0,
    ) -> None:
        self.role = role
        self._info = info
        self._ops: Dict[str, Handler] = dict(ops)
        self._peer = peer
        self._drain_timeout_s = float(drain_timeout_s)
        self._listener = socket.create_server((host, int(port)), reuse_port=False)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        #: Observability counters (written only from the event-loop thread);
        #: a role adds its own keys.
        self.stats: Dict[str, int] = {"request_errors": 0}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._draining = False
        self._connections: Set[Connection] = set()
        #: Answers still being computed (kept: the loop holds tasks weakly).
        self._answers: Set["asyncio.Task[None]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._sigterm_drain: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`, Ctrl-C or SIGTERM.

        On the main thread SIGTERM, which process managers send, drains like
        Ctrl-C.  Once the loop exists the signal arrives as a loop callback:
        raised as ``KeyboardInterrupt`` it could land in a weakref callback or
        a ``__del__``, where Python prints and drops it and the server runs on.
        """
        if threading.current_thread() is not threading.main_thread():
            self._run_loop()
            return
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            self._run_loop(drain_on_sigterm=True)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def start(self: _Server) -> _Server:
        """Serve on a daemon thread; returns once the server accepts."""
        self._thread = threading.Thread(
            target=self._run_loop,
            name=f"repro-{self.role}-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise ServingError(f"{self.role} failed to start: {self._startup_error}")
        return self

    def shutdown(self) -> None:
        """Stop from any thread: drain, close every client, stop the loop."""
        loop = self._loop
        if loop is None or not loop.is_running():
            self._listener.close()
            return
        try:
            asyncio.run_coroutine_threadsafe(self._shutdown_async(), loop).result(
                timeout=self._drain_timeout_s + 30.0
            )
        except (TransportError, ServingError, RuntimeError, TimeoutError):
            pass  # the loop stopped while (or before) the drain ran
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self: _Server) -> _Server:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    async def _startup(self) -> None:
        """Hook: runs on the loop before the first connection is accepted."""

    async def _drain(self) -> None:
        """Hook: finish admitted work once the listener has closed."""

    def _run_loop(self, *, drain_on_sigterm: bool = False) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        main_task = loop.create_task(self._main())
        if drain_on_sigterm:
            loop.add_signal_handler(signal.SIGTERM, self._drain_on_sigterm)
        try:
            loop.run_until_complete(main_task)
        except KeyboardInterrupt:
            # CLI path: drain in the same loop, then let _main finish.
            loop.run_until_complete(self._shutdown_async())
            loop.run_until_complete(main_task)
        except BaseException as exc:
            self._startup_error = exc
            raise
        finally:
            self._started.set()
            loop.close()

    def _drain_on_sigterm(self) -> None:
        self._sigterm_drain = asyncio.get_running_loop().create_task(self._shutdown_async())

    async def _main(self) -> None:
        self._stopped = asyncio.Event()
        await self._startup()
        self._server = await asyncio.start_server(
            self._serve_connection, sock=self._listener, limit=_READ_LIMIT
        )
        self._started.set()
        await self._stopped.wait()

    async def _shutdown_async(self) -> None:
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting; live connections stay up
        await self._drain()
        for connection in list(self._connections):
            connection.closed = True
            connection.writer.close()
        if self._answers:
            # Replies to the closed clients are dropped; waiting keeps every
            # descent inside the loop's lifetime.
            _, late = await asyncio.wait(self._answers, timeout=self._drain_timeout_s)
            for task in late:
                task.cancel()
        if self._server is not None:
            await self._server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = Connection(writer)
        self._connections.add(connection)
        try:
            # asyncio sets TCP_NODELAY only on sockets created with
            # proto=IPPROTO_TCP, which accepted sockets are not.
            raw = writer.get_extra_info("socket")
            if raw is not None:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not await self._handshake(reader, writer):
                return
            while True:
                try:
                    frame = await read_frame_async(reader)
                except TransportError:
                    return  # client went away (or sent garbage)
                if not isinstance(frame, dict) or "id" not in frame or "op" not in frame:
                    return
                operation = frame["op"]
                handler = self._ops.get(operation) if isinstance(operation, str) else None
                await self._answer(
                    connection, frame["id"], (handler or _unknown_op)(connection, frame)
                )
        except TransportError:
            pass  # handshake reply pipe broke
        finally:
            connection.closed = True
            self._connections.discard(connection)
            writer.close()

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Server side of the transport handshake; ``False`` closes the connection."""
        try:
            hello = await read_frame_async(reader)
        except TransportError:
            return False  # garbage or a port-scanner; nothing to answer
        if not isinstance(hello, dict) or hello.get("kind") != "hello":
            error = "expected a hello frame"
        elif hello.get("protocol") != PROTOCOL_VERSION:
            error = (
                f"protocol mismatch: {self.role.rpartition('-')[2]} speaks "
                f"{PROTOCOL_VERSION}, {self._peer} sent {hello.get('protocol')!r}; "
                "upgrade the older side"
            )
        else:
            info = await asyncio.get_running_loop().run_in_executor(None, self._info)
            advertised: Dict[str, object] = {
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "role": self.role,
                "ops": tuple(self._ops),
                **info,
            }
            await write_frame_async(
                writer, {"kind": "hello", "protocol": PROTOCOL_VERSION, "worker": advertised}
            )
            return True
        try:
            await write_frame_async(writer, {"kind": "reject", "error": error})
        except TransportError:
            pass
        return False

    async def _answer(
        self, connection: Connection, request_id: object, pending: Awaitable[object]
    ) -> None:
        """Await one request's result and reply with it, or with its error."""
        try:
            result = await pending
        # repro-lint: disable=RPL007 -- the server's one reply path: a failed
        # request is answered with an error frame (the client re-raises it
        # as ServingError); raising here would drop the whole connection.
        except Exception as exc:
            self.stats["request_errors"] += 1
            await connection.reply(
                request_id, {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        if result is not DEFERRED:
            await connection.reply(request_id, {"ok": True, "result": result})

    def _answer_later(
        self, connection: Connection, request_id: object, pending: Awaitable[object]
    ) -> None:
        """Reply once ``pending`` resolves, without holding up the read loop."""
        task = asyncio.get_running_loop().create_task(
            self._answer(connection, request_id, pending)
        )
        self._answers.add(task)
        task.add_done_callback(self._answers.discard)
