"""Conformance of the framed-protocol server core (repro.serving.server).

The detection gateway and the shard worker are one asyncio server core with
two ops tables, so one ordered sequence checks both: connect, read the
capabilities from the handshake, run operations (good, unknown and
malformed), then close — the server-side half by :meth:`shutdown`.  Every
step talks raw frames over a plain socket, so the test pins the wire
behaviour rather than a client library's view of it.
"""

from __future__ import annotations

import socket

import pytest

from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.serving import DetectionGateway, ShardWorkerServer
from repro.serving.transport import (
    PROTOCOL_VERSION,
    TransportError,
    client_handshake,
    recv_frame,
    send_frame,
)

#: Each role and the exact ops its handshake must advertise, in order.
ROLES = {
    "gateway": ("ping", "detect"),
    "shard-worker": ("ping", "provision", "run"),
}


@pytest.fixture(scope="module")
def fitted():
    generator = KddSyntheticGenerator(random_state=5)
    train = generator.generate(400)
    pipeline = PreprocessingPipeline()
    detector = GhsomDetector(
        GhsomConfig(
            tau1=0.5,
            tau2=0.1,
            max_depth=2,
            max_map_size=16,
            training=SomTrainingConfig(epochs=2),
            random_state=3,
        ),
        random_state=3,
    )
    detector.fit(pipeline.fit_transform(train), [str(c) for c in train.categories])
    return detector


@pytest.fixture(params=sorted(ROLES))
def server(request, fitted):
    if request.param == "gateway":
        instance = DetectionGateway(fitted)
    else:
        instance = ShardWorkerServer()
    with instance.start() as running:
        yield running


def _connect(address):
    sock = socket.create_connection(address, timeout=10)
    info = client_handshake(sock)
    return sock, info


def _call(sock, request_id, op, **params):
    send_frame(sock, {"id": request_id, "op": op, **params})
    reply = recv_frame(sock)
    assert reply["id"] == request_id
    return reply


def _closed_by_peer(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_conformance_sequence(server):
    ops = ROLES[server.role]
    # I. connect and read the capabilities.
    sock, info = _connect(server.address)
    try:
        assert info["role"] == server.role
        assert tuple(info["ops"]) == ops
        assert info["protocol"] == PROTOCOL_VERSION
        # II. operations: ping, then an unknown op that must not kill the
        # stream, then ping again on the same connection.
        assert _call(sock, 1, "ping") == {"id": 1, "ok": True, "result": "pong"}
        reply = _call(sock, 2, "no-such-op")
        assert reply["ok"] is False
        assert "unknown operation 'no-such-op'" in reply["error"]
        reply = _call(sock, 3, ["unhashable"])
        assert reply["ok"] is False and "unknown operation" in reply["error"]
        assert _call(sock, 4, "ping")["result"] == "pong"
        assert server.stats["request_errors"] == 2
        # III. a frame that is not a request closes this connection only.
        other, _ = _connect(server.address)
        try:
            send_frame(sock, {"op": "ping"})  # no id
            assert _closed_by_peer(sock)
            assert _call(other, 5, "ping")["result"] == "pong"
        finally:
            other.close()
    finally:
        sock.close()
    # IV. a wrong protocol version gets a reject frame, then a close.
    with socket.create_connection(server.address, timeout=10) as stale:
        send_frame(stale, {"kind": "hello", "protocol": PROTOCOL_VERSION + 1})
        reject = recv_frame(stale)
        assert reject["kind"] == "reject"
        assert "protocol mismatch" in reject["error"]
        assert _closed_by_peer(stale)
    # V. close: shutdown ends live clients and refuses new connects.
    live, _ = _connect(server.address)
    try:
        server.shutdown()
        assert _closed_by_peer(live)
    finally:
        live.close()
    with pytest.raises(OSError):
        socket.create_connection(server.address, timeout=2).close()


def test_hello_frame_required(server):
    with socket.create_connection(server.address, timeout=10) as sock:
        send_frame(sock, {"id": 1, "op": "ping"})  # a request before the hello
        reject = recv_frame(sock)
        assert reject == {"kind": "reject", "error": "expected a hello frame"}
        assert _closed_by_peer(sock)


def test_role_mismatch_is_a_transport_error(server):
    from repro.serving.transport import WorkerConnection

    wrong = "gateway" if server.role == "shard-worker" else "shard-worker"
    with pytest.raises(TransportError, match=f"not '{wrong}'"):
        WorkerConnection(server.address, role=wrong)
    with WorkerConnection(server.address, role=server.role) as connection:
        assert connection.call("ping", timeout=10) == "pong"
