"""Tests for the async detection gateway (repro.serving.gateway).

Two properties anchor the suite.  **Numerical**: the gateway adds zero
error — a request served alone is bit-for-bit the direct ``detect`` call,
and a coalesced batch is bit-for-bit ``detect`` on the concatenated rows.
**Protocol**: every admitted request gets exactly one reply, matched by id,
and every rejection (backpressure, deadline, malformed rows, drain) is an
explicit error frame — never a silent drop, never a misrouted or partial
result.  The fault-path tests drive the sharp edges: clients vanishing
mid-flight, oversized and malformed frames, expired deadlines, a full
pending queue, and drain-on-shutdown.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import ConfigurationError, ServingError
from repro.serving import DetectionGateway, GatewayClient, ShardWorkerServer
from repro.serving.transport import (
    FRAME_MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    TransportError,
    WorkerConnection,
    client_handshake,
    recv_frame,
    send_frame,
)


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload():
    generator = KddSyntheticGenerator(random_state=77)
    train = generator.generate(900)
    test = generator.generate(300)
    pipeline = PreprocessingPipeline()
    return {
        "X_train": pipeline.fit_transform(train),
        "X_test": pipeline.transform(test),
        "y_train": [str(category) for category in train.categories],
    }


@pytest.fixture(scope="module")
def fitted(workload):
    detector = GhsomDetector(
        GhsomConfig(
            tau1=0.3,
            tau2=0.05,
            max_depth=3,
            max_map_size=36,
            min_samples_for_expansion=25,
            training=SomTrainingConfig(epochs=3),
            random_state=13,
        ),
        random_state=13,
    )
    detector.fit(workload["X_train"], workload["y_train"])
    return detector


class _SlowDetector:
    """Transparent detector wrapper whose ``detect`` sleeps first.

    Used to hold a batch in flight deterministically so coalescing,
    backpressure and drain paths can be driven without racing the (fast)
    real engine.
    """

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s
        self.n_detect_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def detect(self, X):
        self.n_detect_calls += 1
        time.sleep(self._delay_s)
        return self._inner.detect(X)


def _hold_executor(client, slow, rows, timeout_s=10.0):
    """Start a batch of ``rows`` and return once its slow ``detect`` runs.

    Requests submitted before it finishes queue behind it, so the batcher
    serves them together as the next batch.
    """
    calls = slow.n_detect_calls
    held = client.submit(rows)
    deadline = time.monotonic() + timeout_s
    while slow.n_detect_calls == calls:
        assert time.monotonic() < deadline, "the gateway never called detect"
        time.sleep(0.001)
    return held


def _assert_result_identical(result, reference, lo, hi):
    """Gateway result equals the [lo:hi) slice of a direct detect, bitwise."""
    assert result.scores.tobytes() == reference.scores[lo:hi].tobytes()
    np.testing.assert_array_equal(result.predictions, reference.predictions[lo:hi])
    assert list(result.categories) == list(reference.categories[lo:hi])
    if reference.leaf_index is not None:
        np.testing.assert_array_equal(result.leaf_index, reference.leaf_index[lo:hi])


# --------------------------------------------------------------------------- #
# byte identity
# --------------------------------------------------------------------------- #
class TestByteIdentity:
    def test_solo_requests_bit_identical_to_direct_detect(self, fitted, workload):
        X = workload["X_test"]
        with DetectionGateway(fitted).start() as gateway:
            with GatewayClient(gateway.address) as client:
                for lo, hi in [(0, 1), (10, 11), (20, 52), (100, 228)]:
                    reference = fitted.detect(X[lo:hi])
                    result = client.detect(X[lo:hi], timeout=30)
                    _assert_result_identical(result, reference, 0, hi - lo)

    def test_single_record_1d_request(self, fitted, workload):
        X = workload["X_test"]
        reference = fitted.detect(X[3:4])
        with DetectionGateway(fitted).start() as gateway:
            with GatewayClient(gateway.address) as client:
                result = client.detect(X[3], timeout=30)  # 1-D record
        assert len(result) == 1
        _assert_result_identical(result, reference, 0, 1)

    def test_coalesced_batch_bit_identical_to_concat_detect(self, fitted, workload):
        """Requests coalesced into one batch == detect() on the concat rows.

        A single connection preserves admission order, so the N submissions
        queued behind a running batch form the next batch, whose matrix is
        exactly the concatenation in submission order.
        """
        X = workload["X_test"]
        n_requests = 12
        slow = _SlowDetector(fitted, delay_s=0.3)
        with DetectionGateway(slow).start() as gateway:
            with GatewayClient(gateway.address) as client:
                client.ping()  # connection fully established before timing starts
                _hold_executor(client, slow, X[100:101])
                futures = [
                    client.submit(X[i : i + 2]) for i in range(0, 2 * n_requests, 2)
                ]
                results = [future.result(timeout=30) for future in futures]
        assert all(result.batch_rows == 2 * n_requests for result in results), (
            "expected one coalesced batch, got batch sizes "
            f"{[result.batch_rows for result in results]}"
        )
        reference = fitted.detect(X[: 2 * n_requests])
        for index, result in enumerate(results):
            _assert_result_identical(result, reference, 2 * index, 2 * index + 2)
        assert gateway.stats["largest_batch_rows"] == 2 * n_requests

    def test_responses_never_misrouted(self, fitted, workload):
        """Concurrent distinct-size requests each get exactly their own rows."""
        X = workload["X_test"]
        sizes = [1, 2, 3, 5, 8, 13, 1, 4]
        offsets = np.cumsum([0] + sizes)
        slow = _SlowDetector(fitted, delay_s=0.2)
        with DetectionGateway(slow).start() as gateway:
            clients = [GatewayClient(gateway.address) for _ in range(2)]
            try:
                _hold_executor(clients[0], slow, X[100:101])
                futures = [
                    clients[i % 2].submit(X[offsets[i] : offsets[i] + size])
                    for i, size in enumerate(sizes)
                ]
                results = [future.result(timeout=30) for future in futures]
            finally:
                for client in clients:
                    client.close()
        for i, (size, result) in enumerate(zip(sizes, results)):
            assert len(result) == size
            reference = fitted.detect(X[offsets[i] : offsets[i] + size])
            # Identity check tolerant to batch-composition ULP wiggle: the
            # slice must be *this request's* rows, not a neighbour's.
            np.testing.assert_allclose(result.scores, reference.scores, rtol=1e-9)
            assert list(result.categories) == list(reference.categories)


# --------------------------------------------------------------------------- #
# protocol-level id round-trip
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    def test_ids_round_trip_verbatim(self, fitted, workload):
        X = workload["X_test"]
        with DetectionGateway(fitted).start() as gateway:
            sock = socket.create_connection(gateway.address, timeout=10)
            try:
                info = client_handshake(sock)
                assert info["role"] == "gateway"
                assert "detect" in info["ops"] and "ping" in info["ops"]
                send_frame(sock, {"id": 7, "op": "detect", "rows": X[:1]})
                send_frame(sock, {"id": 9, "op": "detect", "rows": X[1:2]})
                replies = {}
                for _ in range(2):
                    frame = recv_frame(sock)
                    replies[frame["id"]] = frame
                assert set(replies) == {7, 9}
                assert all(frame["ok"] for frame in replies.values())
            finally:
                sock.close()

    def test_unknown_op_gets_error_reply_not_dead_stream(self, fitted):
        with DetectionGateway(fitted).start() as gateway:
            with WorkerConnection(gateway.address) as connection:
                # The error names the peer by its advertised role.
                with pytest.raises(
                    ServingError,
                    match=r"^gateway [\d.]+:\d+ refused a request: .*unknown operation",
                ):
                    connection.call("run", timeout=10)
                # The stream survives the bad op: the next request works.
                assert connection.call("ping", timeout=10) == "pong"

    def test_protocol_mismatch_rejected(self, fitted):
        with DetectionGateway(fitted).start() as gateway:
            sock = socket.create_connection(gateway.address, timeout=10)
            try:
                with pytest.raises(TransportError, match="protocol mismatch"):
                    client_handshake(sock, protocol=PROTOCOL_VERSION + 1)
            finally:
                sock.close()

    def test_client_role_check_refuses_shard_worker(self, fitted, tmp_path):
        with ShardWorkerServer().start() as worker:
            with pytest.raises(ServingError, match="not 'gateway'"):
                GatewayClient(worker.address)

    def test_client_rejects_address_strings_too(self, fitted):
        with DetectionGateway(fitted).start() as gateway:
            host, port = gateway.address
            with GatewayClient(f"{host}:{port}") as client:
                assert client.ping()
                assert client.n_features == int(
                    client.info["n_features"]
                )


# --------------------------------------------------------------------------- #
# fault paths
# --------------------------------------------------------------------------- #
class TestFaultPaths:
    def test_client_disconnect_mid_flight_leaves_gateway_serving(
        self, fitted, workload
    ):
        X = workload["X_test"]
        slow = _SlowDetector(fitted, delay_s=0.3)
        with DetectionGateway(slow).start() as gateway:
            doomed = GatewayClient(gateway.address)
            doomed.submit(X[:4])  # will be in flight when the socket dies
            time.sleep(0.05)  # let the request reach the batcher
            doomed.close()
            # A healthy client gets real results while and after the dead
            # client's batch resolves into a closed socket.
            with GatewayClient(gateway.address) as client:
                result = client.detect(X[4:8], timeout=30)
                assert len(result) == 4
                assert client.ping()

    def test_oversized_frame_closes_connection_only(self, fitted, workload):
        X = workload["X_test"]
        with DetectionGateway(fitted).start() as gateway:
            sock = socket.create_connection(gateway.address, timeout=10)
            try:
                client_handshake(sock)
                # A prefix claiming a body over the frame limit: the server
                # must drop the connection, not try to buffer 3 GiB.
                sock.sendall(struct.pack("!4sI", FRAME_MAGIC, MAX_FRAME_BYTES + 1))
                assert sock.recv(1) == b""  # server closed the stream
            finally:
                sock.close()
            # The listener is unaffected.
            with GatewayClient(gateway.address) as client:
                assert len(client.detect(X[:2], timeout=30)) == 2

    def test_bad_magic_closes_connection_only(self, fitted):
        with DetectionGateway(fitted).start() as gateway:
            sock = socket.create_connection(gateway.address, timeout=10)
            try:
                client_handshake(sock)
                sock.sendall(struct.pack("!4sI", b"XXXX", 8) + b"garbage!")
                assert sock.recv(1) == b""
            finally:
                sock.close()
            with GatewayClient(gateway.address) as client:
                assert client.ping()

    def test_malformed_rows_get_error_replies(self, fitted, workload):
        X = workload["X_test"]
        n_features = X.shape[1]
        with DetectionGateway(fitted, max_batch_rows=64).start() as gateway:
            with WorkerConnection(gateway.address) as connection:
                with pytest.raises(ServingError, match="numpy array"):
                    connection.call("detect", rows=[1.0, 2.0], timeout=10)
                with pytest.raises(ServingError, match="features"):
                    connection.call(
                        "detect", rows=np.zeros((2, n_features + 3)), timeout=10
                    )
                with pytest.raises(ServingError, match="numeric"):
                    connection.call(
                        "detect",
                        rows=np.array([["a"] * n_features]),
                        timeout=10,
                    )
                with pytest.raises(ServingError, match="at least one record"):
                    connection.call(
                        "detect", rows=np.zeros((0, n_features)), timeout=10
                    )
                with pytest.raises(ServingError, match="max-batch-rows"):
                    connection.call(
                        "detect", rows=np.zeros((65, n_features)), timeout=10
                    )
                # And the stream is still alive after every rejection.
                result = connection.call("detect", rows=X[:2], timeout=30)
                assert result["batch_rows"] >= 2

    def test_deadline_expiry_is_an_explicit_error(self, fitted, workload):
        X = workload["X_test"]
        # The filler holds the executor, so the zero-budget request is still
        # queued when the batcher gets to it.
        slow = _SlowDetector(fitted, delay_s=0.15)
        with DetectionGateway(slow).start() as gateway:
            with GatewayClient(gateway.address) as client:
                filler = _hold_executor(client, slow, X[:1])
                doomed = client.submit(X[1:2], timeout_ms=0.0)
                with pytest.raises(ServingError, match="deadline expired"):
                    doomed.result(timeout=30)
                assert len(filler.result(timeout=30)) == 1
            assert gateway.stats["expired_deadlines"] == 1

    def test_full_pending_queue_rejects_explicitly(self, fitted, workload):
        X = workload["X_test"]
        slow = _SlowDetector(fitted, delay_s=0.5)
        with DetectionGateway(
            slow, max_batch_rows=2, max_pending_rows=4
        ).start() as gateway:
            with GatewayClient(gateway.address) as client:
                first = client.submit(X[:1])
                time.sleep(0.1)  # r1 is now computing (0.5 s); queue is empty
                admitted = [client.submit(X[i : i + 1]) for i in range(1, 4)]
                rejected = client.submit(X[4:5])  # 4 pending rows + 1 > 4
                with pytest.raises(ServingError, match="queue is full"):
                    rejected.result(timeout=30)
                # Everything admitted is answered, never dropped.
                assert len(first.result(timeout=30)) == 1
                for future in admitted:
                    assert len(future.result(timeout=30)) == 1
            assert gateway.stats["rejected_backpressure"] == 1
            assert gateway.stats["requests"] == 4

    def test_timeout_ms_validation(self, fitted, workload):
        X = workload["X_test"]
        with DetectionGateway(fitted).start() as gateway:
            with WorkerConnection(gateway.address) as connection:
                with pytest.raises(ServingError, match="timeout_ms"):
                    connection.call("detect", rows=X[:1], timeout_ms=-5, timeout=10)
                with pytest.raises(ServingError, match="timeout_ms"):
                    connection.call(
                        "detect", rows=X[:1], timeout_ms=float("nan"), timeout=10
                    )
                with pytest.raises(ServingError, match="timeout_ms"):
                    connection.call("detect", rows=X[:1], timeout_ms=True, timeout=10)
                assert gateway.stats["requests"] == 0  # none was admitted

    def test_non_finite_rows_fail_only_their_own_request(self, fitted, workload):
        """A NaN row is rejected at admission, not by the coalesced detect().

        The requests queue behind a running batch, so they would be served
        together; were the NaN rows admitted, the batch's detect() would
        raise and fail the clean request too.
        """
        X = workload["X_test"]
        poisoned = X[3:5].copy()
        poisoned[1, 0] = np.nan
        slow = _SlowDetector(fitted, delay_s=0.1)
        with DetectionGateway(slow).start() as gateway:
            with GatewayClient(gateway.address) as client:
                client.ping()  # connection fully established before timing starts
                _hold_executor(client, slow, X[100:101])
                clean = client.submit(X[:3])
                bad = client.submit(poisoned)
                infinite = client.submit(np.full((1, X.shape[1]), np.inf))
                with pytest.raises(ServingError, match="finite"):
                    bad.result(timeout=30)
                with pytest.raises(ServingError, match="finite"):
                    infinite.result(timeout=30)
                result = clean.result(timeout=30)
        _assert_result_identical(result, fitted.detect(X[:3]), 0, 3)
        assert result.batch_rows == 3  # the rejected rows never joined the batch
        assert gateway.stats["request_errors"] == 2  # the two rejections only


# --------------------------------------------------------------------------- #
# shutdown / drain
# --------------------------------------------------------------------------- #
class TestDrain:
    def test_drain_answers_every_admitted_request(self, fitted, workload):
        X = workload["X_test"]
        slow = _SlowDetector(fitted, delay_s=0.2)
        gateway = DetectionGateway(slow, max_batch_rows=2).start()
        client = GatewayClient(gateway.address)
        try:
            futures = [client.submit(X[i : i + 1]) for i in range(6)]
            time.sleep(0.05)  # admission happened; batches are in flight
            gateway.shutdown()  # graceful: drains the 6 admitted requests
            for future in futures:
                assert len(future.result(timeout=30)) == 1
        finally:
            client.close()
        # After drain the listener is gone.
        with pytest.raises((TransportError, OSError)):
            GatewayClient(gateway.address, connect_timeout=2.0)

    def test_shutdown_is_idempotent_and_reentrant(self, fitted):
        gateway = DetectionGateway(fitted).start()
        gateway.shutdown()
        gateway.shutdown()  # second call is a no-op, not an error

    def test_context_manager_shuts_down(self, fitted):
        with DetectionGateway(fitted).start() as gateway:
            address = gateway.address
        with pytest.raises((TransportError, OSError)):
            socket.create_connection(address, timeout=2.0).close()


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
class TestConstruction:
    def test_invalid_knobs_rejected(self, fitted):
        with pytest.raises(ConfigurationError, match="max_batch_rows"):
            DetectionGateway(fitted, max_batch_rows=0)
        with pytest.raises(ConfigurationError, match="max_pending_rows"):
            DetectionGateway(fitted, max_batch_rows=64, max_pending_rows=32)

    def test_unfitted_detector_rejected(self):
        with pytest.raises(ServingError, match="fitted"):
            DetectionGateway(GhsomDetector(GhsomConfig()))

    def test_handshake_advertises_plan_and_model_shape(self, fitted, workload):
        with DetectionGateway(fitted).start() as gateway:
            with GatewayClient(gateway.address) as client:
                info = client.info
        assert info["n_features"] == workload["X_test"].shape[1]
        assert "dtype" not in info
        assert isinstance(info["plan"], dict)
        assert info["plan"]["engine"] in ("numpy", "fused")
