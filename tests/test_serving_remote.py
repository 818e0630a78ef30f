"""Tests for distributed shard serving (repro.serving.remote / .transport).

The acceptance property mirrors the sharded engine's: routing shard tasks
through remote TCP workers — by reference or by value, any number of workers,
workers dying mid-batch — must reproduce the serial backend *byte for
byte*, because a worker that cannot deliver is failed over to local
execution, never silently dropped.  The failure-mode tests pin the
protocol's sharp edges: version mismatches, truncated frames, CRC-mismatch
refusals.
"""

from __future__ import annotations

import dataclasses
import re
import socket
import struct
import threading

import numpy as np
import pytest

from repro.cli import load_bundle, main, save_bundle
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig, kernels
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import ConfigurationError, ServingError
from repro.serving import (
    DetectionGateway,
    RemoteBackend,
    SerialBackend,
    ShardWorkerServer,
    ShardedGhsom,
    ServingConfig,
    TransportError,
    WorkerConnection,
    build_shards,
    parse_address,
    plan_shards,
    subtrees_from_compiled,
)
from repro.serving import remote
from repro.serving.remote import _reference_wire, _value_wire
from repro.serving.shards import SubtreeShard
from repro.serving.transport import (
    FRAME_MAGIC,
    PROTOCOL_VERSION,
    SidecarRef,
    client_handshake,
    recv_frame,
    send_frame,
)


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload():
    generator = KddSyntheticGenerator(random_state=101)
    train = generator.generate(900)
    test = generator.generate(500)
    pipeline = PreprocessingPipeline()
    return {
        "pipeline": pipeline,
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
            random_state=11,
        ),
        random_state=11,
    )
    detector.fit(workload["X_train"], workload["y_train"])
    return detector


@pytest.fixture(scope="module")
def binary_bundle(workload, fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("remote_model") / "model.json"
    save_bundle(workload["pipeline"], fitted, path)
    return path


@pytest.fixture(scope="module")
def reference(binary_bundle, workload):
    """Serial-backend detection result: the byte-identity gold standard."""
    _, detector = load_bundle(binary_bundle, overrides={"shards": 4})
    try:
        return detector.detect(workload["X_test"])
    finally:
        _unshard(detector)


def _assert_identical(result, reference):
    np.testing.assert_array_equal(result.scores, reference.scores)
    assert result.scores.tobytes() == reference.scores.tobytes()
    np.testing.assert_array_equal(result.predictions, reference.predictions)
    np.testing.assert_array_equal(result.leaf_index, reference.leaf_index)
    assert list(result.categories) == list(reference.categories)


def _shard_remote(detector, backend, n_shards=4):
    """Shard ``detector`` over a live :class:`RemoteBackend` instance.

    The instance (custom timeouts, fake workers) has no declarative form, so
    it goes through the detector's private ``_apply_serving`` seam alongside
    the config that describes it.
    """
    remote_workers = ",".join(f"{host}:{port}" for host, port in backend.addresses)
    sharded = detector.serving_config.with_overrides(
        {"shards": n_shards, "remote_workers": remote_workers}
    )
    detector._apply_serving(sharded, backend=backend)


def _unshard(detector):
    detector.configure(detector.serving_config.with_overrides({"shards": None}))


def _detect_remote(binary_bundle, workload, backend, n_shards=4):
    _, detector = load_bundle(binary_bundle)
    _shard_remote(detector, backend, n_shards)
    try:
        return detector.detect(workload["X_test"])
    finally:
        _unshard(detector)


# --------------------------------------------------------------------------- #
# equivalence over live loopback workers
# --------------------------------------------------------------------------- #
class TestRemoteEquivalence:
    def test_two_loopback_workers_byte_identical(self, binary_bundle, workload, reference):
        with ShardWorkerServer(model_path=binary_bundle).start() as w1, \
                ShardWorkerServer(model_path=binary_bundle).start() as w2:
            backend = RemoteBackend([w1.address, w2.address])
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["remote_tasks"] > 0
            assert backend.stats["failover_tasks"] == 0
            assert backend.stats["connects"] == 2
        _assert_identical(result, reference)

    def test_remote_matches_serial_backend(self, binary_bundle, workload):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            remote = _detect_remote(
                binary_bundle, workload, RemoteBackend([worker.address])
            )
        _, detector = load_bundle(binary_bundle, overrides={"shards": 4})
        assert detector._backend.name == "serial"
        try:
            local = detector.detect(workload["X_test"])
        finally:
            _unshard(detector)
        _assert_identical(remote, local)

    def test_by_value_worker_without_model(self, binary_bundle, workload, reference):
        with ShardWorkerServer().start() as worker:  # no --model on the worker
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["provision_value"] == 1
            assert backend.stats["provision_reference"] == 0
        _assert_identical(result, reference)

    @pytest.mark.parametrize("n_shards", ["two", "all"])
    def test_by_reference_provisioning_used(
        self, binary_bundle, workload, fitted, reference, n_shards
    ):
        # Every shard is one contiguous run of subtrees, i.e. a view into the
        # mmapped sidecar — the by-reference case — whether it holds several
        # subtrees (K=2) or one (K = the subtree count).
        n_subtrees = len(subtrees_from_compiled(fitted.model.compile()))
        assert n_subtrees > 2, "model too small for this test"
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            result = _detect_remote(
                binary_bundle,
                workload,
                backend,
                n_shards=2 if n_shards == "two" else n_subtrees,
            )
            assert backend.stats["provision_reference"] == 1
            assert backend.stats["provision_value"] == 0
        _assert_identical(result, reference)

    def test_reprovision_on_new_shard_tuple(self, binary_bundle, workload, reference):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _, detector = load_bundle(binary_bundle)
            _shard_remote(detector, backend, 2)
            first = detector.detect(workload["X_test"])
            provisions = (
                backend.stats["provision_reference"] + backend.stats["provision_value"]
            )
            assert provisions == 1
            # A resharded detector rebuilds its shard tuple; the worker must
            # be provisioned again (stale arrays would be silently wrong).
            _shard_remote(detector, backend, 3)
            second = detector.detect(workload["X_test"])
            assert (
                backend.stats["provision_reference"] + backend.stats["provision_value"]
            ) == provisions + 1
            _unshard(detector)
        _assert_identical(first, reference)
        _assert_identical(second, reference)

    def test_reprovisions_on_rebuilt_equal_shards(self, fitted, workload):
        """Staleness is element-wise identity, never equality.

        Rebuilt-but-equal shards are new arrays: the worker must be
        provisioned again (it must never start treating equal content as
        fresh, e.g. if ``SubtreeShard`` grew an ``__eq__``).  The same shard
        objects in a fresh list are not stale: re-provisioning a warm worker
        per batch would be a silent slowdown.
        """
        compiled = fitted.model.compile()
        plan = plan_shards(compiled, 2)
        shards_a = build_shards(compiled, plan)
        shards_b = build_shards(compiled, plan)  # equal content, new objects
        X = np.ascontiguousarray(workload["X_test"][:50])
        entries = np.zeros(X.shape[0], dtype=np.intp)
        tasks = [(0, X, entries)]
        expected = shards_a[0].assign_entries(X, entries)
        with ShardWorkerServer().start() as worker:
            backend = RemoteBackend([worker.address])
            try:

                def provisions():
                    return backend.stats["provision_value"] + backend.stats["provision_reference"]

                for shards, count in (
                    (shards_a, 1),
                    (shards_b, 2),  # rebuilt-but-equal: re-provisioned
                    (shards_b, 2),  # the same tuple again
                    (list(shards_b), 2),  # the same objects in a fresh list
                ):
                    ((leaf, distances),) = backend.run(shards, tasks)
                    assert provisions() == count
                    np.testing.assert_array_equal(leaf, expected[0])
                    np.testing.assert_array_equal(distances, expected[1])
                assert backend.stats["failover_tasks"] == 0
            finally:
                backend.close()

    def test_shard_states_carry_the_host_engine(
        self, binary_bundle, workload, reference, monkeypatch
    ):
        """The shard states are the only carrier of the coordinator's engine."""
        engines = []
        restore = remote._shard_from_state

        def recording(state, sidecar_path):
            engines.append(state["engine"])
            return restore(state, sidecar_path)

        monkeypatch.setattr(remote, "_shard_from_state", recording)
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _, detector = load_bundle(binary_bundle)
            _shard_remote(detector, backend, 2)
            try:
                result = detector.detect(workload["X_test"])
                assert backend.stats["failover_tasks"] == 0
            finally:
                _unshard(detector)
        assert engines == [kernels.host_engine()] * 2
        _assert_identical(result, reference)


# --------------------------------------------------------------------------- #
# the live backend survives reconfiguration and refits
# --------------------------------------------------------------------------- #
class TestBackendSurvivesReconfigure:
    """A backend is closed only when it is replaced.

    Each test shards over one loopback worker, scores once, changes the
    detector, and scores again: the worker connection must carry on.
    """

    @staticmethod
    def _counts(backend):
        stats = backend.stats
        return {
            name: stats[name]
            for name in ("connects", "provision_reference", "provision_value")
        }

    def test_identical_configure_is_a_no_op(self, binary_bundle, workload, reference):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _, detector = load_bundle(binary_bundle)
            _shard_remote(detector, backend)
            try:
                detector.detect(workload["X_test"])
                before, engine = self._counts(backend), detector._sharded
                assert before == {"connects": 1, "provision_reference": 1, "provision_value": 0}
                detector.configure(detector.serving_config)
                assert detector._backend is backend
                assert detector._sharded is engine
                result = detector.detect(workload["X_test"])
                assert self._counts(backend) == before
                assert backend.stats["failover_tasks"] == 0
            finally:
                _unshard(detector)
        _assert_identical(result, reference)

    def test_config_change_reprovisions_without_reconnecting(
        self, binary_bundle, workload, reference
    ):
        # A new config with the same sharding keeps the backend and re-slices
        # the shards, so the one connection is provisioned again.
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _, detector = load_bundle(binary_bundle)
            _shard_remote(detector, backend)
            try:
                detector.detect(workload["X_test"])
                before = self._counts(backend)
                detector.configure(detector.serving_config.with_overrides({"verify": True}))
                assert detector._backend is backend
                result = detector.detect(workload["X_test"])
                after = self._counts(backend)
                assert backend.stats["failover_tasks"] == 0
            finally:
                _unshard(detector)
        assert after["connects"] == before["connects"] == 1
        assert after["provision_reference"] == before["provision_reference"] + 1
        assert after["provision_value"] == before["provision_value"] == 0
        _assert_identical(result, reference)

    def test_refit_keeps_the_connection(self, binary_bundle, workload):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _, detector = load_bundle(binary_bundle)
            _shard_remote(detector, backend)
            try:
                detector.detect(workload["X_test"])
                before = self._counts(backend)
                detector.fit(workload["X_train"], workload["y_train"])
                assert detector._backend is backend
                result = detector.detect(workload["X_test"])
                after = self._counts(backend)
                assert backend.stats["failover_tasks"] == 0
            finally:
                _unshard(detector)
            local = detector.detect(workload["X_test"])
        assert after["connects"] == before["connects"] == 1
        # The refit arrays live in RAM, not in the worker's sidecar.
        assert after["provision_value"] == before["provision_value"] + 1
        assert after["provision_reference"] == before["provision_reference"]
        _assert_identical(result, local)


# --------------------------------------------------------------------------- #
# failover
# --------------------------------------------------------------------------- #
class _DyingWorker:
    """A worker that completes the handshake, then dies on the first task.

    Deterministically reproduces "worker dies mid-batch": the coordinator's
    submitted future fails after dispatch, forcing the failover path.
    """

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        client, _ = self._listener.accept()
        hello = recv_frame(client)
        assert hello["kind"] == "hello"
        send_frame(
            client,
            {"kind": "hello", "protocol": PROTOCOL_VERSION, "worker": {"sidecar": None}},
        )
        # Acknowledge provisioning so tasks actually get dispatched here...
        provision = recv_frame(client)
        send_frame(client, {"id": provision["id"], "ok": True, "result": {}})
        # ...then die on the first run request, mid-batch.
        recv_frame(client)
        client.close()
        self._listener.close()

    def close(self):
        self._listener.close()


class TestFailover:
    def test_worker_dies_mid_batch_results_byte_identical(
        self, binary_bundle, workload, reference
    ):
        dying = _DyingWorker()
        with ShardWorkerServer(model_path=binary_bundle).start() as healthy:
            backend = RemoteBackend([dying.address, healthy.address])
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["failover_tasks"] > 0
            assert backend.stats["remote_tasks"] > 0
        dying.close()
        _assert_identical(result, reference)

    def test_all_workers_dead_full_local_fallback(self, binary_bundle, workload, reference):
        worker = ShardWorkerServer(model_path=binary_bundle).start()
        backend = RemoteBackend([worker.address], reconnect_backoff=0.0)
        _, detector = load_bundle(binary_bundle)
        _shard_remote(detector, backend, 4)
        first = detector.detect(workload["X_test"])
        worker.shutdown()
        second = detector.detect(workload["X_test"])  # connection now dead
        third = detector.detect(workload["X_test"])  # connect refused
        _unshard(detector)
        assert backend.stats["failover_tasks"] > 0
        _assert_identical(first, reference)
        _assert_identical(second, reference)
        _assert_identical(third, reference)

    def test_unreachable_address_runs_locally(self, binary_bundle, workload, reference):
        # A port nothing listens on: connect is refused instantly on loopback.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_address = probe.getsockname()[:2]
        probe.close()
        backend = RemoteBackend([dead_address], connect_timeout=2.0)
        result = _detect_remote(binary_bundle, workload, backend)
        assert backend.stats["remote_tasks"] == 0
        assert backend.stats["failover_tasks"] > 0
        _assert_identical(result, reference)

    def test_gateway_peer_is_never_provisioned(
        self, binary_bundle, workload, fitted, reference
    ):
        """A gateway address is skipped like an unreachable one.

        Its handshake advertises role "gateway", so the backend sends no
        provision frame (the gateway would answer "unknown operation") and
        serves every task locally, byte-identically.
        """
        with DetectionGateway(fitted).start() as gateway:
            backend = RemoteBackend([gateway.address], connect_timeout=2.0)
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["provision_value"] == 0
            assert backend.stats["provision_reference"] == 0
            assert backend.stats["connects"] == 0
            assert backend.stats["remote_tasks"] == 0
            assert backend.stats["failover_tasks"] > 0
            assert gateway.stats["request_errors"] == 0
        _assert_identical(result, reference)

    def test_restarted_worker_rejoins(self, binary_bundle, workload, reference):
        worker = ShardWorkerServer(model_path=binary_bundle).start()
        host, port = worker.address
        backend = RemoteBackend([worker.address], reconnect_backoff=0.0)
        _, detector = load_bundle(binary_bundle)
        _shard_remote(detector, backend, 4)
        detector.detect(workload["X_test"])
        worker.shutdown()
        detector.detect(workload["X_test"])  # all failover
        restarted = ShardWorkerServer(host, port, model_path=binary_bundle).start()
        try:
            tasks_before = backend.stats["remote_tasks"]
            result = detector.detect(workload["X_test"])
            assert backend.stats["remote_tasks"] > tasks_before
            assert backend.stats["connects"] == 2
            _assert_identical(result, reference)
        finally:
            _unshard(detector)
            restarted.shutdown()


# --------------------------------------------------------------------------- #
# protocol failure modes
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_handshake_version_mismatch_rejected(self, binary_bundle):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            with pytest.raises(TransportError, match="protocol"):
                WorkerConnection(worker.address, protocol=PROTOCOL_VERSION + 1)
            # The worker survives a rejected peer and still serves others.
            good = WorkerConnection(worker.address)
            assert good.call("ping", timeout=10.0) == "pong"
            good.close()

    def test_non_protocol_peer_rejected(self, binary_bundle):
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            with socket.create_connection(worker.address, timeout=5.0) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
                # The worker closes without ever interpreting the bytes —
                # either a clean FIN or an RST (unread bytes pending), but
                # never a protocol reply.
                sock.settimeout(5.0)
                try:
                    data = sock.recv(1024)
                except ConnectionResetError:
                    data = b""
                assert data == b""

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            payload = struct.pack("!4sI", FRAME_MAGIC, 1000) + b"x" * 10
            left.sendall(payload)
            left.close()
            with pytest.raises(TransportError, match="truncated frame"):
                recv_frame(right)
        finally:
            right.close()

    def test_bad_magic_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"HTTP/1.1" + b"\x00" * 16)
            with pytest.raises(TransportError, match="magic"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_implausible_length_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!4sI", FRAME_MAGIC, (1 << 31) + 1))
            with pytest.raises(TransportError, match="limit"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_malformed_response_id_kills_connection_promptly(self):
        """A response with a non-coercible id must fail the connection, not
        leave futures hanging until their timeout behind an is_alive lie."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            client, _ = listener.accept()
            with client:
                recv_frame(client)  # hello
                send_frame(client, {"kind": "hello", "protocol": PROTOCOL_VERSION, "worker": {}})
                recv_frame(client)  # the request
                send_frame(client, {"id": None, "ok": True, "result": "?"})

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        connection = WorkerConnection(listener.getsockname()[:2])
        future = connection.submit("ping")
        with pytest.raises(TransportError, match="process response frame"):
            future.result(timeout=10.0)
        assert not connection.is_alive
        connection.close()
        thread.join(timeout=10.0)
        listener.close()

    def test_integer_fields_are_not_coerced(self, fitted, workload):
        """``shard``/``epoch`` must be ints: 1.9, "0" and True are refused.

        Each bad field gets an error reply and the connection keeps serving;
        the same task with proper ints runs.
        """

        class Recording(SerialBackend):
            def run(self, shards, tasks):
                self.seen = (tuple(shards), list(tasks))
                return super().run(shards, tasks)

        recorder = Recording()
        engine = ShardedGhsom.from_compiled(fitted.model.compile(), 2, backend=recorder)
        engine.assign_arrays(workload["X_test"][:50])
        shards, tasks = recorder.seen
        index, matrix, entries = tasks[-1]
        with ShardWorkerServer().start() as worker:
            with socket.create_connection(worker.address, timeout=10) as sock:
                client_handshake(sock)

                def call(request_id, op, **params):
                    send_frame(sock, {"id": request_id, "op": op, **params})
                    reply = recv_frame(sock)
                    assert reply["id"] == request_id
                    return reply

                provision = dict(mode="value", sidecar=None, shards=_value_wire(shards))
                reply = call(1, "provision", epoch=True, **provision)
                assert not reply["ok"] and "got bool" in reply["error"]
                assert call(2, "provision", epoch=0, **provision)["ok"]
                task = dict(matrix=matrix, entries=entries)
                bad = [
                    (dict(epoch=0, shard=index + 0.9), "got float"),
                    (dict(epoch="0", shard=index), "got str"),
                    (dict(epoch=True, shard=index), "got bool"),
                    (dict(epoch=0, shard=True), "got bool"),
                ]
                for request_id, (fields, error) in enumerate(bad, start=3):
                    reply = call(request_id, "run", **fields, **task)
                    assert not reply["ok"] and error in reply["error"], reply
                    assert call(100 + request_id, "ping")["result"] == "pong"
                reply = call(9, "run", epoch=np.int64(0), shard=int(index), **task)
                assert reply["ok"]
                leaf, distances = reply["result"]
                expected_leaf, expected_distances = shards[index].assign_entries(matrix, entries)
                np.testing.assert_array_equal(leaf, expected_leaf)
                assert distances.tobytes() == expected_distances.tobytes()

    def test_fingerprint_pins_member_layout(self, binary_bundle):
        """Same content CRCs at different offsets must not match: the wire
        carries absolute byte offsets, so a re-packed (reordered) sidecar
        with identical members would silently map the wrong bytes."""
        from repro.core.serialization import sidecar_path_for
        from repro.utils.mmapio import fingerprints_match, sidecar_fingerprint

        fingerprint = sidecar_fingerprint(sidecar_path_for(binary_bundle))
        assert fingerprint["offsets"]  # layout is part of the fingerprint
        assert fingerprints_match(fingerprint, dict(fingerprint))
        names = sorted(fingerprint["offsets"])
        assert len(names) >= 2
        shuffled = dict(fingerprint["offsets"])
        shuffled[names[0]], shuffled[names[1]] = shuffled[names[1]], shuffled[names[0]]
        reordered = {**fingerprint, "offsets": shuffled}
        assert not fingerprints_match(fingerprint, reordered)
        # Content-only headers (no offsets, e.g. v3 artifact JSON) still
        # compare by size + CRCs.
        content_only = {"bytes": fingerprint["bytes"], "crc32": fingerprint["crc32"]}
        assert fingerprints_match(content_only, fingerprint)
        assert not fingerprints_match(
            {**content_only, "bytes": content_only["bytes"] + 1}, fingerprint
        )

    def test_parse_address(self):
        assert parse_address("10.0.0.2:7001") == ("10.0.0.2", 7001)
        assert parse_address("worker-3.internal:9000") == ("worker-3.internal", 9000)
        with pytest.raises(ServingError, match="HOST:PORT"):
            parse_address("no-port-here")
        with pytest.raises(ServingError, match="integer"):
            parse_address("host:notaport")

    def test_parse_address_ipv6(self):
        # Bracketed IPv6 strips the brackets: socket.create_connection wants
        # the bare address, not the bracketed spelling.
        assert parse_address("[::1]:9000") == ("::1", 9000)
        assert parse_address("[fe80::1%eth0]:7001") == ("fe80::1%eth0", 7001)
        # Unbracketed IPv6 is ambiguous (every colon is a plausible split).
        with pytest.raises(ServingError, match="ambiguous"):
            parse_address("::1:9000")
        # Bracketed form without a port (or without brackets closed) rejects.
        with pytest.raises(ServingError, match=r"\[IPV6-ADDR\]:PORT"):
            parse_address("[::1]")
        with pytest.raises(ServingError, match=r"\[IPV6-ADDR\]:PORT"):
            parse_address("[::1")
        with pytest.raises(ServingError, match="integer"):
            parse_address("[::1]:notaport")


# --------------------------------------------------------------------------- #
# by-reference provisioning safety
# --------------------------------------------------------------------------- #
class TestByReferenceSafety:
    def test_crc_mismatch_refused(self, binary_bundle, workload, fitted):
        """A coordinator whose artifact differs from the worker's is refused."""
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            connection = WorkerConnection(worker.address)
            sidecar = dict(worker.worker_info()["sidecar"])
            tampered = {name: (value ^ 1) for name, value in sidecar["crc32"].items()}
            with pytest.raises(ServingError, match="CRC-32s differ"):
                connection.call(
                    "provision",
                    timeout=10.0,
                    mode="reference",
                    epoch=0,
                    sidecar={"bytes": sidecar["bytes"], "crc32": tampered},
                    shards=[],
                )
            connection.close()

    def test_mismatched_worker_model_falls_back_to_value(
        self, binary_bundle, workload, reference, tmp_path
    ):
        """Auto mode: a worker with a *different* artifact gets shards by value."""
        generator = KddSyntheticGenerator(random_state=202)
        other_train = generator.generate(400)
        other_pipeline = PreprocessingPipeline()
        other_X = other_pipeline.fit_transform(other_train)
        other = GhsomDetector(
            GhsomConfig(
                tau1=0.5,
                tau2=0.15,
                max_depth=2,
                max_map_size=16,
                training=SomTrainingConfig(epochs=2),
                random_state=5,
            ),
            random_state=5,
        )
        other.fit(other_X, [str(c) for c in other_train.categories])
        other_bundle = tmp_path / "other.json"
        save_bundle(other_pipeline, other, other_bundle)
        with ShardWorkerServer(model_path=other_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["provision_value"] == 1
            assert backend.stats["provision_reference"] == 0
            assert backend.stats["failover_tasks"] == 0
        _assert_identical(result, reference)

    def test_replaced_artifact_disables_by_reference(
        self, binary_bundle, workload, fitted, reference, tmp_path
    ):
        """An atomically replaced sidecar must not be served by reference.

        After a same-size replacement (new inode) the coordinator still maps
        the *old* bytes while the path — and every worker-side check —
        describes the *new* file; shipping region descriptors would mix
        models silently.  The live-bytes validation downgrades to by-value,
        which streams the true served bytes, so results stay byte-identical.
        """
        import os
        import shutil

        from repro.core.serialization import sidecar_path_for
        from repro.utils.mmapio import npz_member_offsets

        bundle = tmp_path / "model.json"
        shutil.copy(binary_bundle, bundle)
        sidecar = tmp_path / "model.npz"
        shutil.copy(sidecar_path_for(binary_bundle), sidecar)
        _, detector = load_bundle(bundle)  # maps the original sidecar inode
        # Replace the sidecar atomically with a same-size file whose bytes
        # differ inside the codebook member (directory CRCs record the
        # original values, so only the live-bytes check can catch this).
        # Flip near the *end* of the codebook — inside the last subtree's
        # units, a region some shard actually references (the first bytes
        # are the npy header and the root block, which no shard maps).
        data = bytearray(sidecar.read_bytes())
        codebook_nbytes = fitted.model.compile().codebook.nbytes
        position = npz_member_offsets(sidecar)["codebook"] + codebook_nbytes - 8
        data[position] ^= 0xFF
        replacement = tmp_path / "model.npz.new"
        replacement.write_bytes(bytes(data))
        os.replace(replacement, sidecar)
        n_subtrees = len(subtrees_from_compiled(fitted.model.compile()))
        with ShardWorkerServer(model_path=bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            _shard_remote(detector, backend, n_subtrees)
            try:
                result = detector.detect(workload["X_test"])
            finally:
                _unshard(detector)
            assert backend.stats["provision_reference"] == 0
            assert backend.stats["provision_value"] == 1
            assert backend.stats["failover_tasks"] == 0
        _assert_identical(result, reference)

    def test_corrupt_sidecar_degrades_worker_to_value(
        self, binary_bundle, workload, reference, tmp_path
    ):
        """A worker whose sidecar is corrupted after startup keeps serving.

        The fingerprint it advertises becomes unavailable (not an unhandled
        exception that bricks every handshake); coordinators fall back to
        streaming shards by value and results stay byte-identical.
        """
        import shutil

        from repro.core.serialization import sidecar_path_for

        bundle = tmp_path / "model.json"
        shutil.copy(binary_bundle, bundle)
        shutil.copy(sidecar_path_for(binary_bundle), tmp_path / "model.npz")
        with ShardWorkerServer(model_path=bundle).start() as worker:
            (tmp_path / "model.npz").write_bytes(b"not a zip at all")
            assert worker.worker_info()["sidecar"] is None
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
            assert backend.stats["provision_value"] == 1
            assert backend.stats["remote_tasks"] > 0
        _assert_identical(result, reference)

    def test_worker_without_model_refuses_reference(self, binary_bundle):
        with ShardWorkerServer().start() as worker:
            connection = WorkerConnection(worker.address)
            with pytest.raises(
                ServingError,
                match=r"^shard worker [\d.]+:\d+ refused a request: .*without a binary model",
            ):
                connection.call(
                    "provision",
                    timeout=10.0,
                    mode="reference",
                    epoch=0,
                    sidecar={"bytes": 0, "crc32": {}},
                    shards=[],
                )
            connection.close()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("dtype", "|O"),
            ("dtype", "<c16"),
            ("dtype", "not-a-dtype"),
            ("shape", (-1, 4)),
            ("shape", (1 << 40,)),
            ("offset", -8),
        ],
        ids=["object", "complex", "garbage", "negative-shape", "past-end", "negative-offset"],
    )
    def test_bad_region_descriptor_refused_and_connection_survives(
        self, binary_bundle, field, bad
    ):
        """A hand-built provision frame naming a bad region gets an error reply.

        An object dtype would read raw file bytes as pointers, a negative
        shape must fail typed rather than as a bare OverflowError, and a
        region past the end of the file must not be mapped.  The connection
        keeps serving.
        """
        _, detector = load_bundle(binary_bundle)
        compiled = detector._compiled
        shards = build_shards(compiled, plan_shards(compiled, 2))
        _, fingerprint, states = _reference_wire(shards)
        ref = states[0]["codebook"]
        assert isinstance(ref, SidecarRef)
        states[0]["codebook"] = dataclasses.replace(ref, **{field: bad})
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            with WorkerConnection(worker.address) as connection:
                with pytest.raises(ServingError, match="SerializationError: refusing to map"):
                    connection.call(
                        "provision",
                        timeout=10.0,
                        mode="reference",
                        epoch=0,
                        sidecar=fingerprint,
                        shards=states,
                    )
                assert connection.call("ping", timeout=10.0) == "pong"


# --------------------------------------------------------------------------- #
# provision frames: the shipped config is ignored, the state's engine is run
# or refused
# --------------------------------------------------------------------------- #
def _recorded_shards_and_task(fitted, workload):
    """Shards of ``fitted`` and the last task a router made for them."""

    class Recording(SerialBackend):
        def run(self, shards, tasks):
            self.seen = (tuple(shards), list(tasks))
            return super().run(shards, tasks)

    recorder = Recording()
    engine = ShardedGhsom.from_compiled(fitted.model.compile(), 2, backend=recorder)
    engine.assign_arrays(workload["X_test"][:50])
    shards, tasks = recorder.seen
    return shards, tasks[-1]


def _parent_serving_payload(engine):
    """A ServingConfig payload as a writer with an engine field wrote it."""
    return {
        "config_version": 1,
        "engine": engine,
        "sharding": {"shards": 2, "remote_workers": None},
        "artifact": {"verify": False},
    }


class TestParentProvisionFrame:
    @pytest.mark.parametrize(
        ("serving_engine", "state_engine"), [("fused", "numpy"), ("numpy", "fused")]
    )
    def test_serving_key_is_ignored_and_states_carry_the_engine(
        self, fitted, workload, monkeypatch, serving_engine, state_engine
    ):
        """A coordinator that still ships its ServingConfig is served.

        The worker accepts the extra ``serving`` key, its shards run with the
        engine their states carry, and the connection keeps serving.
        """
        if state_engine == "fused" and kernels.host_engine() != "fused":
            pytest.skip(f"no fused kernel: {kernels.fused_build_error()}")
        shards, (index, matrix, entries) = _recorded_shards_and_task(fitted, workload)
        shards = tuple(dataclasses.replace(shard, engine=state_engine) for shard in shards)
        expected_leaf, expected_distances = shards[index].assign_entries(matrix, entries)
        ran_with = []
        assign_entries = SubtreeShard.assign_entries

        def recording(shard, *args):
            ran_with.append(shard.engine)
            return assign_entries(shard, *args)

        monkeypatch.setattr(SubtreeShard, "assign_entries", recording)
        with ShardWorkerServer().start() as worker:
            with WorkerConnection(worker.address) as connection:
                ack = connection.call(
                    "provision",
                    timeout=10.0,
                    mode="value",
                    epoch=0,
                    sidecar=None,
                    shards=_value_wire(shards),
                    serving=_parent_serving_payload(serving_engine),
                )
                assert ack == {"n_shards": len(shards), "epoch": 0}
                leaf, distances = connection.call(
                    "run", timeout=10.0, epoch=0, shard=index, matrix=matrix, entries=entries
                )
                assert connection.call("ping", timeout=10.0) == "pong"
        assert ran_with == [state_engine]
        np.testing.assert_array_equal(leaf, expected_leaf)
        assert distances.tobytes() == expected_distances.tobytes()

    @pytest.mark.parametrize(
        ("field", "value", "error"),
        [
            ("engine", "warp", "names engine 'warp'"),
            ("engine", "auto", "names engine 'auto'"),
            # A coordinator that shipped the unresolved request sent None.
            ("engine", None, "names engine None"),
            ("metric", "cosine", "names metric 'cosine'"),
            ("metric", "manhattan", "names metric 'manhattan'"),
            ("metric", None, "names metric None"),
        ],
        ids=[
            "engine-unknown",
            "engine-auto",
            "engine-none",
            "metric-unknown",
            "metric-manhattan",
            "metric-none",
        ],
    )
    def test_unrunnable_state_refused_and_connection_survives(
        self, fitted, workload, field, value, error
    ):
        shards, _ = _recorded_shards_and_task(fitted, workload)
        states = _value_wire(shards)
        states[-1][field] = value
        with ShardWorkerServer().start() as worker:
            with WorkerConnection(worker.address) as connection:
                with pytest.raises(ServingError, match=f"ServingError: shard state {error}"):
                    connection.call(
                        "provision",
                        timeout=10.0,
                        mode="value",
                        epoch=0,
                        sidecar=None,
                        shards=states,
                    )
                assert connection.call("ping", timeout=10.0) == "pong"
                # The connection holds no shard set: a run is refused too.
                with pytest.raises(ServingError, match="not provisioned"):
                    connection.call(
                        "run", timeout=10.0, epoch=0, shard=0,
                        matrix=workload["X_test"][:2], entries=np.zeros(2, dtype=np.intp),
                    )

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_parent_metric_entry_euclidean_served_other_fails_over(
        self, binary_bundle, workload, reference, monkeypatch, metric
    ):
        """A coordinator from before the one distance sends ``metric`` in every state.

        A worker serves ``"euclidean"`` (what it computes) and refuses any
        other name, so those tasks fail over to the coordinator, and the
        scores stay byte-identical either way.
        """
        value_wire = remote._value_wire

        def parent_wire(shards):
            return [{**state, "metric": metric} for state in value_wire(shards)]

        monkeypatch.setattr(remote, "_value_wire", parent_wire)
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
        if metric == "euclidean":
            assert backend.stats["remote_tasks"] > 0
            assert backend.stats["failover_tasks"] == 0
        else:
            assert backend.stats["remote_tasks"] == 0
            assert backend.stats["failover_tasks"] > 0
        _assert_identical(result, reference)

    def test_worker_without_the_kernel_refuses_fused_states(
        self, fitted, workload, compilerless_host
    ):
        shards, _ = _recorded_shards_and_task(fitted, workload)
        states = _value_wire(shards)
        for state in states:
            state["engine"] = "fused"
        with ShardWorkerServer().start() as worker:
            with WorkerConnection(worker.address) as connection:
                with pytest.raises(ServingError, match=re.escape(compilerless_host)):
                    connection.call(
                        "provision",
                        timeout=10.0,
                        mode="value",
                        epoch=0,
                        sidecar=None,
                        shards=states,
                    )
                assert connection.call("ping", timeout=10.0) == "pong"


# --------------------------------------------------------------------------- #
# provision frames a worker is sent: none when it cannot run the engine, a
# by-value retry when its sidecar changed
# --------------------------------------------------------------------------- #
@pytest.fixture()
def provision_frames(monkeypatch):
    """The ``mode`` of every provision frame a shard worker receives."""
    modes = []
    provisioned = ShardWorkerServer._provisioned

    def recording(server, frame):
        modes.append(frame.get("mode"))
        return provisioned(server, frame)

    monkeypatch.setattr(ShardWorkerServer, "_provisioned", recording)
    return modes


class TestProvisionFrames:
    def test_worker_advertises_its_engine(self):
        with ShardWorkerServer().start() as worker:
            with WorkerConnection(worker.address) as connection:
                assert connection.info["engine"] == kernels.host_engine()

    def test_kernel_less_worker_is_sent_no_provision_frame(
        self, binary_bundle, workload, reference, provision_frames, monkeypatch
    ):
        """A worker that advertises the numpy engine is never sent fused states.

        Before, its refusal of the by-reference provision was retried by
        value (every shard array copied and streamed) before its tasks
        failed over: two frames per ``detect``.
        """
        if kernels.host_engine() != "fused":
            pytest.skip(f"no fused kernel: {kernels.fused_build_error()}")
        # The worker side of a host without the kernel; the coordinator in
        # this process keeps the fused engine.
        worker_info = ShardWorkerServer.worker_info
        monkeypatch.setattr(
            ShardWorkerServer,
            "worker_info",
            lambda server: {**worker_info(server), "engine": "numpy"},
        )
        check_runnable = remote._check_runnable

        def refuse_fused(state):
            if state.get("engine") == "fused":
                raise ServingError("shard state needs the fused engine")
            check_runnable(state)

        monkeypatch.setattr(remote, "_check_runnable", refuse_fused)
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
        assert provision_frames == []
        assert backend.stats["remote_tasks"] == 0
        assert backend.stats["failover_tasks"] > 0
        _assert_identical(result, reference)

    def test_sidecar_refusal_is_retried_by_value(
        self, binary_bundle, workload, reference, provision_frames, monkeypatch, tmp_path
    ):
        """A worker whose sidecar changed after its handshake info was taken.

        It refuses the by-reference provision, and the coordinator streams
        the shards by value instead of giving the worker up.
        """
        import shutil

        from repro.core.serialization import sidecar_path_for

        bundle = tmp_path / "model.json"
        shutil.copy(binary_bundle, bundle)
        shutil.copy(sidecar_path_for(binary_bundle), tmp_path / "model.npz")
        worker_info = ShardWorkerServer.worker_info
        taken = {}
        monkeypatch.setattr(
            ShardWorkerServer,
            "worker_info",
            lambda server: taken.setdefault("info", worker_info(server)),
        )
        with ShardWorkerServer(model_path=bundle).start() as worker:
            assert worker.worker_info()["sidecar"] is not None
            (tmp_path / "model.npz").write_bytes(b"not a zip at all")
            backend = RemoteBackend([worker.address])
            result = _detect_remote(binary_bundle, workload, backend)
        assert provision_frames == ["reference", "value"]
        assert backend.stats["provision_value"] == 1
        assert backend.stats["failover_tasks"] == 0
        _assert_identical(result, reference)


# --------------------------------------------------------------------------- #
# parent-format configs: every stored provisioning mode is the one policy
# --------------------------------------------------------------------------- #
class TestParentProvisioning:
    @pytest.mark.parametrize("mode", ["auto", "reference", "value"])
    def test_parent_payload_serves_remotely_byte_identical(
        self, binary_bundle, workload, reference, tmp_path, mode
    ):
        import json
        import shutil

        from repro.core.serialization import sidecar_path_for

        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            host, port = worker.address
            bundle = tmp_path / binary_bundle.name
            payload = json.loads(binary_bundle.read_text())
            payload["detector"]["serving_config"]["sharding"] = {
                "shards": 4,
                "workers": None,
                "backend": "remote",
                "remote_workers": f"{host}:{port}",
                "provisioning": mode,
            }
            bundle.write_text(json.dumps(payload))
            shutil.copy(sidecar_path_for(binary_bundle), sidecar_path_for(bundle))
            _, loaded = load_bundle(bundle)
            try:
                result = loaded.detect(workload["X_test"])
                backend = loaded._backend
                assert isinstance(backend, RemoteBackend)
                assert backend.stats["provision_reference"] == 1
                assert backend.stats["provision_value"] == 0
                assert backend.stats["failover_tasks"] == 0
            finally:
                _unshard(loaded)
        _assert_identical(result, reference)


# --------------------------------------------------------------------------- #
# construction & CLI wiring
# --------------------------------------------------------------------------- #
class TestConstruction:
    def test_config_builds_remote_backend_from_addresses(self):
        config = ServingConfig(shards=2, remote_workers="10.0.0.1:7001,10.0.0.2:7002")
        backend = config.build_backend()
        assert isinstance(backend, RemoteBackend)
        assert backend.name == "remote"
        assert backend.workers == 2
        assert backend.addresses == (("10.0.0.1", 7001), ("10.0.0.2", 7002))
        backend.close()

    def test_remote_backend_needs_an_address(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            RemoteBackend([])

    def test_load_bundle_remote_validation(self, binary_bundle):
        with pytest.raises(ConfigurationError, match="at least one worker address"):
            load_bundle(binary_bundle, overrides={"shards": 2, "remote_workers": ","})
        with pytest.raises(ConfigurationError, match="'backend' was removed"):
            load_bundle(binary_bundle, overrides={"shards": 2, "backend": "remote"})
        with pytest.raises(ConfigurationError, match="only apply to sharded serving"):
            load_bundle(binary_bundle, overrides={"remote_workers": "127.0.0.1:7001"})


class TestCli:
    def test_detect_via_remote_workers_flag(
        self, binary_bundle, workload, tmp_path, capsys
    ):
        from repro.data.loader import save_csv

        dataset = KddSyntheticGenerator(random_state=33).generate(120)
        input_csv = tmp_path / "records.csv"
        save_csv(dataset, input_csv)
        with ShardWorkerServer(model_path=binary_bundle).start() as worker:
            code = main(
                [
                    "detect",
                    "--model",
                    str(binary_bundle),
                    "--input",
                    str(input_csv),
                    "--shards",
                    "4",
                    "--remote-workers",
                    f"{worker.address[0]}:{worker.address[1]}",
                ]
            )
        captured = capsys.readouterr()
        assert code == 0
        assert "remote backend" in captured.out

    def test_shard_worker_shards_with_model_validates_and_listens(
        self, binary_bundle, capsys, monkeypatch
    ):
        # --shards K loads the bundle sharded at K before listening; the
        # listener itself is not needed here, so serving returns at once.
        monkeypatch.setattr(ShardWorkerServer, "serve_forever", lambda self: None)
        code = main(
            [
                "shard-worker",
                "--listen", "127.0.0.1:0",
                "--model", str(binary_bundle),
                "--shards", "4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "by-reference/by-value provisioning" in captured.out

    def test_shard_worker_shards_without_model_exits_2(self, capsys):
        code = main(["shard-worker", "--listen", "127.0.0.1:0", "--shards", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--model" in captured.err

    def test_detect_remote_without_addresses_exits_2(self, binary_bundle, tmp_path, capsys):
        code = main(
            [
                "detect",
                "--model",
                str(binary_bundle),
                "--input",
                str(tmp_path / "missing.csv"),
                "--shards",
                "2",
                "--remote-workers",
                ",",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "needs at least one worker address" in captured.err
