"""The two long-running CLI servers as real processes, start to SIGTERM.

``repro-ids serve`` and ``repro-ids shard-worker`` are started the way an
operator starts them: on ``127.0.0.1:0`` with a binary model bundle.  Each
test reads the bound address from the ``listening on HOST:PORT`` banner,
makes one request, and then stops the server with SIGTERM, the signal
process managers send.  The server must drain and exit with status 0.
One shard worker runs on a host without a C compiler, to pin what a mixed
fleet does.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import load_bundle, save_bundle
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig, kernels
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.serving import GatewayClient, RemoteBackend, ServingConfig

_BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")
_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def bundle_and_rows(tmp_path_factory):
    generator = KddSyntheticGenerator(random_state=23)
    train = generator.generate(600)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    detector = GhsomDetector(
        GhsomConfig(
            tau1=0.3,
            tau2=0.05,
            max_depth=2,
            max_map_size=25,
            min_samples_for_expansion=25,
            training=SomTrainingConfig(epochs=2),
            random_state=23,
        ),
        random_state=23,
    )
    detector.fit(X_train, [str(category) for category in train.categories])
    path = tmp_path_factory.mktemp("processes") / "model.json"
    save_bundle(pipeline, detector, path)
    return path, pipeline.transform(generator.generate(200))


def _assert_identical(result, reference):
    assert result.scores.tobytes() == reference.scores.tobytes()
    np.testing.assert_array_equal(result.predictions, reference.predictions)
    assert list(result.categories) == list(reference.categories)


def _gateway_request(address, bundle, X):
    _, detector = load_bundle(bundle)
    with GatewayClient(address) as client:
        result = client.detect(X, timeout=30)
    _assert_identical(result, detector.detect(X))


def _shard_worker_request(address, bundle, X):
    _, detector = load_bundle(bundle)
    local = detector.detect(X)
    backend = RemoteBackend([address])
    config = ServingConfig(shards=4, remote_workers=f"{address[0]}:{address[1]}")
    detector._apply_serving(config, backend=backend)
    try:
        remote = detector.detect(X)
    finally:
        detector.configure(ServingConfig())
    assert backend.stats["remote_tasks"] > 0, backend.stats
    assert backend.stats["failover_tasks"] == 0, backend.stats
    _assert_identical(remote, local)


@contextlib.contextmanager
def _server_process(command, bundle, env=None):
    """Run ``repro-ids <command>`` on an ephemeral port; yields its address.

    On exit the server gets SIGTERM and must drain and exit with status 0.
    """
    env = dict(os.environ if env is None else env)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", command, "--listen", "127.0.0.1:0",
         "--model", str(bundle)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    # A server that never prints its banner is killed, which ends the read.
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    try:
        seen = []
        for line in process.stdout:
            seen.append(line)
            match = _BANNER.search(line)
            if match:
                break
        else:
            pytest.fail(f"{command} exited before listening: {''.join(seen)!r}")
        yield match.group(1), int(match.group(2))
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, "".join(seen) + output


@pytest.mark.parametrize(
    ("command", "request_one"),
    [("serve", _gateway_request), ("shard-worker", _shard_worker_request)],
    ids=["serve", "shard-worker"],
)
def test_server_process_answers_then_drains_on_sigterm(bundle_and_rows, command, request_one):
    bundle, X = bundle_and_rows
    with _server_process(command, bundle) as address:
        request_one(address, bundle, X)


@pytest.mark.skipif(
    kernels.host_engine() != "fused",
    reason=f"the coordinator itself runs numpy here: {kernels.fused_build_error()}",
)
def test_worker_without_the_kernel_refuses_a_fused_coordinator(bundle_and_rows, tmp_path):
    """A mixed fleet: a fused coordinator and a worker that has no compiler.

    The worker cannot run the shards' fused engine, so it refuses the
    provision and the coordinator runs those tasks itself: the scores are
    those of local ``detect``, never the worker's numpy arithmetic.
    """
    bundle, X = bundle_and_rows
    no_compiler, tmpdir = tmp_path / "bin", tmp_path / "tmp"
    no_compiler.mkdir()
    tmpdir.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env.update(PATH=str(no_compiler), TMPDIR=str(tmpdir))
    _, detector = load_bundle(bundle)
    local = detector.detect(X)
    with _server_process("shard-worker", bundle, env) as address:
        backend = RemoteBackend([address])
        config = ServingConfig(shards=4, remote_workers=f"{address[0]}:{address[1]}")
        detector._apply_serving(config, backend=backend)
        try:
            remote = detector.detect(X)
        finally:
            detector.configure(ServingConfig())
    # Answered in numpy arithmetic, some rows would differ in the last bits.
    _assert_identical(remote, local)
    assert remote.leaf_index.tobytes() == local.leaf_index.tobytes()
    assert backend.stats["failover_tasks"] > 0, backend.stats
    assert backend.stats["remote_tasks"] == 0, backend.stats
