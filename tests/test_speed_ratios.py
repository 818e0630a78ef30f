"""In-run speed ratios: each fast path against its baseline, in one process.

Every test times both sides on the same fitted model and the same rows, best
of a few repetitions each (the median of many calls for one-record round
trips, and of alternating calls for the memmap-against-in-RAM descent, the
fused-against-numpy engine, the columnar transform, the drift screen and
the native EWMA), and asserts the ratio.  A ratio taken in one run cancels
the machine's absolute speed, so the bounds hold on a laptop and a shared CI
runner alike.  BLAS pools are pinned to one thread in CI, so both sides of
every ratio run single-threaded.

Correctness of each path (bit-identity, exact leaves, tree-free loads) is
gated by the test module that owns it; these tests only check that no fast
path has fallen behind the path it replaced.  The fused and native EWMA
ratios skip on a host without the fused kernel.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Tuple

import numpy as np
import pytest

from repro.cli import load_bundle, save_bundle
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig, kernels
from repro.core.serialization import (
    detector_binary_payload,
    detector_from_dict,
    load_detector,
    save_detector,
    write_json_atomic,
)
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.netsim.extractor import KddFeatureExtractor
from repro.serving import (
    DetectionGateway,
    GatewayClient,
    RemoteBackend,
    ShardedGhsom,
    ShardWorkerServer,
    subtrees_from_compiled,
)
from repro.streaming.drift import MeanShiftDetector
from repro.streaming.window import EwmaEstimator

from legacy_artifacts import v2_payload
from legacy_descent import legacy_score_samples
from record_rows import dataset_to_rows
from test_data_preprocess_oracle import ObjectArrayPipeline, netsim_events
from test_streaming_drift_oracle import RowReductionMeanShift

SEED = 2013
BATCH_SIZES = (500, 2000)
REPEATS = 3


def best_of(function: Callable[..., object], *args: object) -> float:
    """Fastest wall-clock seconds of :data:`REPEATS` calls (spikes only slow a call)."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def workload():
    """A depth-3 detector on synthetic KDD traffic plus 2000 scoring rows."""
    generator = KddSyntheticGenerator(random_state=SEED)
    train = generator.generate(1500)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X = pipeline.transform(generator.generate(max(BATCH_SIZES)))
    config = GhsomConfig(
        tau1=0.3,
        tau2=0.03,
        max_depth=3,
        max_map_size=100,
        max_growth_rounds=30,
        min_samples_for_expansion=25,
        training=SomTrainingConfig(epochs=5),
        random_state=SEED,
    )
    detector = GhsomDetector(config, random_state=SEED)
    detector.fit(X_train, [str(category) for category in train.categories])
    detector.detect(X)  # warm BLAS and the leaf tables
    return {"pipeline": pipeline, "detector": detector, "X": X}


@pytest.fixture(scope="module")
def binary_bundle(workload, tmp_path_factory):
    path = tmp_path_factory.mktemp("ratios") / "model.json"
    save_bundle(workload["pipeline"], workload["detector"], path)
    return path


def test_compiled_beats_legacy_descent_on_every_batch(workload):
    detector, X = workload["detector"], workload["X"]
    assert detector.model.depth >= 3, "the ratio is meant for a deep tree"
    for batch_size in BATCH_SIZES:
        batch = X[:batch_size]
        legacy = best_of(legacy_score_samples, detector, batch)
        compiled = best_of(detector.score_samples, batch)
        assert legacy / compiled > 1.0, (batch_size, legacy, compiled)


def test_fused_engine_beats_numpy_on_the_largest_batch(workload):
    if kernels.host_engine() != "fused":
        pytest.skip(f"no fused kernel available: {kernels.fused_build_error()}")
    payload, arrays = detector_binary_payload(workload["detector"])
    detector = detector_from_dict(payload, arrays=arrays)
    batch = workload["X"][: max(BATCH_SIZES)]
    detector.score_samples(batch)  # loads the kernel, transposes the codebook

    def on_a_host_without_the_kernel() -> None:
        # The numpy side: the detector scores as on a host whose kernel
        # did not build (the probe the compilerless_host fixture patches).
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_cc_library", lambda: (None, "numpy side"))
            detector.score_samples(batch)

    sides = (on_a_host_without_the_kernel, lambda: detector.score_samples(batch))
    # Alternate the engines call by call and compare medians, so a slow
    # stretch of the host hits both sides.  A regression slows every
    # measurement; one retry absorbs a noisy one.
    ratios = []
    for _ in range(2):
        times = np.empty((30, 2))
        for row in times:
            for side, score in enumerate(sides):
                started = time.perf_counter()
                score()
                row[side] = time.perf_counter() - started
        numpy_seconds, fused_seconds = np.median(times, axis=0)
        ratios.append(float(numpy_seconds / fused_seconds))
        if ratios[-1] >= 1.5:
            break
    assert ratios[-1] >= 1.5, ratios


def _load_and_score(path, rows):
    return load_detector(path).detect(rows)


def test_v3_cold_load_to_first_score_beats_v2(workload, tmp_path):
    v2, v3 = tmp_path / "detector_v2.json", tmp_path / "detector_v3.json"
    # v2 is read but no longer written; the tests-only helper builds its layout.
    write_json_atomic(v2_payload(workload["detector"]), v2)
    save_detector(workload["detector"], v3)
    first = workload["X"][:256]
    v2_seconds = best_of(_load_and_score, v2, first)
    v3_seconds = best_of(_load_and_score, v3, first)
    assert v2_seconds / v3_seconds > 1.2, (v2_seconds, v3_seconds)


def test_memmap_served_descent_keeps_up_with_in_ram(workload, tmp_path):
    # A v3 artifact serves from np.memmap arrays; the descent views them as
    # plain ndarrays, so the mapped load runs the same operations as the
    # fitted detector's in-RAM arrays.
    path = tmp_path / "detector_v3.json"
    save_detector(workload["detector"], path)
    mapped = load_detector(path)._compiled_model()
    in_ram = workload["detector"]._compiled_model()
    assert isinstance(mapped.codebook, np.memmap)
    assert not isinstance(in_ram.codebook, np.memmap)
    batch = workload["X"][:500]
    mapped.assign_arrays(batch)
    in_ram.assign_arrays(batch)
    # A ~1 ms call against a bound 10 % from parity: alternate the sides call
    # by call and compare medians, so a slow stretch of the host hits both.
    # A regression slows every measurement; one retry absorbs a noisy one.
    ratios = []
    for _ in range(2):
        times = np.empty((100, 2))
        for row in times:
            for side, compiled in enumerate((mapped, in_ram)):
                started = time.perf_counter()
                compiled.assign_arrays(batch)
                row[side] = time.perf_counter() - started
        mapped_seconds, in_ram_seconds = np.median(times, axis=0)
        ratios.append(mapped_seconds / in_ram_seconds)
        if ratios[-1] <= 1.1:
            break
    assert ratios[-1] <= 1.1, ratios


def _three_calls(detector, batch):
    return detector.predict(batch), detector.score_samples(batch), detector.predict_category(batch)


def test_one_pass_detect_beats_three_calls(workload):
    detector, X = workload["detector"], workload["X"]
    for batch_size in BATCH_SIZES:
        batch = X[:batch_size]
        three = best_of(_three_calls, detector, batch)
        one = best_of(detector.detect, batch)
        assert three / one > 1.0, (batch_size, three, one)


def test_serial_sharding_overhead_is_bounded(workload):
    compiled = workload["detector"].model.compile()
    X = workload["X"]
    unsharded = best_of(compiled.assign_arrays, X)
    engine = ShardedGhsom.from_compiled(compiled, 4)
    try:
        engine.assign_arrays(X)
        sharded = best_of(engine.assign_arrays, X)
    finally:
        engine.close()
    assert unsharded / sharded > 0.4, (unsharded, sharded)


def test_loopback_remote_overhead_is_bounded(workload, binary_bundle):
    # Score through the loaded, memory-mapped snapshot, as a serving host
    # would: only shards that are views into the sidecar go by reference.
    _, served = load_bundle(binary_bundle)
    compiled = served._compiled_model()
    X = workload["X"]
    unsharded = best_of(compiled.assign_arrays, X)
    n_subtrees = len(subtrees_from_compiled(compiled))
    with ShardWorkerServer(model_path=binary_bundle).start() as first, \
            ShardWorkerServer(model_path=binary_bundle).start() as second:
        for n_shards in (4, max(4, n_subtrees)):
            backend = RemoteBackend([first.address, second.address])
            engine = ShardedGhsom.from_compiled(compiled, n_shards, backend=backend)
            try:
                engine.assign_arrays(X)  # connects and provisions
                remote = best_of(engine.assign_arrays, X)
            finally:
                engine.close()
            # Failover would time the local fallback, not the wire.
            assert backend.stats["remote_tasks"] > 0, backend.stats
            assert backend.stats["failover_tasks"] == 0, backend.stats
            assert unsharded / remote > 0.05, (n_shards, unsharded, remote)


def _closed_loop(
    client: GatewayClient, rows: np.ndarray, in_flight: int, n_requests: int
) -> Tuple[float, float]:
    """Keep ``in_flight`` one-record requests outstanding; (requests/s, mean batch rows)."""
    slots = threading.BoundedSemaphore(in_flight)
    futures = []
    started = time.perf_counter()
    for index in range(n_requests):
        assert slots.acquire(timeout=60), "the gateway stopped answering"
        future = client.submit(rows[index % rows.shape[0]])
        future.add_done_callback(lambda _: slots.release())
        futures.append(future)
    results = [future.result(timeout=60) for future in futures]
    elapsed = time.perf_counter() - started
    return n_requests / elapsed, float(np.mean([result.batch_rows for result in results]))


def test_gateway_micro_batching_beats_sequential(workload):
    requests_per_level = {1: 50, 64: 768, 512: 1536}
    best_rate = dict.fromkeys(requests_per_level, 0.0)
    batch_rows_at_64 = 0.0
    gateway = DetectionGateway(workload["detector"], max_batch_rows=4096)
    with gateway.start():
        with GatewayClient(gateway.address) as client:
            client.ping()
            for _ in range(REPEATS):
                for in_flight, n_requests in requests_per_level.items():
                    rate, batch_rows = _closed_loop(client, workload["X"], in_flight, n_requests)
                    if rate > best_rate[in_flight]:
                        best_rate[in_flight] = rate
                        if in_flight == 64:
                            batch_rows_at_64 = batch_rows
    assert best_rate[64] > best_rate[1], best_rate
    assert best_rate[512] > best_rate[1], best_rate
    # Real coalescing, not scheduling luck, carried the throughput.
    assert batch_rows_at_64 > 1.0, batch_rows_at_64


def _median_seconds(function: Callable[..., object], *args: object, n_calls: int = 200) -> float:
    """Median wall-clock seconds of ``n_calls`` sequential calls."""
    times = np.empty(n_calls)
    for index in range(n_calls):
        started = time.perf_counter()
        function(*args)
        times[index] = time.perf_counter() - started
    return float(np.median(times))


def test_idle_gateway_adds_little_to_one_record_latency(workload):
    # An idle gateway serves a request at once: one record's round trip
    # costs about a ping plus the detect itself, with no wait for company.
    # A wait in the gateway slows every measurement; one retry absorbs a slow
    # stretch of a shared host.
    detector = workload["detector"]
    row = workload["X"][:1]
    attempts = []
    with DetectionGateway(detector).start() as gateway:
        with GatewayClient(gateway.address) as client:
            client.ping()
            client.detect(row, timeout=60)
            for _ in range(2):
                ping = _median_seconds(client.ping)
                served = _median_seconds(client.detect, row)
                direct = _median_seconds(detector.detect, row)
                attempts.append((served, ping, direct))
                if served < 5.0 * (ping + direct):
                    break
    assert served < 5.0 * (ping + direct), attempts


def test_columnar_transform_beats_object_assembly():
    # One 250-event netsim chunk, as the trace replay transforms it: the
    # columnar dataset against the object array the dataset used to store,
    # unboxed column by column and encoded value by value.
    chunk = KddFeatureExtractor().extract(netsim_events()[1000:1250])
    raw = np.asarray(dataset_to_rows(chunk), dtype=object)
    pipeline = PreprocessingPipeline().fit(chunk)
    oracle = ObjectArrayPipeline().fit(raw)
    assert pipeline.transform(chunk).tobytes() == oracle.transform(raw).tobytes()
    # Alternate the sides call by call and compare medians, so a slow
    # stretch of the host hits both.  A regression slows every measurement;
    # one retry absorbs a noisy one.
    sides = ((oracle.transform, raw), (pipeline.transform, chunk))
    ratios = []
    for _ in range(2):
        times = np.empty((100, 2))
        for row in times:
            for side, (transform, records) in enumerate(sides):
                started = time.perf_counter()
                transform(records)
                row[side] = time.perf_counter() - started
        oracle_seconds, columnar_seconds = np.median(times, axis=0)
        ratios.append(float(oracle_seconds / columnar_seconds))
        if ratios[-1] >= 2.5:
            break
    assert ratios[-1] >= 2.5, ratios


def _drift_alarms(detector, batches):
    """Feed ``batches`` as ``OnlineDetector`` does: reset after each alarm."""
    alarms = []
    for batch in batches:
        alarms.append(detector.update_many(batch))
        if alarms[-1]:
            detector.reset()
    return alarms


def test_screened_drift_beats_row_reductions():
    # Twenty windows of 450 benign scores, the size OnlineDetector feeds its
    # drift test, with a level shift two thirds in: the prefix-sum screen
    # against the row reductions it replaced, which test every window.
    rng = np.random.default_rng(SEED)
    batches = np.abs(rng.normal(0.4, 0.15, (20, 450)))
    batches[13:] += 1.0
    alarms = _drift_alarms(MeanShiftDetector(), batches)
    assert alarms == _drift_alarms(RowReductionMeanShift(), batches)
    assert any(alarms)
    # Alternate the sides call by call and compare medians, so a slow
    # stretch of the host hits both.  A regression slows every measurement;
    # one retry absorbs a noisy one.
    ratios = []
    for _ in range(2):
        times = np.empty((15, 2))
        for row in times:
            for side, factory in enumerate((RowReductionMeanShift, MeanShiftDetector)):
                detector = factory()
                started = time.perf_counter()
                _drift_alarms(detector, batches)
                row[side] = time.perf_counter() - started
        rows_seconds, screened_seconds = np.median(times, axis=0)
        ratios.append(float(rows_seconds / screened_seconds))
        if ratios[-1] >= 3.0:
            break
    assert ratios[-1] >= 3.0, ratios


def test_native_ewma_beats_the_python_recurrence():
    # Twenty windows of 450 benign scores, the size OnlineDetector feeds its
    # score EWMA: the fold in the C library against the Python loop, which
    # folds them on a host without the kernel.
    if kernels.host_engine() != "fused":
        pytest.skip(f"no fused kernel available: {kernels.fused_build_error()}")
    batches = np.abs(np.random.default_rng(SEED).normal(0.4, 0.15, (20, 450)))

    def fold(estimator: EwmaEstimator) -> float:
        started = time.perf_counter()
        for batch in batches:
            estimator.update_many(batch)
        return time.perf_counter() - started

    def on_a_host_without_the_kernel() -> float:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_cc_library", lambda: (None, "python side"))
            return fold(EwmaEstimator(alpha=0.02))

    sides = (on_a_host_without_the_kernel, lambda: fold(EwmaEstimator(alpha=0.02)))
    # Alternate the sides call by call and compare medians, so a slow
    # stretch of the host hits both.  A regression slows every measurement;
    # one retry absorbs a noisy one.
    ratios = []
    for _ in range(2):
        times = np.array([[side() for side in sides] for _ in range(30)])
        python_seconds, native_seconds = np.median(times, axis=0)
        ratios.append(float(native_seconds / python_seconds))
        if ratios[-1] <= 0.25:
            break
    assert ratios[-1] <= 0.25, ratios
