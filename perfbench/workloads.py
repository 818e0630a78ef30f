"""The benchmark's workloads: set-up, measured loop and correctness gates.

Every workload treats the program as a black box: it calls the public
entry points of each layer, times those calls from outside, and reads what
the calls already return (``DetectionResult.stats``, ``GatewayResult``,
``RemoteBackend.stats``).  See ``README.md`` next to this file for why each
workload exists and which per-layer metric should move which end-to-end
metric.

The detection model is fixed: it is fitted from a training trace with a
constant seed, like a deployed model.  ``--seed`` chooses the traffic the
model is run on, so the same seed always replays the same inputs.
"""

from __future__ import annotations

import gc
import os
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from children import ChildGroup, peak_rss_mb
from loadgen import PhaseResult, poisson_offsets, run_phase
from spans import NullTracer, Tracer
from stats import (
    best_of_passes,
    exact_batches,
    latency_summary,
    median,
    quality,
    scores_close,
    scores_sha256,
    tail_percentile,
    windowed_summary,
)

from repro.cli import load_bundle, save_bundle
from repro.core import GhsomDetector
from repro.core.serialization import load_detector, save_detector
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.netsim.extractor import KddFeatureExtractor
from repro.netsim.simulator import ATTACK_REGISTRY, AttackInjection, TrafficSimulator
from repro.serving import GatewayClient
from repro.serving.transport import WorkerConnection
from repro.streaming import OnlineDetector
from repro.streaming.drift import DriftDetector, MeanShiftDetector
from repro.streaming.pipeline import make_drifting_stream

from common import default_ghsom_config

#: Seed of the training traffic: the model stays the same for every --seed.
MODEL_SEED = 2013
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Background sessions per second in every simulated trace.
SESSIONS_PER_S = 5.0
#: Simulated seconds of training traffic (about 5,000 connection records).
TRAIN_TRACE_S = 250.0
#: Simulated seconds of replayed traffic (about 12,000 connection records).
TEST_TRACE_S = 600.0
#: Connection events per ``trace_replay`` chunk: extract, transform, detect.
#: About fifty chunks per pass, enough for a p75 over the chunks.
CHUNK_EVENTS = 250

#: Open-loop request rates (requests per second) of ``gateway_poisson``.
#: The measured rate is about a fifth of the rate at which one client
#: process and one gateway saturate two cores in a fast spell of the host
#: (about 5,500/s).  The low rate, where the coalescing tick alone sets
#: latency, is measured in the traced run.
HIGH_RATE = 1000.0
LOW_RATE = 300.0
#: Share of gateway requests that carry a row-block instead of one record,
#: and the block sizes drawn for them.
BLOCK_SHARE = 0.1
BLOCK_ROWS = (2, 16)
#: Unmeasured traffic sent before each measured phase, in seconds.
WARMUP_S = 0.5
#: Seconds a phase waits for outstanding replies before counting them failed.
DRAIN_TIMEOUT_S = 10.0
#: The rate ladder and the tail-latency limit behind ``gateway.slo_rate_per_s``.
SLO_LADDER = (1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 10000.0)
SLO_TAIL_MS = 50.0
SLO_RUNG_S = 2.0

#: Records per phase of the drifting stream, and the window size.  Twenty
#: windows per pass make the tail over windows their p50; a longer stream
#: would allow a p75, but its detection rate moves by 15 % between seeds.
STREAM_PHASE = 5000
STREAM_WINDOW = 500
#: Normal records of the model seed's stream used to fit the stream model.
STREAM_CALIBRATION = 2500

#: Rows per ``remote_bulk`` detect call, shard count, worker processes and
#: the number of distinct batches cycled through.
REMOTE_ROWS = 10000
REMOTE_SHARDS = 4
REMOTE_WORKERS = 2
REMOTE_BATCHES = 4

#: In a traced run each workload processes this fixed amount of work twice,
#: untraced and traced, so stage totals compare across commits.
TRACED_UNITS = {
    "trace_replay": 100,  # chunks: about two passes
    "stream_online": 160,  # windows: eight passes
    "remote_bulk": 100,  # detect calls
}
#: Seconds per phase of the gateway's traced run.
TRACED_GATEWAY_S = 3.0
#: Largest share (percent) of a unit's time its stage spans may leave unexplained.
RECONCILE_BOUND_PCT = 10.0


class BenchmarkFailure(RuntimeError):
    """A correctness gate failed: the run reports no numbers."""


@dataclass
class Context:
    """What every workload needs from the runner."""

    workdir: Path
    seed: int
    seconds: float
    trace: bool
    children: ChildGroup
    trace_path: Path


@dataclass
class Outcome:
    """One workload run: end-to-end metrics, per-layer metrics and provenance."""

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# shared set-up pieces
# --------------------------------------------------------------------------- #
def simulator(seed: int, duration_s: float) -> TrafficSimulator:
    """A trace with background sessions and every attack type injected once."""
    names = sorted(ATTACK_REGISTRY)
    injections = [
        AttackInjection(name, start_time=duration_s * (index + 1) / (len(names) + 1))
        for index, name in enumerate(names)
    ]
    return TrafficSimulator(
        duration_s,
        sessions_per_second=SESSIONS_PER_S,
        injections=injections,
        random_state=seed,
    )


def training_trace():
    """The fixed, labelled training dataset of the netsim model."""
    return simulator(MODEL_SEED, TRAIN_TRACE_S).run()


def fit_netsim_bundle(train, bundle: Path) -> Tuple[PreprocessingPipeline, GhsomDetector, float, float]:
    """Fit pipeline + detector, save a v3 bundle and load it back (the served model)."""
    started = time.perf_counter()
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    detector = GhsomDetector(default_ghsom_config(), random_state=MODEL_SEED)
    detector.fit(X_train, [str(category) for category in train.categories])
    fit_s = time.perf_counter() - started
    started = time.perf_counter()
    save_bundle(pipeline, detector, bundle, format="binary")
    served_pipeline, served = load_bundle(bundle)
    bundle_s = time.perf_counter() - started
    return served_pipeline, served, fit_s, bundle_s


def netsim_rows(seed: int, pipeline: PreprocessingPipeline) -> Tuple[np.ndarray, np.ndarray]:
    """Preprocessed records and attack labels of the seed's replayed trace."""
    dataset = simulator(seed, TEST_TRACE_S).run()
    return pipeline.transform(dataset), dataset.is_attack.astype(int)


def repeat_setup(setup: Callable[[int], Dict[str, float]]) -> Dict[str, float]:
    """Run ``setup(i)`` :data:`SETUP_REPEATS` times; median of every timing."""
    runs = [setup(index) for index in range(SETUP_REPEATS)]
    merged = {key: median(run[key] for run in runs) for key in runs[0]}
    merged["setup_s"] = median(sum(run.values()) for run in runs)
    return merged


def layer_metrics(**values: float) -> Dict[str, float]:
    """Every per-layer metric, zero where the workload does not use the layer."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for key, value in values.items():
        name = key.replace("__", ".")
        if name not in metrics:
            raise KeyError(f"unknown per-layer metric {name!r}")
        metrics[name] = float(value)
    return metrics


def stage_seconds(tracer: Tracer, name: str) -> float:
    return tracer.totals().get(name, {}).get("total_s", 0.0)


def unaccounted_pct(tracer: Tracer, root: str) -> float:
    """Percent of the ``root`` spans' time not covered by their child spans."""
    entry = tracer.totals().get(root)
    if not entry or entry["total_s"] <= 0.0:
        return 0.0
    return 100.0 * entry["self_s"] / entry["total_s"]


def serving_totals(stats: Sequence[object]) -> Dict[str, float]:
    """Sums of the per-call ``ServingStats`` stage timings."""
    return {
        "core__ingest_s": sum(s.ingest_s for s in stats),
        "core__route_s": sum(s.route_s for s in stats),
        "core__descend_s": sum(s.descend_s for s in stats),
        "core__merge_s": sum(s.merge_s for s in stats),
        "core__detect_calls": len(stats),
        "core__detect_rows": sum(s.n_records for s in stats),
    }


@dataclass
class Units:
    """Position in its pass (``key``), completion time, latency and record count of every measured unit."""

    start: float = field(default_factory=time.perf_counter)
    keys: List[int] = field(default_factory=list)
    at: List[float] = field(default_factory=list)
    ms: List[float] = field(default_factory=list)
    records: List[int] = field(default_factory=list)

    def add(self, key: int, started: float, finished: float, records: int) -> None:
        self.keys.append(key)
        self.at.append(finished)
        self.ms.append((finished - started) * 1e3)
        self.records.append(records)

    def __len__(self) -> int:
        return len(self.ms)


def end_to_end(summary: Dict[str, float], setup_s: float, peak_mb: float, scored: Dict[str, float]) -> Dict[str, float]:
    """The end-to-end metrics from a timing summary, set-up time, memory and quality."""
    return {
        "setup_s": setup_s,
        "records_per_s": summary["records_per_s"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "tail_percentile": summary["tail_percentile"],
        "peak_rss_mb": peak_mb,
        **scored,
    }


def rss(children: ChildGroup) -> float:
    return peak_rss_mb([os.getpid(), *children.live_pids()])


#: ``one_pass(tracer, units, stats, limit, deadline)`` processes the
#: workload's input once and returns (labels, predictions, scores), or
#: ``None`` when the unit limit or the deadline cut the pass short.
OnePass = Callable[[Tracer, Units, List[object], Optional[int], Optional[float]], Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]


def run_passes(
    workload: str, one_pass: OnePass, tracer: Tracer, *, seconds: Optional[float] = None, limit: Optional[int] = None
) -> Tuple[Units, List[object], float, Tuple[np.ndarray, np.ndarray, np.ndarray], str]:
    """Repeat ``one_pass`` until ``seconds`` pass or ``limit`` units are done.

    Every full pass must produce the same scores (the SHA-256 of their
    float64 bytes); returns the units, the collected stats, the wall time,
    the first full pass and its digest.
    """
    units = Units()
    stats: List[object] = []
    digests: List[str] = []
    first = None
    deadline = None if seconds is None else units.start + seconds
    while True:
        outcome = one_pass(tracer, units, stats, limit, deadline)
        if outcome is None:
            break
        digests.append(scores_sha256(outcome[2]))
        first = first or outcome
    wall = time.perf_counter() - units.start
    if first is None:
        raise BenchmarkFailure(f"{workload}: the run ended before one full pass")
    if len(set(digests)) != 1:
        raise BenchmarkFailure(f"{workload}: passes disagree on scores: {digests}")
    return units, stats, wall, first, digests[0]


# --------------------------------------------------------------------------- #
# trace_replay: raw connections -> features -> preprocessing -> alarms
# --------------------------------------------------------------------------- #
def trace_replay(ctx: Context) -> Outcome:
    train = training_trace()
    state: Dict[str, object] = {}

    def setup(index: int) -> Dict[str, float]:
        started = time.perf_counter()
        events = simulator(ctx.seed, TEST_TRACE_S).simulate_events()
        simulate_s = time.perf_counter() - started
        pipeline, served, fit_s, bundle_s = fit_netsim_bundle(train, ctx.workdir / f"model{index}.json")
        state.update(events=events, pipeline=pipeline, detector=served)
        return {"simulate_s": simulate_s, "fit_s": fit_s, "bundle_s": bundle_s}

    setup_times = repeat_setup(setup)
    events = state["events"]
    pipeline: PreprocessingPipeline = state["pipeline"]  # type: ignore[assignment]
    detector: GhsomDetector = state["detector"]  # type: ignore[assignment]
    extractor = KddFeatureExtractor()
    chunks = [events[i : i + CHUNK_EVENTS] for i in range(0, len(events), CHUNK_EVENTS)]

    def one_pass(tracer: Tracer, units: Units, stats: List[object], limit: Optional[int], deadline: Optional[float]):
        """Process the chunks in order; labels, predictions and scores of the pass."""
        labels, predictions, scores = [], [], []
        for index, chunk in enumerate(chunks):
            if (limit is not None and len(units) >= limit) or (
                deadline is not None and time.perf_counter() >= deadline
            ):
                return None
            started = time.perf_counter()
            with tracer.span("trace.chunk", request_id=index):
                with tracer.span("netsim.extract"):
                    dataset = extractor.extract(chunk)
                with tracer.span("data.transform"):
                    X = pipeline.transform(dataset)
                with tracer.span("core.detect"):
                    result = detector.detect(X)
            units.add(index, started, time.perf_counter(), len(dataset))
            stats.append(result.stats)
            labels.append(dataset.is_attack.astype(int))
            predictions.append(result.predictions)
            scores.append(result.scores)
        return np.concatenate(labels), np.concatenate(predictions), np.concatenate(scores)

    if not ctx.trace:
        units, _, _, first, digest = run_passes("trace_replay", one_pass, NullTracer(), seconds=ctx.seconds)
        summary = best_of_passes(units.keys, units.ms, units.records)
        e2e = end_to_end(summary, setup_times["setup_s"], rss(ctx.children), quality(*first))
        return Outcome(len(units), 0, e2e, notes={"scores_sha256": digest, "chunks_per_pass": len(chunks)})

    limit = TRACED_UNITS["trace_replay"]
    _, _, base_wall, _, _ = run_passes("trace_replay", one_pass, NullTracer(), limit=limit)
    tracer = Tracer()
    units, stats, wall, _, digest = run_passes("trace_replay", one_pass, tracer, limit=limit)
    tracer.write(ctx.trace_path)
    gap = unaccounted_pct(tracer, "trace.chunk")
    if gap > RECONCILE_BOUND_PCT:
        raise BenchmarkFailure(f"trace_replay: stages leave {gap:.1f}% of chunk time unexplained")
    layers = layer_metrics(
        setup__fit_s=setup_times["fit_s"],
        setup__bundle_s=setup_times["bundle_s"],
        netsim__simulate_s=setup_times["simulate_s"],
        netsim__extract_s=stage_seconds(tracer, "netsim.extract"),
        data__transform_s=stage_seconds(tracer, "data.transform"),
        core__detect_s=stage_seconds(tracer, "core.detect"),
        **serving_totals(stats),
        trace__overhead_pct=100.0 * (wall / base_wall - 1.0),
        trace__unaccounted_pct=gap,
        trace__spans=len(tracer.spans),
    )
    return Outcome(len(units), 0, {}, layers, {"scores_sha256": digest})


# --------------------------------------------------------------------------- #
# gateway_low / gateway_high: Poisson open loop against a gateway child
# --------------------------------------------------------------------------- #
@dataclass
class RequestPlan:
    """The seeded request stream: which pool rows each request carries."""

    starts: np.ndarray
    sizes: np.ndarray
    payloads: List[np.ndarray]


def request_plan(rng: np.random.Generator, pool: np.ndarray, n: int, cursor: int) -> RequestPlan:
    blocks = rng.random(n) < BLOCK_SHARE
    sizes = np.where(blocks, rng.integers(BLOCK_ROWS[0], BLOCK_ROWS[1] + 1, n), 1)
    starts = (cursor + np.concatenate([[0], np.cumsum(sizes[:-1])])) % (pool.shape[0] - BLOCK_ROWS[1])
    payloads = [pool[s] if k == 1 else pool[s : s + k] for s, k in zip(starts, sizes)]
    return RequestPlan(starts=starts, sizes=sizes, payloads=payloads)


def open_loop(client: GatewayClient, plan: RequestPlan, offsets: np.ndarray, tracer: Tracer) -> PhaseResult:
    """One open-loop phase with the collector paused (its pauses would stall the sender).

    With a real tracer every request becomes a ``gateway.request`` span
    from its due time to its reply, with three children: the generator's
    lateness, the client-side ``submit`` call, and the wait for the reply
    (wire, queueing and the server's ``detect``, which the client cannot
    see into).
    """
    submitted = np.zeros(offsets.shape[0])

    def submit(index_payload: Tuple[int, np.ndarray]) -> "Future[object]":
        index, payload = index_payload
        future = client.submit(payload)
        submitted[index] = time.perf_counter()
        return future

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        result = run_phase(submit, list(enumerate(plan.payloads)), offsets, drain_timeout_s=DRAIN_TIMEOUT_S)
    finally:
        gc.enable()
        gc.unfreeze()
    for index in np.flatnonzero(result.ok):
        due, sent, done = result.due[index], result.sent[index], result.done[index]
        request = tracer.record("gateway.request", due, done, request_id=int(index))
        tracer.record("loadgen.late", due, sent, parent=request, request_id=int(index))
        tracer.record("gateway.submit", sent, submitted[index], parent=request, request_id=int(index))
        tracer.record("gateway.reply_wait", submitted[index], done, parent=request, request_id=int(index))
    return result


def check_replies(
    phase: PhaseResult, plan: RequestPlan, reference
) -> Tuple[List[int], List[int], float]:
    """Gate every reply against a direct ``detect`` of the same rows.

    Returns each answered request's row count and batch size, and the
    worst relative score difference seen.
    """
    rows, batch_rows, worst = [], [], 0.0
    for index in np.flatnonzero(phase.ok):
        reply = phase.results[index]
        start, size = int(plan.starts[index]), int(plan.sizes[index])
        window = slice(start, start + size)
        if len(reply) != size:
            raise BenchmarkFailure(f"gateway: request {index} sent {size} rows, got {len(reply)}")
        if not np.array_equal(reply.predictions, reference.predictions[window]):
            raise BenchmarkFailure(f"gateway: request {index} predictions differ from detect")
        if list(reply.categories) != list(reference.categories[window]):
            raise BenchmarkFailure(f"gateway: request {index} categories differ from detect")
        close, ratio = scores_close(reply.scores, reference.scores[window])
        if not close:
            raise BenchmarkFailure(f"gateway: request {index} scores differ from detect by {ratio:.3g}")
        worst = max(worst, ratio)
        rows.append(size)
        batch_rows.append(int(reply.batch_rows))
    return rows, batch_rows, worst


def phase_quality(phase: PhaseResult, plan: RequestPlan, labels: np.ndarray) -> Dict[str, float]:
    answered = np.flatnonzero(phase.ok)
    y = np.concatenate([labels[plan.starts[i] : plan.starts[i] + plan.sizes[i]] for i in answered])
    predictions = np.concatenate([phase.results[i].predictions for i in answered])
    scores = np.concatenate([phase.results[i].scores for i in answered])
    return quality(y, predictions, scores)


def gateway_poisson(ctx: Context) -> Outcome:
    train = training_trace()
    state: Dict[str, object] = {}

    def setup(index: int) -> Dict[str, float]:
        if "client" in state:
            state.pop("client").close()  # type: ignore[attr-defined]
        ctx.children.stop_all()
        pipeline, served, fit_s, bundle_s = fit_netsim_bundle(train, ctx.workdir / f"model{index}.json")
        started = time.perf_counter()
        (address,) = ctx.children.start("gateway", ctx.workdir / f"model{index}.json")
        client = GatewayClient(address)
        client.ping()
        start_s = time.perf_counter() - started
        state.update(pipeline=pipeline, detector=served, client=client)
        return {"fit_s": fit_s, "bundle_s": bundle_s, "server_start_s": start_s}

    setup_times = repeat_setup(setup)
    client: GatewayClient = state["client"]  # type: ignore[assignment]
    detector: GhsomDetector = state["detector"]  # type: ignore[assignment]
    try:
        pool, labels = netsim_rows(ctx.seed, state["pipeline"])  # type: ignore[arg-type]
        reference = detector.detect(pool)
        rng = np.random.default_rng(ctx.seed)
        cursor = [0]

        def phase(rate: float, seconds: float, tracer: Tracer):
            offsets = poisson_offsets(rng, rate, seconds)
            plan = request_plan(rng, pool, offsets.shape[0], cursor[0])
            cursor[0] = int(plan.starts[-1] + plan.sizes[-1])
            result = open_loop(client, plan, offsets, tracer)
            rows, batch_rows, worst = check_replies(result, plan, reference)
            return result, plan, rows, batch_rows, worst

        phase(HIGH_RATE, WARMUP_S, NullTracer())  # warm-up, not measured
        if not ctx.trace:
            result, plan, _, _, worst = phase(HIGH_RATE, ctx.seconds, NullTracer())
            answered_rows = np.where(result.ok, plan.sizes, 0)
            summary = windowed_summary(result.due, result.all_latency_ms(), answered_rows, result.start, ctx.seconds)
            e2e = {
                "setup_s": setup_times["setup_s"],
                "records_per_s": summary["records_per_s"],
                "p50_ms": summary["p50_ms"],
                "tail_ms": summary["tail_ms"],
                "tail_percentile": summary["tail_percentile"],
                "peak_rss_mb": rss(ctx.children),
                **phase_quality(result, plan, labels),
            }
            notes = {"rate_per_s": HIGH_RATE, "errors": result.errors, "worst_score_rel_diff": worst}
            return Outcome(result.n_sent, result.n_failed, e2e, notes=notes)

        low, _, _, _, _ = phase(LOW_RATE, TRACED_GATEWAY_S, NullTracer())
        low_summary = latency_summary(low.all_latency_ms())
        base, _, _, _, _ = phase(HIGH_RATE, TRACED_GATEWAY_S, NullTracer())
        tracer = Tracer()
        result, _, rows, batch_rows, _ = phase(HIGH_RATE, TRACED_GATEWAY_S, tracer)
        tracer.write(ctx.trace_path)
        mean_batch = float(np.mean(batch_rows))
        direct = np.ascontiguousarray(pool[: max(1, int(round(mean_batch)))])
        direct_ms = []
        for _ in range(200):
            started = time.perf_counter()
            detector.detect(direct)
            direct_ms.append((time.perf_counter() - started) * 1e3)
        ping_ms = []
        for _ in range(200):
            started = time.perf_counter()
            client.ping()
            ping_ms.append((time.perf_counter() - started) * 1e3)
        submit_us = [span.duration * 1e6 for span in tracer.spans if span.name == "gateway.submit"]
        attempted = low.n_sent + base.n_sent + result.n_sent
        failed = low.n_failed + base.n_failed + result.n_failed
        layers = layer_metrics(
            setup__fit_s=setup_times["fit_s"],
            setup__bundle_s=setup_times["bundle_s"],
            setup__server_start_s=setup_times["server_start_s"],
            gateway__low_p50_ms=low_summary["p50_ms"],
            gateway__low_tail_ms=low_summary["tail_ms"],
            gateway__requests_sent=attempted,
            gateway__requests_ok=attempted - failed,
            gateway__requests_failed=failed,
            gateway__batches=exact_batches(rows, batch_rows),
            gateway__batch_rows_mean=mean_batch,
            gateway__direct_detect_ms=median(direct_ms),
            gateway__submit_us=median(submit_us),
            gateway__slo_rate_per_s=slo_rate(client, rng, pool, reference),
            transport__ping_ms=median(ping_ms),
            loadgen__late_ms=latency_summary(result.late_ms())["tail_ms"],
            trace__overhead_pct=100.0 * (float(np.median(result.latency_ms())) / float(np.median(base.latency_ms())) - 1.0),
            trace__unaccounted_pct=unaccounted_pct(tracer, "gateway.request"),
            trace__spans=len(tracer.spans),
        )
        return Outcome(attempted, failed, {}, layers, {"low_tail_percentile": low_summary["tail_percentile"]})
    finally:
        client.close()


def slo_rate(client: GatewayClient, rng: np.random.Generator, pool: np.ndarray, reference) -> float:
    """Highest ladder rate whose tail meets :data:`SLO_TAIL_MS` with no failures and no backlog.

    Rungs are tried from the lowest; the first that misses ends the climb.
    """
    best = 0.0
    for rate in SLO_LADDER:
        offsets = poisson_offsets(rng, rate, SLO_RUNG_S)
        plan = request_plan(rng, pool, offsets.shape[0], 0)
        result = open_loop(client, plan, offsets, NullTracer())
        check_replies(result, plan, reference)
        latency = result.all_latency_ms()
        percentile = tail_percentile(latency.shape[0])
        tail = float(np.percentile(latency, percentile)) if percentile else np.inf
        backlog_ok = result.backlog_at_end <= rate * SLO_TAIL_MS / 1e3
        if result.n_failed or tail > SLO_TAIL_MS or not backlog_ok:
            break
        best = rate
    return best


# --------------------------------------------------------------------------- #
# stream_online: OnlineDetector over a drifting stream, window by window
# --------------------------------------------------------------------------- #
class TimedDetector:
    """Delegates to a detector and records a span around each ``detect``."""

    def __init__(self, inner: GhsomDetector, tracer: Tracer, stats: List[object]) -> None:
        self._inner = inner
        self._tracer = tracer
        self._stats = stats

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def detect(self, X):
        with self._tracer.span("core.detect"):
            result = self._inner.detect(X)
        self._stats.append(result.stats)
        return result


class TimedDrift(DriftDetector):
    """Delegates to a drift detector and records a span around each ``update_many``."""

    def __init__(self, inner: DriftDetector, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def update(self, value: float) -> bool:
        return self._inner.update(value)

    def update_many(self, values) -> bool:
        with self._tracer.span("streaming.drift"):
            return self._inner.update_many(values)

    def reset(self) -> None:
        self._inner.reset()


def stream_online(ctx: Context) -> Outcome:
    def drifting(seed: int):
        return make_drifting_stream(
            lambda s: KddSyntheticGenerator(random_state=s),
            n_before=STREAM_PHASE,
            n_after=STREAM_PHASE,
            drift_scale=2.5,
            attack_fraction=0.1,
            random_state=seed,
        )

    X_model, y_model, drift_at = drifting(MODEL_SEED)
    calibration = X_model[:drift_at][y_model[:drift_at] == 0][:STREAM_CALIBRATION]
    X, y, _ = drifting(ctx.seed)
    state: Dict[str, object] = {}

    def setup(index: int) -> Dict[str, float]:
        started = time.perf_counter()
        detector = GhsomDetector(default_ghsom_config(), random_state=MODEL_SEED)
        detector.fit(calibration)
        fit_s = time.perf_counter() - started
        started = time.perf_counter()
        path = ctx.workdir / f"stream{index}.json"
        save_detector(detector, path, format="binary")
        state["detector"] = load_detector(path)
        return {"fit_s": fit_s, "bundle_s": time.perf_counter() - started}

    setup_times = repeat_setup(setup)
    detector: GhsomDetector = state["detector"]  # type: ignore[assignment]
    n_windows = -(-X.shape[0] // STREAM_WINDOW)

    drift_events: List[int] = []

    def one_pass(tracer: Tracer, units: Units, stats: List[object], limit: Optional[int], deadline: Optional[float]):
        """A fresh OnlineDetector over the stream, window by window."""
        if isinstance(tracer, NullTracer):
            online = OnlineDetector(detector)
        else:
            online = OnlineDetector(
                TimedDetector(detector, tracer, stats),
                drift_detector=TimedDrift(MeanShiftDetector(), tracer),
            )
        predictions, scores = [], []
        try:
            for index in range(n_windows):
                if (limit is not None and len(units) >= limit) or (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return None
                window = X[index * STREAM_WINDOW : (index + 1) * STREAM_WINDOW]
                started = time.perf_counter()
                with tracer.span("streaming.process", request_id=index):
                    step = online.process(window)
                units.add(index, started, time.perf_counter(), window.shape[0])
                predictions.append(step.predictions)
                scores.append(step.scores)
        finally:
            drift_events.append(online.n_drift_events)
        return y, np.concatenate(predictions), np.concatenate(scores)

    if not ctx.trace:
        units, _, _, first, digest = run_passes("stream_online", one_pass, NullTracer(), seconds=ctx.seconds)
        summary = best_of_passes(units.keys, units.ms, units.records)
        e2e = end_to_end(summary, setup_times["setup_s"], rss(ctx.children), quality(*first))
        return Outcome(len(units), 0, e2e, notes={"scores_sha256": digest, "windows_per_pass": n_windows})

    limit = TRACED_UNITS["stream_online"]
    _, _, base_wall, _, _ = run_passes("stream_online", one_pass, NullTracer(), limit=limit)
    drift_events.clear()
    tracer = Tracer()
    units, stats, wall, _, digest = run_passes("stream_online", one_pass, tracer, limit=limit)
    tracer.write(ctx.trace_path)
    process = tracer.totals().get("streaming.process", {"total_s": 0.0, "self_s": 0.0})
    gap = 100.0 * process["self_s"] / process["total_s"]
    layers = layer_metrics(
        setup__fit_s=setup_times["fit_s"],
        setup__bundle_s=setup_times["bundle_s"],
        core__detect_s=stage_seconds(tracer, "core.detect"),
        **serving_totals(stats),
        streaming__process_s=process["total_s"],
        streaming__drift_s=stage_seconds(tracer, "streaming.drift"),
        streaming__self_s=process["self_s"],
        streaming__windows=len(units),
        streaming__drift_events=sum(drift_events),
        trace__overhead_pct=100.0 * (wall / base_wall - 1.0),
        trace__unaccounted_pct=gap,
        trace__spans=len(tracer.spans),
    )
    return Outcome(len(units), 0, {}, layers, {"scores_sha256": digest})


# --------------------------------------------------------------------------- #
# remote_bulk: 10k-row detect calls on a model sharded over two workers
# --------------------------------------------------------------------------- #
def remote_bulk(ctx: Context) -> Outcome:
    train = training_trace()
    state: Dict[str, object] = {}

    def close_remote() -> None:
        """Close the remote detector's connections before its workers stop."""
        remote = state.pop("remote", None)
        sharded = getattr(remote, "_sharded", None)
        if sharded is not None:
            sharded.close()

    def setup(index: int) -> Dict[str, float]:
        close_remote()
        ctx.children.stop_all()
        bundle = ctx.workdir / f"model{index}.json"
        pipeline, local, fit_s, bundle_s = fit_netsim_bundle(train, bundle)
        started = time.perf_counter()
        addresses = ctx.children.start("shard-worker", bundle, REMOTE_WORKERS)
        for address in addresses:
            connection = WorkerConnection(address)
            try:
                connection.call("ping", timeout=30.0)
            finally:
                connection.close()
        start_s = time.perf_counter() - started
        started = time.perf_counter()
        remote_spec = ",".join(f"{host}:{port}" for host, port in addresses)
        _, remote = load_bundle(bundle, overrides={"shards": REMOTE_SHARDS, "remote_workers": remote_spec})
        bundle_s += time.perf_counter() - started
        state.update(pipeline=pipeline, local=local, remote=remote, addresses=addresses)
        return {"fit_s": fit_s, "bundle_s": bundle_s, "server_start_s": start_s}

    setup_times = repeat_setup(setup)
    local: GhsomDetector = state["local"]  # type: ignore[assignment]
    remote: GhsomDetector = state["remote"]  # type: ignore[assignment]
    try:
        pool, labels = netsim_rows(ctx.seed, state["pipeline"])  # type: ignore[arg-type]
        rng = np.random.default_rng(ctx.seed)
        picks = [rng.choice(pool.shape[0], REMOTE_ROWS, replace=False) for _ in range(REMOTE_BATCHES)]
        batches = [np.ascontiguousarray(pool[rows]) for rows in picks]
        references = [local.detect(batch) for batch in batches]
        remote.detect(batches[0])  # provisions the workers; not measured
        # The live RemoteBackend is reachable only through the sharded engine.
        backend = remote._sharded.backend  # noqa: SLF001

        def measure(tracer: Tracer, *, seconds: Optional[float] = None, limit: Optional[int] = None):
            units = Units()
            stats: List[object] = []
            before = dict(backend.stats)
            deadline = None if seconds is None else units.start + seconds
            index = 0
            while (limit is None or index < limit) and (deadline is None or time.perf_counter() < deadline):
                which = index % REMOTE_BATCHES
                call_started = time.perf_counter()
                with tracer.span("core.detect", request_id=index):
                    result = remote.detect(batches[which])
                units.add(which, call_started, time.perf_counter(), REMOTE_ROWS)
                if result.scores.tobytes() != references[which].scores.tobytes():
                    raise BenchmarkFailure(f"remote_bulk: call {index} scores are not byte-identical to local detect")
                if not np.array_equal(result.leaf_index, references[which].leaf_index):
                    raise BenchmarkFailure(f"remote_bulk: call {index} leaves differ from local detect")
                stats.append(result.stats)
                index += 1
            wall = time.perf_counter() - units.start
            delta = {key: backend.stats[key] - before[key] for key in backend.stats}
            return units, stats, wall, delta

        first = (labels[picks[0]], references[0].predictions, references[0].scores)
        if not ctx.trace:
            units, _, _, delta = measure(NullTracer(), seconds=ctx.seconds)
            summary = windowed_summary(units.at, units.ms, units.records, units.start, ctx.seconds)
            e2e = end_to_end(summary, setup_times["setup_s"], rss(ctx.children), quality(*first))
            if delta["failover_tasks"]:
                raise BenchmarkFailure(f"remote_bulk: {delta['failover_tasks']} tasks failed over to local")
            return Outcome(len(units), 0, e2e, notes={"remote": delta})

        limit = TRACED_UNITS["remote_bulk"]
        _, _, base_wall, _ = measure(NullTracer(), limit=limit)
        tracer = Tracer()
        units, stats, wall, delta = measure(tracer, limit=limit)
        tracer.write(ctx.trace_path)
        serving = serving_totals(stats)
        stage_sum = sum(serving[key] for key in ("core__ingest_s", "core__route_s", "core__descend_s", "core__merge_s"))
        detect_s = stage_seconds(tracer, "core.detect")
        gap = 100.0 * (1.0 - stage_sum / detect_s)
        if gap > RECONCILE_BOUND_PCT:
            raise BenchmarkFailure(f"remote_bulk: stages leave {gap:.1f}% of detect time unexplained")
        attempts = delta["remote_tasks"] + delta["failover_tasks"]
        ping_ms = []
        for address in state["addresses"]:  # type: ignore[attr-defined]
            connection = WorkerConnection(address)
            try:
                for _ in range(100):
                    started = time.perf_counter()
                    connection.call("ping", timeout=30.0)
                    ping_ms.append((time.perf_counter() - started) * 1e3)
            finally:
                connection.close()
        layers = layer_metrics(
            setup__fit_s=setup_times["fit_s"],
            setup__bundle_s=setup_times["bundle_s"],
            setup__server_start_s=setup_times["server_start_s"],
            core__detect_s=detect_s,
            **serving,
            remote__remote_tasks=delta["remote_tasks"],
            remote__failover_tasks=delta["failover_tasks"],
            remote__useful_ratio=delta["remote_tasks"] / attempts if attempts else 0.0,
            remote__provision_value=backend.stats["provision_value"],
            remote__provision_reference=backend.stats["provision_reference"],
            remote__connects=backend.stats["connects"],
            transport__ping_ms=median(ping_ms),
            trace__overhead_pct=100.0 * (wall / base_wall - 1.0),
            trace__unaccounted_pct=gap,
            trace__spans=len(tracer.spans),
        )
        return Outcome(len(units), 0, {}, layers, {"remote": delta})
    finally:
        close_remote()


#: Every per-layer metric and its unit; each workload reports all of them.
PER_LAYER = {
    "setup.fit_s": "s",
    "setup.bundle_s": "s",
    "setup.server_start_s": "s",
    "netsim.simulate_s": "s",
    "netsim.extract_s": "s",
    "data.transform_s": "s",
    "core.detect_s": "s",
    "core.detect_calls": "count",
    "core.detect_rows": "count",
    "core.ingest_s": "s",
    "core.route_s": "s",
    "core.descend_s": "s",
    "core.merge_s": "s",
    "streaming.process_s": "s",
    "streaming.drift_s": "s",
    "streaming.self_s": "s",
    "streaming.windows": "count",
    "streaming.drift_events": "count",
    "gateway.low_p50_ms": "ms",
    "gateway.low_tail_ms": "ms",
    "gateway.requests_sent": "count",
    "gateway.requests_ok": "count",
    "gateway.requests_failed": "count",
    "gateway.batches": "count",
    "gateway.batch_rows_mean": "rows",
    "gateway.direct_detect_ms": "ms",
    "gateway.submit_us": "us",
    "gateway.slo_rate_per_s": "1/s",
    "transport.ping_ms": "ms",
    "remote.remote_tasks": "count",
    "remote.failover_tasks": "count",
    "remote.useful_ratio": "ratio",
    "remote.provision_value": "count",
    "remote.provision_reference": "count",
    "remote.connects": "count",
    "loadgen.late_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unaccounted_pct": "%",
    "trace.spans": "count",
}

WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "trace_replay": trace_replay,
    "gateway_poisson": gateway_poisson,
    "stream_online": stream_online,
    "remote_bulk": remote_bulk,
}
