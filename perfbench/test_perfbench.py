"""Tests of the benchmark's own logic (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from children import ChildGroup, child_env, pid_alive
from loadgen import due_time_latency_ms, poisson_offsets, run_phase
from spans import Tracer
from stats import WINDOWS, best_of_passes, exact_batches, latency_summary, samples_beyond, tail_percentile, windowed_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# --------------------------------------------------------------------------- #
# tail percentile selection
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10**6, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_latency_summary_reports_percentile_and_count():
    values = np.arange(1, 1001, dtype=float)
    summary = latency_summary(values)
    assert summary["tail_percentile"] == 99.0
    assert summary["n"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert np.sum(values > summary["tail_ms"]) == 10


def test_latency_summary_refuses_too_few_samples():
    with pytest.raises(ValueError):
        latency_summary([1.0] * 19)


def test_windowed_summary_takes_medians_over_time_windows():
    # one-second windows of 100 units; one window holds a stall that must not move the medians
    at = np.concatenate([np.linspace(w + 0.01, w + 0.99, 100) for w in range(WINDOWS)])
    latency = np.ones(100 * WINDOWS)
    latency[200:300] = 50.0
    summary = windowed_summary(at, latency, np.ones(100 * WINDOWS, dtype=int), 0.0, float(WINDOWS))
    assert summary["p50_ms"] == 1.0 and summary["tail_ms"] == 1.0
    assert summary["tail_percentile"] == 90.0  # 100 samples per window
    assert summary["records_per_s"] == pytest.approx(100.0)


def test_best_of_passes_keeps_each_units_fastest_repetition():
    # 40 units of 10 records; unit k takes k+1 ms at full speed.  The first
    # pass runs 1.7x slower throughout, the second is slow for half its units.
    full = np.arange(1, 41, dtype=float)
    slow = full * 1.7
    passes = [slow, np.where(np.arange(40) < 20, slow, full), np.where(np.arange(40) < 20, full, slow)]
    keys = np.tile(np.arange(40), 3)
    summary = best_of_passes(keys, np.concatenate(passes), np.full(120, 10))
    assert summary["p50_ms"] == pytest.approx(20.5)
    assert summary["tail_percentile"] == 75.0 and summary["tail_ms"] == pytest.approx(np.percentile(full, 75.0))
    assert summary["records_per_s"] == pytest.approx(400 / (full.sum() / 1e3))


def test_best_of_passes_refuses_units_that_change_between_passes():
    with pytest.raises(ValueError):
        best_of_passes([0, 0], [1.0, 1.0], [10, 11])


# --------------------------------------------------------------------------- #
# batch counting
# --------------------------------------------------------------------------- #
def test_exact_batches_counts_each_coalesced_batch_once():
    # batches of 5 rows (1+4), 1 row, and 6 rows (2+2+1+1)
    rows = [1, 4, 1, 2, 2, 1, 1]
    batch_rows = [5, 5, 1, 6, 6, 6, 6]
    assert exact_batches(rows, batch_rows) == pytest.approx(3.0)


def test_exact_batches_rejects_inconsistent_input():
    with pytest.raises(ValueError):
        exact_batches([3], [2])
    with pytest.raises(ValueError):
        exact_batches([1, 1], [1])


# --------------------------------------------------------------------------- #
# open loop: due-time latency and honest accounting
# --------------------------------------------------------------------------- #
def test_due_time_latency_counts_the_wait_before_sending():
    due = np.array([10.0, 10.001])
    done = np.array([10.002, 10.004])
    assert due_time_latency_ms(due, done) == pytest.approx([2.0, 3.0])


def test_poisson_offsets_are_seeded_and_bounded():
    first = poisson_offsets(np.random.default_rng(3), 1000.0, 2.0)
    again = poisson_offsets(np.random.default_rng(3), 1000.0, 2.0)
    assert np.array_equal(first, again)
    assert np.all(np.diff(first) > 0) and first[-1] < 2.0
    assert 1800 < first.shape[0] < 2200


def test_run_phase_times_from_due_and_counts_failures():
    """A server that stalls 30 ms charges the stall to the request that was due."""

    def submit(payload):
        future: Future = Future()
        if payload == "fail":
            future.set_exception(RuntimeError("refused"))
        elif payload == "stall":
            time.sleep(0.03)  # the generator itself is held up
            future.set_result(payload)
        else:
            future.set_result(payload)
        return future

    payloads = ["ok", "stall", "ok", "fail", "ok"]
    offsets = np.array([0.0, 0.001, 0.002, 0.003, 0.004])
    result = run_phase(submit, payloads, offsets, drain_timeout_s=1.0)
    assert result.n_sent == 5 and result.n_ok == 4 and result.n_failed == 1
    assert result.errors == {"RuntimeError": 1}
    # the failed request counts as having waited out the drain timeout
    assert result.all_latency_ms()[3] >= 1000.0
    latency = result.latency_ms()
    # requests due during the stall are late and their latency includes it
    assert latency[2] > 20.0 and latency[0] < 20.0
    assert result.late_ms()[2] > 20.0


def test_run_phase_counts_unanswered_requests_as_failed():
    result = run_phase(lambda payload: Future(), [1, 2], np.array([0.0, 0.001]), drain_timeout_s=0.05)
    assert result.n_failed == 2
    assert result.errors == {"Unanswered": 2}
    assert result.backlog_at_end == 2


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_covered_child_intervals():
    tracer = Tracer()
    root = tracer.record("root", 0.0, 10.0)
    tracer.record("a", 1.0, 4.0, parent=root)
    tracer.record("b", 3.0, 6.0, parent=root)  # overlaps a: union is 1..6
    tracer.record("c", 9.0, 12.0, parent=root)  # runs past the parent's end
    assert tracer.self_times()[root] == pytest.approx(10.0 - 5.0 - 1.0)
    totals = tracer.totals()
    assert totals["root"]["count"] == 1 and totals["a"]["total_s"] == pytest.approx(3.0)


def test_nested_span_contexts_record_parents():
    tracer = Tracer()
    with tracer.span("outer", request_id=7):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert outer.request_id == 7


# --------------------------------------------------------------------------- #
# no server child outlives the benchmark
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory) -> Path:
    from repro.core import GhsomConfig, GhsomDetector
    from repro.core.serialization import save_detector

    detector = GhsomDetector(GhsomConfig(max_depth=1, max_growth_rounds=2), random_state=0)
    detector.fit(np.random.default_rng(0).random((200, 4)))
    path = tmp_path_factory.mktemp("model") / "detector.json"
    save_detector(detector, path, format="binary")
    return path


def wait_dead(pid: int, timeout_s: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not pid_alive(pid):
            return True
        time.sleep(0.05)
    return False


def test_close_stops_every_child(tiny_model, tmp_path):
    group = ChildGroup(child_env(ROOT, tmp_path))
    group.start("shard-worker", tiny_model, 2)
    pids = list(group.started_pids)
    assert all(pid_alive(pid) for pid in pids)
    group.close()
    assert not any(pid_alive(pid) for pid in pids)


def test_children_exit_when_the_parent_is_killed(tiny_model, tmp_path):
    """SIGKILL leaves no cleanup code to run; the closed stdin pipe must suffice."""
    parent_code = textwrap.dedent(
        f"""
        import json, sys, time
        sys.path.insert(0, {str(HERE)!r})
        from pathlib import Path
        from children import ChildGroup, child_env
        group = ChildGroup(child_env(Path({str(ROOT)!r}), Path({str(tmp_path)!r})))
        group.start("shard-worker", Path({str(tiny_model)!r}), 2)
        print(json.dumps(group.started_pids), flush=True)
        time.sleep(600)
        """
    )
    parent = subprocess.Popen([sys.executable, "-c", parent_code], stdout=subprocess.PIPE, text=True, env=dict(os.environ))
    try:
        pids = json.loads(parent.stdout.readline())
        assert len(pids) == 2 and all(pid_alive(pid) for pid in pids)
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        assert all(wait_dead(pid) for pid in pids), "a launcher outlived its killed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()


# --------------------------------------------------------------------------- #
# the benchmark definition matches what the code prints
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_metrics_the_code_reports():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
