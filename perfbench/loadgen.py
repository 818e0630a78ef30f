"""Open-loop load generation: requests leave on a fixed schedule, not on replies.

A phase sends request ``i`` at ``start + offsets[i]`` whether or not earlier
requests were answered, so a stalled server meets a growing queue, as it
would with independent users.  Each request is timed from its *due* time,
which charges a stall to every request it delayed, and the generator's own
lateness (send time minus due time) is kept beside it.  Refused, failed and
unanswered requests count as failures, and a failure misses every latency
limit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

#: Sleep only when the next request is at least this far away (seconds);
#: shorter gaps are sent immediately, so the generator never spins a core.
_MIN_SLEEP_S = 100e-6


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process at ``rate``."""
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(np.sqrt(expected) + 8))
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


@dataclass
class PhaseResult:
    """What one open-loop phase sent and got back."""

    start: float  # absolute perf_counter time of offset zero
    due: np.ndarray  # absolute perf_counter due time per request
    sent: np.ndarray  # absolute perf_counter send time per request
    done: np.ndarray  # absolute perf_counter completion time (nan if unanswered)
    ok: np.ndarray  # bool per request
    drain_timeout_s: float
    results: List[object] = field(repr=False, default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)
    #: Requests sent but not answered when the send window closed.
    backlog_at_end: int = 0

    @property
    def n_sent(self) -> int:
        return int(self.due.shape[0])

    @property
    def n_ok(self) -> int:
        return int(self.ok.sum())

    @property
    def n_failed(self) -> int:
        return self.n_sent - self.n_ok

    def latency_ms(self) -> np.ndarray:
        """Due-time latency of every answered request, in ms."""
        return due_time_latency_ms(self.due[self.ok], self.done[self.ok])

    def all_latency_ms(self) -> np.ndarray:
        """Due-time latency of every request sent, in ms.

        A failed request misses every latency limit: it counts as having
        taken until the phase gave up on it (last send plus the drain
        timeout).
        """
        latency = (self.sent.max() + self.drain_timeout_s - self.due) * 1e3
        latency[self.ok] = self.latency_ms()
        return latency

    def late_ms(self) -> np.ndarray:
        """Generator lateness (send minus due) of every request, in ms."""
        return (self.sent - self.due) * 1e3


def due_time_latency_ms(due: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Latency measured from when a request was due, not from when it was sent."""
    return (np.asarray(done, dtype=float) - np.asarray(due, dtype=float)) * 1e3


def run_phase(
    submit: Callable[[object], "Future[object]"],
    payloads: Sequence[object],
    offsets: np.ndarray,
    *,
    drain_timeout_s: float,
) -> PhaseResult:
    """Send ``payloads[i]`` at ``offsets[i]`` through ``submit`` and collect replies.

    ``submit`` returns a future; its completion callback stamps the reply
    time.  After the last send the phase waits up to ``drain_timeout_s`` for
    outstanding replies; a request still unanswered then is a failure.
    """
    n = int(offsets.shape[0])
    due = np.empty(n)
    sent = np.empty(n)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    results: List[object] = [None] * n
    errors: Dict[str, int] = {}
    lock = threading.Lock()
    answered = [0]
    all_answered = threading.Event()

    def on_done(future: "Future[object]", index: int) -> None:
        finished = time.perf_counter()
        error = future.exception()
        with lock:
            done[index] = finished
            if error is None:
                ok[index] = True
                results[index] = future.result()
            else:
                key = type(error).__name__
                errors[key] = errors.get(key, 0) + 1
            answered[0] += 1
            if answered[0] == n:
                all_answered.set()

    start = time.perf_counter() + 0.005
    due[:] = start + offsets
    futures = []
    for index in range(n):
        gap = due[index] - time.perf_counter()
        if gap > _MIN_SLEEP_S:
            time.sleep(gap)
        sent[index] = time.perf_counter()
        try:
            future = submit(payloads[index])
        except Exception as exc:  # noqa: BLE001 - a refused send is a failed request
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(lambda f, i=index: on_done(f, i))
        futures.append(future)
    with lock:
        backlog = n - answered[0]
    if n == 0:
        all_answered.set()
    all_answered.wait(timeout=drain_timeout_s)
    with lock:
        unanswered = n - answered[0]
        if unanswered:
            errors["Unanswered"] = unanswered
    return PhaseResult(
        start=start,
        due=due,
        sent=sent,
        done=done.copy(),
        ok=ok.copy(),
        drain_timeout_s=drain_timeout_s,
        results=list(results),
        errors=dict(errors),
        backlog_at_end=backlog,
    )
