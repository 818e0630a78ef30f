"""In-memory spans recorded around calls into the program's layers.

The benchmark records spans only from its own code, at the boundary of
each public call it makes; the program itself is not instrumented.  Spans
stay in memory while the workload runs and are written out once at the
end.  A span's *self time* is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the parent of a span is the innermost open span on its thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, time.perf_counter(), 0.0, parent, request_id))
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            self.spans[span_id].end = time.perf_counter()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> int:
        """Add a span measured elsewhere (for example a request timed by callbacks)."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, start, end, parent, request_id))
        return span_id

    def self_times(self) -> Dict[int, float]:
        """Self time of every span: its duration minus the union of its children."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.duration - covered
        return result

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time (seconds)."""
        self_time = self.self_times()
        summary: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            entry = summary.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += self_time[span.span_id]
        return summary

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        self_time = self.self_times()
        with path.open("w") as stream:
            for span in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request_id": span.request_id,
                            "self_s": self_time[span.span_id],
                        }
                    )
                    + "\n"
                )


class NullTracer(Tracer):
    """The untraced run's tracer: every span is a no-op."""

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        yield

    def record(self, name: str, start: float, end: float, **_: object) -> int:
        return -1
