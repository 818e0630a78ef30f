"""Pytest configuration for the paper's table and figure benchmarks.

Each ``bench_*.py`` test rebuilds one table or figure, prints it, and asserts
the claims the paper makes about it.  Run them from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q

(add ``-s`` to see the printed tables).  Where pytest-benchmark is not
installed, or is disabled with ``-p no:benchmark``, a stand-in ``benchmark``
fixture runs the function once and returns its result, so the claims are
checked either way; with the plugin active its own fixture times the call.

Every table and series a test prints is also written, as numbers, to
``.perfbench/paper-<name>.json`` (``<name>`` is the file name without its
``bench_`` prefix).  ``python benchmarks/paper_digest.py`` reduces those
files to one SHA-256, so a change that moves any reported number shows.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np
import pytest

from repro.core.serialization import write_json_atomic

#: Where the recorded tables land: the repository's ``.perfbench/``.
PAPER_DIR = Path(__file__).resolve().parents[1] / ".perfbench"

#: Tables recorded so far, per benchmark module.
_recorded: Dict[str, List[Dict[str, object]]] = {}


class RunOnce:
    """Call a function once and hand back its result.

    Mirrors the two call shapes the benchmarks use, ``benchmark(fn)`` and
    ``benchmark.pedantic(fn, rounds=..., iterations=...)``; the round and
    iteration counts are accepted and ignored.
    """

    def __call__(self, function: Callable[[], Any]) -> Any:
        return function()

    def pedantic(self, function: Callable[[], Any], rounds: int = 1, iterations: int = 1) -> Any:
        return function()


class _RunOncePlugin:
    """Provides the stand-in fixture; pytest-benchmark refuses a shadowing one."""

    @pytest.fixture
    def benchmark(self) -> RunOnce:
        return RunOnce()


def pytest_configure(config: pytest.Config) -> None:
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_RunOncePlugin(), "benchmark-run-once")


def _cell(value: object) -> object:
    return value.item() if isinstance(value, np.generic) else value


def _record_table(tables, format_table):
    @functools.wraps(format_table)
    def recording(rows, headers, *, title=None, **kwargs):
        tables.append({
            "title": title,
            "headers": [str(header) for header in headers],
            "rows": [[_cell(cell) for cell in row] for row in rows],
        })
        return format_table(rows, headers, title=title, **kwargs)

    return recording


def _record_series(tables, format_series):
    @functools.wraps(format_series)
    def recording(x_values, y_series, *, x_label="x", title=None, **kwargs):
        columns = [list(x_values)] + [list(series) for series in y_series.values()]
        tables.append({
            "title": title,
            "headers": [x_label, *map(str, y_series)],
            "rows": [
                [_cell(column[index]) if index < len(column) else None for column in columns]
                for index in range(len(columns[0]))
            ],
        })
        return format_series(x_values, y_series, x_label=x_label, title=title, **kwargs)

    return recording


@pytest.fixture(autouse=True)
def record_paper_tables(request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch):
    """Record what the test prints into ``.perfbench/paper-<name>.json``."""
    module = request.module
    name = module.__name__.split(".")[-1].removeprefix("bench_")
    tables = _recorded.setdefault(name, [])
    for attribute, recorder in (
        ("format_table", _record_table),
        ("format_series", _record_series),
    ):
        if hasattr(module, attribute):
            monkeypatch.setattr(module, attribute, recorder(tables, getattr(module, attribute)))
    yield
    PAPER_DIR.mkdir(exist_ok=True)
    write_json_atomic({"name": name, "tables": tables}, PAPER_DIR / f"paper-{name}.json")
