"""Pytest configuration for the paper's table and figure benchmarks.

Each ``bench_*.py`` test rebuilds one table or figure, prints it, and asserts
the claims the paper makes about it.  Run them from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q

(add ``-s`` to see the printed tables).  Where pytest-benchmark is not
installed, or is disabled with ``-p no:benchmark``, a stand-in ``benchmark``
fixture runs the function once and returns its result, so the claims are
checked either way; with the plugin active its own fixture times the call.
"""

from __future__ import annotations

from typing import Any, Callable

import pytest


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
