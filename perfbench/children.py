"""Server child processes that cannot outlive the benchmark.

Every gateway and shard worker runs under ``launcher.py``, which exits when
its stdin reaches end-of-file.  :class:`ChildGroup` owns the write ends of
those pipes: :meth:`ChildGroup.close` closes them, waits, then escalates to
terminate and kill, and finally checks that no child is still alive.  If
the benchmark itself is killed, the kernel closes the pipes and the
launchers shut down on their own.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: Seconds a child may take to print its ``ready`` line (imports + load).
START_TIMEOUT_S = 60.0
#: Seconds a child gets to exit after its stdin closes, then after SIGTERM.
STOP_GRACE_S = 5.0


class ChildError(RuntimeError):
    """A server child failed to start or could not be stopped."""


class Child:
    """One launcher process serving ``role`` on an ephemeral port."""

    def __init__(self, role: str, bundle: Path, env: dict) -> None:
        self.role = role
        self.process = subprocess.Popen(
            [sys.executable, str(LAUNCHER), role, str(bundle)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self.address: Optional[Tuple[str, int]] = None

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, deadline: float) -> Tuple[str, int]:
        """Block until the child printed ``ready HOST PORT``; return the address."""
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline().decode(errors="replace").split()
            if not line:
                raise ChildError(
                    f"{self.role} child exited with code {self.process.wait()} before it was ready"
                )
            if len(line) == 3 and line[0] == "ready":
                self.address = (line[1], int(line[2]))
                return self.address
        raise ChildError(f"{self.role} child not ready after {START_TIMEOUT_S} s")

    def stop(self) -> None:
        """Close stdin (the launcher's shutdown signal), then terminate, then kill."""
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        for escalate in (None, self.process.terminate, self.process.kill):
            if escalate is not None:
                escalate()
            try:
                self.process.wait(timeout=STOP_GRACE_S)
                return
            except subprocess.TimeoutExpired:
                continue
        self.process.wait()


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live, non-zombie process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stream:
            state = stream.read().rsplit(b")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in (b"Z", b"X")


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
    return total_kb / 1024.0


class ChildGroup:
    """Starts server children and guarantees that all of them are gone at close."""

    def __init__(self, env: dict) -> None:
        self._env = env
        self.children: List[Child] = []
        self.started_pids: List[int] = []

    def start(self, role: str, bundle: Path, count: int = 1) -> List[Tuple[str, int]]:
        """Start ``count`` children concurrently and wait until all are ready."""
        batch = [Child(role, bundle, self._env) for _ in range(count)]
        self.children.extend(batch)
        self.started_pids.extend(child.pid for child in batch)
        deadline = time.monotonic() + START_TIMEOUT_S
        return [child.wait_ready(deadline) for child in batch]

    def live_pids(self) -> List[int]:
        return [child.pid for child in self.children]

    def stop_all(self) -> None:
        while self.children:
            self.children.pop().stop()

    def close(self) -> None:
        """Stop every child, then fail loudly if any started child survived."""
        self.stop_all()
        survivors = [pid for pid in self.started_pids if pid_alive(pid)]
        if survivors:
            raise ChildError(f"server children still alive after shutdown: {survivors}")


def child_env(root: Path, tmp_dir: Path) -> dict:
    """The benchmark's (BLAS-pinned) environment plus the source tree on the path and temp in the checkout."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    src = str(root / "src")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    env["TMPDIR"] = str(tmp_dir)
    return env
