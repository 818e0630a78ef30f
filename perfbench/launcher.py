"""Child-process entry point: serve one bundle until the parent goes away.

Usage (spawned by :mod:`children`, never by hand)::

    python3 perfbench/launcher.py gateway BUNDLE.json
    python3 perfbench/launcher.py shard-worker BUNDLE.json

The launcher builds a :class:`~repro.serving.gateway.DetectionGateway` or a
:class:`~repro.serving.remote.ShardWorkerServer` on an ephemeral loopback
port, prints ``ready HOST PORT`` on stdout and then blocks reading its
stdin.  The parent holds the write end of that pipe and never writes to
it, so the read returns only when the parent closes the pipe or dies; the
kernel closes the pipe even when the parent is killed with SIGKILL.  On
that end-of-file the launcher shuts the server down and exits 0, so no
server outlives the benchmark that started it.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list) -> int:
    if len(argv) != 2 or argv[0] not in ("gateway", "shard-worker"):
        print("usage: launcher.py {gateway|shard-worker} BUNDLE.json", file=sys.stderr)
        return 2
    role, bundle = argv[0], Path(argv[1])
    if role == "gateway":
        from repro.cli import load_bundle
        from repro.serving.gateway import DetectionGateway

        _, detector = load_bundle(bundle)
        server = DetectionGateway(detector, "127.0.0.1", 0)
    else:
        from repro.serving.remote import ShardWorkerServer

        server = ShardWorkerServer("127.0.0.1", 0, model_path=bundle)
    server.start()
    try:
        host, port = server.address
        print(f"ready {host} {port}", flush=True)
        sys.stdin.buffer.read()  # returns at EOF: the parent closed the pipe or died
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
