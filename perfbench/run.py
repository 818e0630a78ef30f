"""Repository benchmark: the GHSOM detector from raw traffic to alarms.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trace_replay --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer call and prints the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness gate prints that line with ``"correct": false`` and exits 1;
a run that cannot start (for example without the ``src/`` tree) exits 2
without printing a result.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything the benchmark writes stays under this directory of the checkout.
OUTPUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "auc": "ratio",
    "detection_rate": "ratio",
    "specificity": "ratio",
}


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    # BLAS pools size themselves when numpy loads, so the pinning must be in
    # the environment before the first numpy import, here and in every child.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "common.py").is_file():
        print(f"perfbench: no src/repro or benchmarks/common.py under {ROOT}", file=sys.stderr)
        return 2
    OUTPUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUTPUT_DIR))
    # Temporary files of the program (e.g. a compiled kernel) stay in the checkout too.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    import workloads  # needs the paths above and the pinned environment
    from children import ChildGroup, child_env

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    children = ChildGroup(child_env(ROOT, workdir))
    trace_path = OUTPUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    ctx = workloads.Context(workdir, args.seed, args.seconds, bool(args.trace), children, trace_path)
    outcome = None
    failure = None
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except workloads.BenchmarkFailure as exc:
        failure = str(exc)
    finally:
        children.close()
    if failure is not None:
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        shutil.rmtree(workdir, ignore_errors=True)
        return 1

    from common import runtime_provenance

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "end_to_end": outcome.end_to_end,
        "per_layer": outcome.per_layer,
        "notes": outcome.notes,
        "provenance": runtime_provenance(),
    }
    (OUTPUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str)
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = {name: {"value": outcome.per_layer[name], "unit": unit} for name, unit in workloads.PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome.end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report, and exit without a result line
        traceback.print_exc()
        sys.exit(2)
