"""Sharded-serving benchmark — root-subtree shards behind the batch router.

Measures the sharded engine of :mod:`repro.serving` against the unsharded
compiled engine on a repeated batch workload (10k records per batch in the
full run) and writes the results to ``BENCH_sharded.json`` at the repository
root:

* **equivalence** — every configuration's scores must be byte-identical to
  the unsharded float64 engine (this is the hard gate: sharding is an
  execution-plan change, not an approximation);
* **overhead** — the serial sharded path vs the unsharded engine isolates
  the routing + merge cost;
* **parallel throughput** — the thread and process backends at K ∈ {2, 4, 8}
  shards.  Parallel speedup obviously needs cores: the run records the
  machine's usable CPU count, and the pytest gate only demands the >= 1.5x
  speedup at K >= 4 when at least 4 usable cores exist (on smaller machines
  it still gates byte-identity and bounded overhead).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded.py          # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick  # fast

or under pytest (quick mode)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py -s
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    BENCH_SEED,
    blas_threads_env,
    default_ghsom_config,
    time_best,
    usable_cpus,
)

from repro.core import GhsomDetector
from repro.core import kernels
from repro.core.serialization import write_json_atomic
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.eval.tables import format_table
from repro.serving import ShardedGhsom, subtrees_from_compiled

#: Where the machine-readable results land (repo root, next to CHANGES.md).
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"

N_TRAIN = 4000
#: The acceptance workload: one batch, scored repeatedly.
FULL_BATCH_SIZE = 10000
QUICK_BATCH_SIZE = 2000

#: (backend, n_shards, workers) configurations measured against the
#: unsharded baseline.  Worker counts are explicit for every pooled config:
#: a ``None`` here would silently mean "usable cores", which on a small
#: machine under-provisions the K=8 row and mis-reports the parallelism the
#: numbers were measured at.
FULL_CONFIGS = (
    ("serial", 4, None),
    ("thread", 2, 2),
    ("thread", 4, 4),
    ("thread", 8, 8),
    ("process", 4, 4),
)
QUICK_CONFIGS = (
    ("serial", 4, None),
    ("thread", 4, 4),
)


def run_benchmark(
    quick: bool = False,
    output_path: Path = OUTPUT_PATH,
    batch_size: int = 0,
) -> Dict[str, object]:
    """Fit one detector, then race the sharded configurations on one batch."""
    batch_size = batch_size or (QUICK_BATCH_SIZE if quick else FULL_BATCH_SIZE)
    n_train = 1500 if quick else N_TRAIN
    repeats = 3 if quick else 5
    configs = QUICK_CONFIGS if quick else FULL_CONFIGS

    generator = KddSyntheticGenerator(random_state=BENCH_SEED)
    train = generator.generate(n_train)
    test = generator.generate(batch_size)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    batch = pipeline.transform(test)
    overrides = {"tau2": 0.03, "min_samples_for_expansion": 25} if quick else {}
    detector = GhsomDetector(default_ghsom_config(**overrides), random_state=BENCH_SEED)
    detector.fit(X_train, [str(category) for category in train.categories])
    compiled = detector.model.compile()
    n_subtrees = len(subtrees_from_compiled(compiled))

    # Unsharded single-process baseline (warmed before timing).
    reference = compiled.assign_arrays(batch)
    baseline_seconds = time_best(lambda: compiled.assign_arrays(batch), repeats)

    rows: List[Dict[str, object]] = []

    def measure(backend, n_shards, workers, compute_engine=None):
        engine = ShardedGhsom.from_compiled(
            compiled, n_shards, backend=backend, workers=workers, engine=compute_engine
        )
        try:
            leaf, dist = engine.assign_arrays(batch)  # also warms pools
            identical = bool(
                np.array_equal(leaf, reference[0]) and np.array_equal(dist, reference[1])
            )
            seconds = time_best(lambda: engine.assign_arrays(batch), repeats)
            rows.append(
                {
                    "backend": backend,
                    "engine": compute_engine or "numpy",
                    "n_shards_requested": n_shards,
                    "n_shards_effective": engine.n_shards,
                    "workers": engine.backend.workers,
                    "seconds": seconds,
                    "records_per_second": batch_size / max(seconds, 1e-12),
                    "speedup_vs_unsharded": baseline_seconds / max(seconds, 1e-12),
                    "byte_identical": identical,
                    # The fused engine's contract is leaf-exact + bounded
                    # distance drift, not byte identity; record both so the
                    # gates can be engine-appropriate.
                    "leaves_identical": bool(np.array_equal(leaf, reference[0])),
                }
            )
        finally:
            engine.close()

    for backend, n_shards, workers in configs:
        measure(backend, n_shards, workers)
    # One fused row: the same serial shard layout with each shard's descent
    # running the fused kernel (skipped when no provider serves this
    # metric/dtype — e.g. a host without a C compiler).
    if kernels.fused_supported(metric=compiled.metric, dtype=compiled.dtype):
        measure("serial", 4, None, compute_engine="fused")

    payload = {
        "benchmark": "sharded_serving",
        "quick": quick,
        "seed": BENCH_SEED,
        "n_train": n_train,
        "batch_size": batch_size,
        "n_cpus": usable_cpus(),
        # Parallel speedup is only meaningful against a single-threaded
        # baseline; CI pins these to 1 for the gate run.
        "blas_threads_env": blas_threads_env(),
        "topology": compiled.describe(),
        "n_root_subtrees": n_subtrees,
        "unsharded": {
            "seconds": baseline_seconds,
            "records_per_second": batch_size / max(baseline_seconds, 1e-12),
        },
        "sharded": rows,
    }
    write_json_atomic(payload, output_path)
    return payload


def print_report(payload: Dict[str, object]) -> None:
    """Render the JSON payload as the usual benchmark tables."""
    unsharded = payload["unsharded"]
    print(
        format_table(
            [
                [
                    row["backend"],
                    row.get("engine", "numpy"),
                    f"{row['n_shards_effective']}/{row['n_shards_requested']}",
                    row["workers"],
                    row["seconds"],
                    int(row["records_per_second"]),
                    round(row["speedup_vs_unsharded"], 2),
                    "yes" if row["byte_identical"] else "NO",
                ]
                for row in payload["sharded"]
            ],
            ["backend", "engine", "shards", "workers", "seconds", "rec/s", "speedup", "identical"],
            title=(
                f"Sharded serving on a {payload['batch_size']}-record batch "
                f"({payload['n_cpus']} usable CPUs; unsharded baseline "
                f"{int(unsharded['records_per_second'])} rec/s)"
            ),
        )
    )


def test_sharded_benchmark(tmp_path):
    """Quick-mode run under pytest: the acceptance gates for sharded serving.

    Writes its JSON to a temp dir so the committed full-run
    ``BENCH_sharded.json`` is never overwritten by a quick pass (use the CLI
    to refresh the real artifact).
    """
    payload = run_benchmark(quick=True, output_path=tmp_path / "BENCH_sharded.json")
    print()
    print_report(payload)
    # Hard gate: every numpy configuration reproduces the unsharded engine
    # exactly; a fused row only promises exact leaves (distances carry the
    # documented kernel drift).
    for row in payload["sharded"]:
        if row.get("engine", "numpy") == "numpy":
            assert row["byte_identical"], row
        else:
            assert row["leaves_identical"], row
    # The routing + merge machinery must not dominate: the serial sharded
    # path stays within 2.5x of the unsharded engine on this small workload.
    serial_rows = [row for row in payload["sharded"] if row["backend"] == "serial"]
    for row in serial_rows:
        assert row["speedup_vs_unsharded"] > 0.4, row
    # Parallel speedup needs parallel hardware: demand the 1.5x only when the
    # machine actually has >= 4 usable cores (CI runners do; a 1-core
    # container cannot speed up a compute-bound workload by threading).  The
    # speedup run uses the full-size batch so per-shard GEMMs dominate
    # dispatch overhead — the quick batch above only gates correctness.
    if usable_cpus() >= 4:
        # One retry absorbs a transiently loaded shared runner; a genuine
        # parallel-scaling regression fails on both attempts.
        best = 0.0
        for attempt in range(2):
            speedup_payload = run_benchmark(
                quick=True,
                output_path=tmp_path / f"BENCH_sharded_speedup_{attempt}.json",
                batch_size=FULL_BATCH_SIZE,
            )
            print()
            print_report(speedup_payload)
            for row in speedup_payload["sharded"]:
                if row.get("engine", "numpy") == "numpy":
                    assert row["byte_identical"], row
                else:
                    assert row["leaves_identical"], row
            best = max(
                best,
                max(
                    (
                        row["speedup_vs_unsharded"]
                        for row in speedup_payload["sharded"]
                        if row["backend"] != "serial"
                        and row["n_shards_effective"]
                        >= min(4, speedup_payload["n_root_subtrees"])
                    ),
                    default=0.0,
                ),
            )
            if best >= 1.5:
                break
        assert best >= 1.5, (
            f"expected >= 1.5x sharded speedup on {usable_cpus()} CPUs, got {best:.2f}x"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes, fewer repeats")
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args()
    payload = run_benchmark(quick=args.quick, output_path=args.output)
    print_report(payload)
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
