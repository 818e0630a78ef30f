"""Inference throughput — legacy recursive vs compiled flat-array scoring.

Times end-to-end batch scoring (``GhsomDetector.score_samples``) through the
compiled inference engine (:mod:`repro.core.compiled`) against the
pre-compilation reference path (recursive descent materialising one
``LeafAssignment`` per record, per-sample threshold lookups and label
folding), across GHSOM sizes and batch sizes, and writes the measurements to
``BENCH_inference.json`` at the repository root so future PRs can compare
against the recorded trajectory.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_inference.py          # full
    PYTHONPATH=src python benchmarks/bench_perf_inference.py --quick  # fast

or under pytest (quick mode)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_inference.py -s
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import BENCH_SEED, default_ghsom_config, runtime_provenance, time_best

from repro.core import GhsomDetector
from repro.core import kernels
from repro.core.labeling import UNLABELED
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.eval.tables import format_table

#: Where the machine-readable results land (repo root, next to CHANGES.md).
OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_inference.json"

N_TRAIN = 4000

#: (name, config overrides) — both produce >= 3-level hierarchies on the
#: full-size synthetic KDD workload; "wide" is the evaluation-scale tree,
#: "compact" the test-fixture-scale one.
CONFIGS = (
    ("wide_depth3", {}),
    ("compact_depth3", {"max_map_size": 36, "min_samples_for_expansion": 40}),
)

#: Quick-mode line-up: the smaller training set needs laxer expansion rules
#: to still grow a 3-level tree.
QUICK_CONFIGS = (
    ("wide_depth3", {"tau2": 0.03, "min_samples_for_expansion": 25}),
    ("compact_depth2", {"max_map_size": 36, "min_samples_for_expansion": 25}),
)

FULL_BATCH_SIZES = (1000, 10000, 50000)
QUICK_BATCH_SIZES = (500, 2000)


def legacy_score_samples(detector: GhsomDetector, X: np.ndarray) -> np.ndarray:
    """The pre-compilation scoring path, preserved as the benchmark baseline.

    Recursive descent via ``Ghsom.assign_legacy`` (one dataclass per record),
    per-sample threshold normalisation through leaf-key lists, and the
    per-sample label-folding loop — exactly what ``score_samples`` did before
    the compiled engine.
    """
    assignments = detector.model.assign_legacy(X)
    distances = [assignment.distance for assignment in assignments]
    leaf_keys = [assignment.leaf_key for assignment in assignments]
    ratios = detector.threshold_.normalize(distances, leaf_keys)
    if detector.labeler is None:
        return np.asarray(ratios, dtype=float)
    scores = np.asarray(ratios, dtype=float).copy()
    for index, key in enumerate(leaf_keys):
        info = detector.labeler.info_of(key)
        if info.label not in ("normal", UNLABELED):
            scores[index] = 1.0 + info.purity + 0.01 * min(ratios[index], 10.0)
    return scores


def run_benchmark(quick: bool = False, output_path: Path = OUTPUT_PATH) -> Dict[str, object]:
    """Fit the detector line-up, time both scoring paths, write the JSON report."""
    batch_sizes = QUICK_BATCH_SIZES if quick else FULL_BATCH_SIZES
    n_train = 1500 if quick else N_TRAIN
    generator = KddSyntheticGenerator(random_state=BENCH_SEED)
    train = generator.generate(n_train)
    test = generator.generate(max(batch_sizes))
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_test = pipeline.transform(test)
    y_train = [str(category) for category in train.categories]

    results: List[Dict[str, object]] = []
    for name, overrides in QUICK_CONFIGS if quick else CONFIGS:
        config = default_ghsom_config(**overrides)
        detector = GhsomDetector(config, random_state=BENCH_SEED)
        detector.fit(X_train, y_train)
        topology = detector.model.compile().describe()
        compiled_model = detector._compiled_model()
        fused_available = kernels.fused_supported(
            metric=compiled_model.metric, dtype=compiled_model.dtype
        )
        # Warm both paths (first call pays compilation / BLAS warm-up).
        compiled_scores = detector.score_samples(X_test[: batch_sizes[0]])
        legacy_scores = legacy_score_samples(detector, X_test[: batch_sizes[0]])
        if fused_available:
            # Warm the fused engine too (first call compiles/loads the kernel
            # and lane-transposes the codebook once per model).
            detector.configure(detector.serving_config.evolve(engine="fused"))
            detector.score_samples(X_test[: batch_sizes[0]])
            detector.configure(detector.serving_config.evolve(engine=None))
        for batch_size in batch_sizes:
            batch = X_test[:batch_size]
            # Same repeat count for both paths: best-of-N estimates the noise
            # floor, so an asymmetric N would bias the recorded speedup.
            repeats = 2 if quick else 3
            legacy_seconds = time_best(
                lambda: legacy_score_samples(detector, batch), repeats=repeats
            )
            compiled_seconds = time_best(
                lambda: detector.score_samples(batch), repeats=repeats
            )
            identical = bool(
                np.array_equal(
                    legacy_score_samples(detector, batch), detector.score_samples(batch)
                )
            )
            row = {
                "config": name,
                "n_train": n_train,
                "depth": topology["max_depth"],
                "n_maps": topology["n_nodes"],
                "n_units": topology["n_units"],
                "n_leaves": topology["n_leaves"],
                "batch_size": batch_size,
                "legacy_seconds": legacy_seconds,
                "compiled_seconds": compiled_seconds,
                "speedup": legacy_seconds / max(compiled_seconds, 1e-12),
                "legacy_records_per_second": batch_size / max(legacy_seconds, 1e-12),
                "compiled_records_per_second": batch_size / max(compiled_seconds, 1e-12),
                "identical_scores": identical,
                # numpy-vs-fused comparison (None when no kernel provider
                # serves this metric/dtype — e.g. a host without a C compiler).
                "fused_seconds": None,
                "fused_records_per_second": None,
                "fused_speedup_vs_numpy": None,
                "fused_leaves_identical": None,
                "fused_max_rel_drift": None,
            }
            if fused_available:
                numpy_result = detector.detect(batch)
                detector.configure(detector.serving_config.evolve(engine="fused"))
                try:
                    fused_seconds = time_best(
                        lambda: detector.score_samples(batch), repeats=repeats
                    )
                    fused_result = detector.detect(batch)
                finally:
                    detector.configure(detector.serving_config.evolve(engine=None))
                drift = np.abs(fused_result.scores - numpy_result.scores) / np.maximum(
                    np.abs(numpy_result.scores), 1e-30
                )
                row.update(
                    {
                        "fused_seconds": fused_seconds,
                        "fused_records_per_second": batch_size / max(fused_seconds, 1e-12),
                        "fused_speedup_vs_numpy": compiled_seconds / max(fused_seconds, 1e-12),
                        "fused_leaves_identical": bool(
                            np.array_equal(fused_result.leaf_index, numpy_result.leaf_index)
                        ),
                        "fused_max_rel_drift": float(drift.max()) if drift.size else 0.0,
                    }
                )
            results.append(row)

    payload = {
        "benchmark": "inference_throughput",
        "quick": quick,
        "seed": BENCH_SEED,
        "n_train": n_train,
        # Engine/provider/hardware context: throughput rows are read against
        # what executed them (fused provider, CPU budget).
        "provenance": runtime_provenance(),
        "results": results,
    }
    output_path.write_text(json.dumps(payload, indent=2))
    return payload


def print_report(payload: Dict[str, object]) -> None:
    """Render the JSON payload as the usual benchmark table."""
    rows = [
        [
            result["config"],
            result["depth"],
            result["n_leaves"],
            result["batch_size"],
            result["legacy_seconds"],
            result["compiled_seconds"],
            round(result["speedup"], 1),
            int(result["compiled_records_per_second"]),
            "-"
            if result.get("fused_records_per_second") is None
            else int(result["fused_records_per_second"]),
            "-"
            if result.get("fused_speedup_vs_numpy") is None
            else round(result["fused_speedup_vs_numpy"], 2),
            "yes" if result["identical_scores"] else "NO",
        ]
        for result in payload["results"]
    ]
    provider = (payload.get("provenance") or {}).get("fused_provider")
    print(
        format_table(
            rows,
            [
                "config",
                "depth",
                "leaves",
                "batch",
                "legacy_s",
                "compiled_s",
                "speedup",
                "compiled_rec/s",
                "fused_rec/s",
                "fused_x",
                "identical",
            ],
            title=(
                "Inference throughput: legacy recursive vs compiled flat-array "
                f"scoring (fused provider: {provider or 'none'})"
            ),
        )
    )


def test_perf_inference(benchmark, tmp_path):
    """Quick-mode run under pytest: correctness gate plus a timed kernel.

    Writes its JSON to a temp dir so the committed full-run
    ``BENCH_inference.json`` is never overwritten by a quick pass (use the
    CLI to refresh the real artifact).
    """
    payload = run_benchmark(quick=True, output_path=tmp_path / "BENCH_inference.json")
    print()
    print_report(payload)
    results = payload["results"]
    # The compiled path must reproduce legacy scores exactly...
    assert all(result["identical_scores"] for result in results)
    # ...and must never be slower than the legacy path on any measured cell.
    assert all(result["speedup"] > 1.0 for result in results)
    # Deep trees are the target workload: the engine compiles >= 3 levels.
    assert max(result["depth"] for result in results) >= 3

    generator = KddSyntheticGenerator(random_state=BENCH_SEED)
    train = generator.generate(1500)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    detector = GhsomDetector(default_ghsom_config(), random_state=BENCH_SEED)
    detector.fit(X_train, [str(category) for category in train.categories])
    X_score = pipeline.transform(generator.generate(2000))
    detector.score_samples(X_score)  # warm
    benchmark.pedantic(lambda: detector.score_samples(X_score), rounds=3, iterations=1)


def test_perf_fused_engine(tmp_path):
    """Quick-mode gate for the fused descent kernel.

    Runs on the runtime-compiled C kernel; skipped entirely when it does not
    build on this machine (no C compiler) — tier-1 proves the numpy
    fallback instead.  Gates: exact leaf agreement, score drift within
    the documented tolerance, and >= 1.5x throughput over the numpy engine
    on the largest quick batch (the full-run artifact records >= 2x; the
    quick batch is dominated more by fixed per-call costs, so the pytest
    gate is deliberately looser).
    """
    import pytest

    if not kernels.fused_supported("euclidean", np.float64):
        pytest.skip(
            f"no fused kernel provider available: {kernels.provider_diagnostics()}"
        )
    payload = run_benchmark(quick=True, output_path=tmp_path / "BENCH_inference.json")
    print()
    print_report(payload)
    rows = [row for row in payload["results"] if row["fused_seconds"] is not None]
    assert rows, "fused provider available but no fused rows were measured"
    rtol = kernels.FUSED_DISTANCE_RTOL["float64"]
    for row in rows:
        assert row["fused_leaves_identical"], row
        assert row["fused_max_rel_drift"] <= rtol, row
    largest = max(rows, key=lambda row: row["batch_size"])
    assert largest["fused_speedup_vs_numpy"] >= 1.5, largest


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
