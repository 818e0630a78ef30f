"""Quickstart: train a GHSOM network-traffic anomaly detector in ~30 lines.

Run with::

    python examples/quickstart.py

The script generates a KDD-style synthetic traffic dataset, preprocesses it,
trains the GHSOM detector on labelled traffic, evaluates it on a held-out
split, and saves / reloads the trained model.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro import (
    GhsomConfig,
    GhsomDetector,
    KddSyntheticGenerator,
    PreprocessingPipeline,
    binary_metrics,
    format_table,
    load_detector,
    save_detector,
)


#: Set REPRO_EXAMPLES_QUICK=1 (the examples smoke test does) to shrink the
#: workload so the script finishes in seconds while exercising every step.
QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    # 1. Data: a labelled KDD-style traffic dataset (stand-in for KDD Cup 99).
    generator = KddSyntheticGenerator(random_state=0)
    n_train, n_test = (800, 400) if QUICK else (4000, 2000)
    train, test = generator.generate_train_test(n_train=n_train, n_test=n_test)
    print(f"training records: {len(train)}, test records: {len(test)}")
    print(f"training class mix: {train.class_counts()}")

    # 2. Preprocessing: one-hot encode symbols, log-compress volumes, scale to [0, 1].
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_test = pipeline.transform(test)

    # 3. Model: a growing hierarchical SOM with the default growth thresholds.
    detector = GhsomDetector(GhsomConfig(tau1=0.3, tau2=0.05, max_depth=3), random_state=0)
    detector.fit(X_train, train.categories)
    print(f"trained GHSOM topology: {detector.topology_summary()}")

    # 4. Detection: binary alarms plus best-effort attack categories.
    alarms = detector.predict(X_test)
    metrics = binary_metrics(test.is_attack.astype(int), alarms)
    print()
    print(
        format_table(
            [[metrics.detection_rate, metrics.false_positive_rate, metrics.precision, metrics.f1]],
            ["detection_rate", "false_positive_rate", "precision", "f1"],
            title="Held-out detection performance",
        )
    )

    # 5. Persistence: the whole detector (hierarchy, labels, thresholds) is a
    # JSON file plus an .npz array sidecar next to it, memory-mapped on load
    # for near-instant cold starts.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ghsom_detector.json"
        save_detector(detector, path)
        reloaded = load_detector(path)
        assert (reloaded.predict(X_test) == alarms).all()
        print(
            f"\nmodel saved to {path.name} + {path.stem}.npz and reloaded "
            "(memory-mapped): predictions identical"
        )

if __name__ == "__main__":
    main()
