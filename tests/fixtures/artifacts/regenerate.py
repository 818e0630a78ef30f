"""Regenerate the golden model artifacts committed in this directory.

The fixtures pin the *on-disk format contract*: tiny pre-built v1 / v2 / v3
detector artifacts plus a fixed scoring batch and its expected outputs,
stored exactly (``float.hex()``).  ``tests/test_golden_artifacts.py`` loads
each committed artifact with the current readers, asserts the three formats
agree bit for bit with each other, and pins the absolute scores against the
stored values (with last-ulp slack for cross-machine BLAS variation) — so
any change to the serialization layer that silently alters how *existing*
artifacts deserialize (or score) fails loudly instead of drifting.

The writers no longer produce v1, so this script leaves
``detector_v1.json`` untouched: it is the committed input of the v1
reader, written at the same seed by an earlier writer.

Run from the repository root only when the format genuinely changes::

    PYTHONPATH=src python tests/fixtures/artifacts/regenerate.py

and commit the resulting files together with the format change that
motivated them.  Scores are stored as ``float.hex()`` strings: exact, and
diffable in review.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core.serialization import (
    detector_to_dict,
    save_detector,
    write_json_atomic,
)
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator

FIXTURE_DIR = Path(__file__).resolve().parent

#: Everything below is pinned: changing any of it regenerates *different*
#: goldens, which is only acceptable alongside an intentional format change.
SEED = 99
N_TRAIN = 300
N_BATCH = 32
CONFIG = {
    "tau1": 0.4,
    "tau2": 0.1,
    "max_depth": 2,
    "max_map_size": 16,
    "max_growth_rounds": 6,
    "min_samples_for_expansion": 30,
    "random_state": SEED,
}
EPOCHS = 3


def build_detector_and_batch():
    generator = KddSyntheticGenerator(random_state=SEED)
    train, test = generator.generate_train_test(N_TRAIN, N_BATCH)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_batch = pipeline.transform(test)
    config = GhsomConfig(training=SomTrainingConfig(epochs=EPOCHS), **CONFIG)
    detector = GhsomDetector(config, random_state=SEED)
    detector.fit(X_train, [str(category) for category in train.categories])
    return detector, np.ascontiguousarray(X_batch, dtype=np.float64)


def main() -> None:
    detector, batch = build_detector_and_batch()
    result = detector.detect(batch)

    np.save(FIXTURE_DIR / "batch.npy", batch)
    write_json_atomic(
        detector_to_dict(detector, version=2), FIXTURE_DIR / "detector_v2.json"
    )
    save_detector(detector, FIXTURE_DIR / "detector_v3.json", format="binary")
    expected = {
        "scores_hex": [float(score).hex() for score in result.scores],
        "predictions": [int(flag) for flag in result.predictions],
        "categories": [str(category) for category in result.categories],
        "leaf_index": [int(row) for row in result.leaf_index],
        "topology": detector.topology_summary(),
    }
    write_json_atomic(expected, FIXTURE_DIR / "expected.json")
    print(f"regenerated golden artifacts in {FIXTURE_DIR}")
    print(f"topology: {expected['topology']}")


if __name__ == "__main__":
    main()
