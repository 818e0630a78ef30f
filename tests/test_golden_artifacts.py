"""Golden-artifact compatibility suite: committed v1/v2/v3 artifacts must
keep loading — and scoring byte-identically — forever.

The fixtures under ``tests/fixtures/artifacts/`` were written by
``regenerate.py`` (same directory) at a pinned seed: one tiny detector saved
in every supported format, a fixed 32-record scoring batch, and the batch's
expected outputs with scores stored as exact ``float.hex()`` strings.

These tests never retrain or rewrite anything.  They load the *committed
bytes* with the current readers, so a format change that silently alters
how existing artifacts deserialize (a renamed key, a changed dtype, a
different restore order) fails here even if the fresh save → load
round-trip tests still pass.  When the format changes *intentionally*,
regenerate the fixtures and commit them with the change.

Two tiers of exactness, on purpose: the three formats must agree with each
other **bit for bit** (that comparison runs within one process, where the
byte-identity contract holds), while the comparison against the *committed*
expected scores allows last-ulp slack (``REL_TOL``) — those were produced
on a different machine, and BLAS GEMM kernels may round the final ulp
differently per CPU microarchitecture.  Any real format regression is
orders of magnitude above that tolerance; decisions, categories and leaf
assignments are still pinned exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialization import load_detector

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "artifacts"
VERSIONS = ("v1", "v2", "v3")

#: Cross-machine slack for the pinned float64 scores: ulp-scale BLAS
#: variation sits around 1e-16 relative; format bugs are >> 1e-9.
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def batch() -> np.ndarray:
    return np.load(FIXTURE_DIR / "batch.npy")


@pytest.fixture(scope="module")
def expected():
    payload = json.loads((FIXTURE_DIR / "expected.json").read_text())
    payload["scores"] = np.array(
        [float.fromhex(value) for value in payload["scores_hex"]], dtype=np.float64
    )
    return payload


@pytest.mark.parametrize("version", VERSIONS)
def test_golden_artifact_scores_pinned(version, batch, expected):
    detector = load_detector(FIXTURE_DIR / f"detector_{version}.json")
    result = detector.detect(batch)
    np.testing.assert_allclose(
        result.scores,
        expected["scores"],
        rtol=REL_TOL,
        atol=0.0,
        err_msg=f"{version} artifact no longer reproduces its pinned scores",
    )
    assert result.predictions.tolist() == expected["predictions"]
    assert [str(category) for category in result.categories] == expected["categories"]
    assert result.leaf_index.tolist() == expected["leaf_index"]


def test_formats_agree_bit_for_bit(batch):
    """Within one process the three formats must score byte-identically."""
    scores = {
        version: load_detector(FIXTURE_DIR / f"detector_{version}.json")
        .detect(batch)
        .scores
        for version in VERSIONS
    }
    assert np.array_equal(scores["v1"], scores["v2"])
    assert np.array_equal(scores["v2"], scores["v3"])


@pytest.mark.parametrize("version", VERSIONS)
def test_golden_artifact_structure_pinned(version, expected):
    detector = load_detector(FIXTURE_DIR / f"detector_{version}.json")
    topology = detector.topology_summary()
    assert topology == expected["topology"]


def test_v3_golden_loads_through_every_path(batch):
    """The binary golden must agree bit-for-bit across mmap, eager, and
    verified loads (all within this process)."""
    path = FIXTURE_DIR / "detector_v3.json"
    reference = load_detector(path).detect(batch).scores
    for overrides in ({"mmap": False}, {"verify": True}):
        result = load_detector(path, overrides=overrides).detect(batch)
        assert np.array_equal(result.scores, reference), overrides


def test_fixture_inventory_complete():
    """Every committed fixture file the suite depends on is present."""
    names = {path.name for path in FIXTURE_DIR.iterdir()}
    required = {
        "batch.npy",
        "expected.json",
        "regenerate.py",
        "detector_v1.json",
        "detector_v2.json",
        "detector_v3.json",
        "detector_v3.npz",
    }
    assert required <= names, sorted(required - names)
