"""Stored ``metric`` entries of the golden artifacts: Euclidean or refused.

Artifacts written while the distance was selectable name it twice: in the
training config (``model.config.training.metric``) and in the compiled
section (``model.compiled.metric``).  The engines compute Euclidean
distances only, so a reader that let another name through would serve a
model under a distance it was not saved for: with ``"manhattan"`` in the
compiled section, every golden-batch score changed and 12 of 32 predictions
flipped, and the sidecar CRCs, which cover only the ``.npz``, said nothing.
Each case here edits only that JSON string of a committed golden artifact.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialization import load_detector
from repro.exceptions import ConfigurationError, SerializationError

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "artifacts"

#: Where each stored entry sits in the payload, and what a refusal raises.
ENTRIES = {
    "config": (("model", "config", "training"), ConfigurationError),
    "compiled": (("model", "compiled"), SerializationError),
}


def _mutated_copy(version, tmp_path, edit):
    """A copy of golden ``version`` (with its sidecar) after ``edit(payload)``."""
    payload = json.loads((FIXTURE_DIR / f"detector_{version}.json").read_text())
    edit(payload)
    path = tmp_path / f"detector_{version}.json"
    path.write_text(json.dumps(payload))
    if version == "v3":
        shutil.copy(FIXTURE_DIR / "detector_v3.npz", tmp_path / "detector_v3.npz")
    return path


def _section(payload, entry):
    section = payload
    for key in ENTRIES[entry][0]:
        section = section[key]
    return section


@pytest.fixture(scope="module")
def batch():
    return np.load(FIXTURE_DIR / "batch.npy")


@pytest.fixture(scope="module")
def expected():
    return json.loads((FIXTURE_DIR / "expected.json").read_text())


@pytest.mark.parametrize("metric", ["manhattan", "sqeuclidean", "cosine", 5])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("version", ["v2", "v3"])
def test_stored_non_euclidean_metric_is_refused_at_load(version, entry, metric, tmp_path):
    def edit(payload):
        section = _section(payload, entry)
        assert section["metric"] == "euclidean"
        section["metric"] = metric

    path = _mutated_copy(version, tmp_path, edit)
    with pytest.raises(ENTRIES[entry][1], match=f"metric {metric!r}"):
        load_detector(path)


@pytest.mark.parametrize(
    "removed",
    [(), ("config",), ("compiled",), ("config", "compiled")],
    ids=["unmutated", "config-removed", "compiled-removed", "both-removed"],
)
@pytest.mark.parametrize("version", ["v2", "v3"])
def test_euclidean_or_absent_metric_scores_as_pinned(
    version, removed, batch, expected, tmp_path
):
    def edit(payload):
        for entry in removed:
            del _section(payload, entry)["metric"]

    golden = load_detector(FIXTURE_DIR / f"detector_{version}.json").detect(batch)
    result = load_detector(_mutated_copy(version, tmp_path, edit)).detect(batch)
    assert result.scores.tobytes() == golden.scores.tobytes()
    pinned = [float.fromhex(value) for value in expected["scores_hex"]]
    # The golden suite's cross-machine slack for the committed scores.
    np.testing.assert_allclose(result.scores, pinned, rtol=1e-9, atol=0.0)
    assert result.predictions.tolist() == expected["predictions"]
    assert [str(category) for category in result.categories] == expected["categories"]
    assert result.leaf_index.tolist() == expected["leaf_index"]
