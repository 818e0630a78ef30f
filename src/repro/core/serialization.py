"""Saving and loading trained models.

Model metadata is always serialised to a JSON document (human-inspectable,
no pickle code-execution concerns).  Three artifact format versions exist;
the writers produce only the newest, the readers accept all three:

* **v1** — the original tree-shaped payload: the GHSOM is stored as a nested
  ``root`` node dict and loading rebuilds the full Python ``GhsomNode`` tree
  (and recompiles it before the first score).  Still read, never written.
* **v2** — additionally embeds the **compiled flat arrays** (stacked
  codebook, topology arrays, leaf table — see
  :class:`~repro.core.compiled.CompiledGhsom`) and, for detectors, the
  per-leaf scoring tables (thresholds, labels, attack flags, purity) as JSON
  lists in one document.  Loading hydrates a scoring-ready detector straight
  from these arrays.  Still read, never written.
* **v3** (the written format) — the JSON document keeps all metadata
  (config, thresholds strategy state, tree structure) plus an **integrity
  header**, while every compiled array and per-leaf scoring table moves to
  an ``.npz`` sidecar written atomically next to the JSON.  Loading
  memory-maps the sidecar (:func:`repro.utils.mmapio.mmap_npz`), so cold
  start is O(metadata): the codebook pages fault in on first score instead
  of being parsed out of JSON.  No ``GhsomNode`` objects are built and
  nothing is recompiled before the first score; the tree payload is still
  stored, and the loaded detector rebuilds it lazily only if a consumer
  asks for ``detector.model`` (structure inspection, refit workflows).
  The JSON header records the sidecar's file name (resolved relative to the
  JSON file — the pair must be moved together), byte count and per-member
  CRC-32s (both always checked at load, catching truncation and stale
  pairings even when sizes happen to match) and SHA-256 (checked on
  ``verify=True`` loads, catching corruption CRC-32 cannot).

All artifact files — JSON and binary sidecars alike — are written atomically
(same-directory temp file + fsync + ``os.replace``; see
:func:`repro.utils.mmapio.atomic_write`), so a crash mid-write can never
leave a truncated, unloadable file under the target name.  Every save goes
through :func:`_write_artifact_pair`, which writes the sidecar first and the
JSON referencing it second: a crash between the two leaves the old JSON
pointing at a replaced sidecar, which the size / checksum checks then report
as a mismatch instead of serving silently wrong arrays.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union, cast

import numpy as np
import numpy.typing as npt

from repro._typing import AnyArray
from repro.core.compiled import CompiledGhsom
from repro.core.config import GhsomConfig
from repro.core.detector import GhsomDetector, restore_leaf_tables
from repro.core.ghsom import Ghsom, GhsomNode
from repro.core.growing_som import GrowingSom
from repro.core.labeling import UnitLabeler
from repro.core.thresholds import threshold_from_dict
from repro.exceptions import SerializationError
from repro.serving.config import ServingConfig, effective_config
from repro.utils.mmapio import (
    atomic_write,
    mmap_npz,
    npz_member_crcs,
    sha256_of_file,
    write_npz_atomic,
)

PathLike = Union[str, Path]

#: The one format the writers produce: JSON metadata plus an npz sidecar.
BINARY_FORMAT_VERSION = 3

#: Format versions the readers accept (v1 and v2 artifacts remain loadable;
#: their golden fixtures pin the readers).
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)

#: File suffix of the binary array sidecar written next to a v3 JSON file.
SIDECAR_SUFFIX = ".npz"

#: Sidecar container formats the v3 reader understands.
_SIDECAR_FORMATS = ("npz",)

def _as_int(value: object) -> int:
    """An artifact-payload value as an int: an integer or a whole-number float.

    A bool, a string or a fractional float is refused rather than coerced,
    so a corrupt payload fails with a typed error instead of loading a
    silently truncated model.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SerializationError(
        f"expected an integer payload value, got {type(value).__name__} {value!r:.40}"
    )


def _as_float(value: object) -> float:
    """An artifact-payload value as a float: any real number but a bool."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise SerializationError(
        f"expected a number payload value, got {type(value).__name__} {value!r:.40}"
    )


def _as_bool(value: object) -> bool:
    """An artifact-payload flag: a real bool only (``bool("false")`` is True)."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise SerializationError(
        f"expected a bool payload value, got {type(value).__name__} {value!r:.40}"
    )


def _as_mapping(value: object) -> Dict[str, object]:
    """An artifact-payload value as a fresh dict (mirrors ``dict()``)."""
    if isinstance(value, Mapping):
        return dict(value)
    raise SerializationError(f"expected a mapping payload value, got {type(value).__name__}")


def _as_array(value: object, dtype: npt.DTypeLike) -> AnyArray:
    """An artifact-payload value as a numpy array of ``dtype``."""
    return np.asarray(cast("npt.ArrayLike", value), dtype=dtype)


def _check_version(data: Dict[str, object]) -> int:
    version = data.get("format_version")
    # ``True == 1`` and ``1.0 == 1``: only a real int names a format.
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version not in SUPPORTED_FORMAT_VERSIONS
    ):
        raise SerializationError(f"unsupported format version {version!r}")
    return version


# --------------------------------------------------------------------------- #
# compiled flat arrays (formats v2 and v3)
# --------------------------------------------------------------------------- #
#: Array attributes of :class:`CompiledGhsom` stored in artifacts, in a fixed
#: order shared by the v2 JSON payload and the v3 sidecar member names.
#: ``unit_norms`` is derived data stored only by v3: recomputing it at load
#: time would touch every codebook page and defeat the lazy mapping.
_COMPILED_ARRAY_FIELDS = (
    "node_depths",
    "node_offsets",
    "codebook",
    "child_of_unit",
    "leaf_of_unit",
    "leaf_node",
    "leaf_unit",
    "leaf_depth",
)
_SIDECAR_COMPILED_FIELDS = _COMPILED_ARRAY_FIELDS + ("unit_norms",)

#: Per-leaf scoring-table sidecar member names (v3 detectors).  Labels are
#: stored as a fixed-width unicode array; the loader restores the object
#: dtype the in-memory tables use.
_SIDECAR_LEAF_THRESHOLDS = "leaf_thresholds"
_SIDECAR_LEAF_LABELS = "leaf_labels"
_SIDECAR_LEAF_IS_ATTACK = "leaf_is_attack"
_SIDECAR_LEAF_PURITY = "leaf_purity"


def _check_legacy_metric(section: Mapping[str, object]) -> None:
    """Refuse a compiled section stored for a distance other than Euclidean.

    Sections written while the distance was selectable carry a ``metric``
    entry.  ``"euclidean"`` is the one distance the engines compute; any
    other value would be served as Euclidean without a word, so it is refused.
    """
    if "metric" in section and section["metric"] != "euclidean":
        raise SerializationError(
            f"compiled section names distance metric {section['metric']!r}; "
            "models serve Euclidean distance only"
        )


def compiled_from_dict(data: Dict[str, object]) -> CompiledGhsom:
    """Rebuild a :class:`CompiledGhsom` from a v2 payload's ``compiled`` section.

    v2 stored only the defining arrays as JSON lists; derived quantities
    (unit norms, the leaf-key index) are recomputed here.
    """
    _check_legacy_metric(data)
    field_arrays: Dict[str, Any] = {name: data[name] for name in _COMPILED_ARRAY_FIELDS}
    return CompiledGhsom.from_arrays(
        n_features=_as_int(data["n_features"]),
        node_ids=cast("Sequence[str]", data["node_ids"]),
        **field_arrays,
    )


def compiled_to_arrays(
    compiled: CompiledGhsom,
) -> Tuple[Dict[str, object], Dict[str, AnyArray]]:
    """Split a compiled snapshot into JSON metadata + binary sidecar arrays.

    The returned metadata dict carries only scalars and node ids; every
    array (including the derived ``unit_norms``, so loading never has to
    touch the codebook) goes into the arrays mapping under its attribute
    name.
    """
    meta: Dict[str, object] = {
        "n_features": int(compiled.n_features),
        "node_ids": list(compiled.node_ids),
    }
    arrays = {name: getattr(compiled, name) for name in _SIDECAR_COMPILED_FIELDS}
    return meta, arrays


def compiled_from_arrays(
    meta: Dict[str, object], arrays: Dict[str, AnyArray]
) -> CompiledGhsom:
    """Rebuild a compiled snapshot from v3 metadata + sidecar arrays.

    Memory-mapped inputs are adopted without copying (see
    :meth:`CompiledGhsom.from_arrays`), so the codebook stays on disk until
    the first score touches it.
    """
    _check_legacy_metric(meta)
    missing = [name for name in _SIDECAR_COMPILED_FIELDS if name not in arrays]
    if missing:
        raise SerializationError(
            f"binary sidecar is missing compiled arrays {missing}; the file "
            "is incomplete or does not belong to this artifact"
        )
    field_arrays: Dict[str, Any] = {name: arrays[name] for name in _COMPILED_ARRAY_FIELDS}
    return CompiledGhsom.from_arrays(
        n_features=_as_int(meta["n_features"]),
        node_ids=cast("Sequence[str]", meta["node_ids"]),
        unit_norms=arrays["unit_norms"],
        **field_arrays,
    )


# --------------------------------------------------------------------------- #
# sidecar plumbing (format v3)
# --------------------------------------------------------------------------- #
def sidecar_path_for(json_path: PathLike) -> Path:
    """The sidecar path a binary save writes next to ``json_path``.

    Single owner of the naming rule (same stem, ``.npz`` suffix) so the
    writers, the CLI messaging and the benchmarks cannot drift apart.
    """
    json_path = Path(json_path)
    return json_path.parent / (json_path.stem + SIDECAR_SUFFIX)


def _check_format(format: str) -> None:
    """Refuse every ``format=`` but the one written format, ``"binary"``."""
    if format == "json":
        raise SerializationError(
            "the single-JSON (v2) artifact writer was removed: artifacts are "
            "always written as a JSON file plus an .npz sidecar (format v3); "
            "drop format= or pass format='binary'"
        )
    if format != "binary":
        raise SerializationError(
            f"unknown artifact format {format!r}; the only format is 'binary'"
        )


def _write_artifact_pair(
    document: Dict[str, object],
    arrays: Dict[str, AnyArray],
    path: PathLike,
    *,
    header_owner: Optional[Dict[str, object]] = None,
    format: str = "binary",
) -> Path:
    """Write ``arrays`` as the ``.npz`` sidecar of ``path``, then ``document`` at ``path``.

    The single writer of every artifact (:func:`save_ghsom`,
    :func:`save_detector` and the CLI bundle).  The sidecar lands atomically
    next to the JSON file (see :func:`sidecar_path_for`) and its integrity
    header — relative file name, byte count, SHA-256, per-member CRC-32s —
    is stamped into ``header_owner["sidecar"]`` (``document`` itself unless
    the reader resolves the header one level down, as in a bundle).  Only
    then is the JSON written, so its header always describes bytes that
    are already on disk.  Returns the sidecar path.
    """
    _check_format(format)
    json_path = Path(path)
    sidecar_path = sidecar_path_for(json_path)
    if sidecar_path == json_path:
        # A JSON path ending in .npz would collide with its own sidecar and
        # the second write would silently destroy the first.
        raise SerializationError(
            f"binary artifact path {json_path} collides with its sidecar "
            f"name; choose a path whose suffix is not {SIDECAR_SUFFIX!r} "
            "(conventionally .json)"
        )
    digest = write_npz_atomic(arrays, sidecar_path)
    member_crcs = cast(Dict[str, int], digest["crc32"])
    (document if header_owner is None else header_owner)["sidecar"] = {
        "format": "npz",
        "path": sidecar_path.name,
        "bytes": _as_int(digest["bytes"]),
        "sha256": str(digest["sha256"]),
        "crc32": {name: int(value) for name, value in member_crcs.items()},
    }
    write_json_atomic(document, json_path)
    return sidecar_path


def _sidecar_name(header: Mapping[str, object]) -> str:
    """The header's sidecar file name, refused unless it is a bare name.

    A path with directory parts could point the reader anywhere on disk; the
    sidecar always sits next to its JSON file.
    """
    name = str(header.get("path", ""))
    if not name or Path(name).name != name:
        raise SerializationError(
            f"invalid sidecar path {name!r} in artifact header "
            "(must be a bare file name next to the JSON file)"
        )
    return name


def artifact_sidecar_header(json_path: PathLike) -> Optional[Tuple[Path, Dict[str, object]]]:
    """The sidecar path + integrity header recorded by an artifact JSON.

    Accepts any artifact JSON this package writes — a bare detector/ghsom
    payload or a CLI bundle (whose detector payload nests one level down) —
    and returns ``(sidecar_path, header)`` with the path resolved next to
    the JSON file, or ``None`` for a JSON-only (v1/v2) artifact.  This is
    how a shard worker started with ``--model`` discovers the sidecar it
    advertises for by-reference provisioning, without hydrating the model.
    """
    json_path = Path(json_path)
    data = _read_json(json_path)
    header = data.get("sidecar")
    if not isinstance(header, dict):
        nested = data.get("detector")
        if isinstance(nested, dict):
            header = nested.get("sidecar")
    if not isinstance(header, dict):
        return None
    return json_path.parent / _sidecar_name(header), dict(header)


def open_sidecar(
    data: Dict[str, object],
    sidecar_dir: Optional[PathLike],
    *,
    verify: bool = False,
) -> Dict[str, AnyArray]:
    """Resolve, check and memory-map the binary sidecar of a v3 JSON payload.

    ``sidecar_dir`` is the directory the JSON file was read from (the
    sidecar path in the header is a bare file name relative to it).  The
    byte count and the per-member CRC-32s recorded in the header are always
    checked — catching truncation and stale JSON/sidecar pairings (even
    same-size ones) for the cost of a ``stat`` plus the zip-directory parse
    the open needs anyway — while the SHA-256 is checked only when
    ``verify=True`` (it must read the whole file, which defeats the lazy
    mapping's O(metadata) cold load).
    """
    header = data.get("sidecar")
    if not isinstance(header, dict):
        raise SerializationError(
            "v3 artifact has no sidecar header; the JSON file is incomplete"
        )
    container = header.get("format", "npz")
    if container not in _SIDECAR_FORMATS:
        raise SerializationError(
            f"unsupported sidecar format {container!r}; "
            f"this reader understands {_SIDECAR_FORMATS}"
        )
    name = _sidecar_name(header)
    if sidecar_dir is None:
        raise SerializationError(
            "this payload stores its arrays in a binary sidecar; load it "
            "through load_detector()/load_ghsom()/load_bundle() (or pass "
            "sidecar_dir=) so the sidecar file can be located"
        )
    path = Path(sidecar_dir) / name
    if not path.exists():
        raise SerializationError(
            f"missing binary sidecar {path}: a v3 artifact is a JSON + "
            f"{SIDECAR_SUFFIX} pair — keep the two files together"
        )
    # The always-on checks must never silently degrade: a v3 header without
    # them is as suspect as a failing one.
    expected_bytes = header.get("bytes")
    if expected_bytes is None:
        raise SerializationError(
            f"artifact header records no byte count for sidecar {path}; "
            "the JSON file is incomplete or was tampered with"
        )
    actual_bytes = path.stat().st_size
    if _as_int(expected_bytes) != actual_bytes:
        raise SerializationError(
            f"binary sidecar {path} is {actual_bytes} bytes but the "
            f"artifact header records {expected_bytes}: the sidecar is "
            "truncated or does not belong to this JSON file"
        )
    expected_crcs = header.get("crc32")
    if expected_crcs is None:
        raise SerializationError(
            f"artifact header records no member checksums for sidecar {path}; "
            "the JSON file is incomplete or was tampered with"
        )
    actual_crcs = npz_member_crcs(path)
    if actual_crcs != {name: int(value) for name, value in expected_crcs.items()}:
        raise SerializationError(
            f"binary sidecar {path} does not match the artifact header "
            "(member checksums differ): the sidecar was replaced after "
            "this JSON file was written — re-save the artifact pair"
        )
    if verify:
        expected_hash = header.get("sha256")
        if expected_hash is None:
            # A verify request must never silently degrade to no check.
            raise SerializationError(
                f"verification requested but the artifact header records no "
                f"sha256 for sidecar {path}; the JSON file is incomplete or "
                "was tampered with"
            )
        if sha256_of_file(path) != expected_hash:
            raise SerializationError(
                f"binary sidecar {path} fails its integrity check "
                "(sha256 mismatch): the file is corrupt or does not belong "
                "to this JSON artifact"
            )
    return mmap_npz(path)


# --------------------------------------------------------------------------- #
# GHSOM model
# --------------------------------------------------------------------------- #
def _node_to_dict(node: GhsomNode) -> Dict[str, object]:
    # Codebooks are stored exactly once, in the compiled stacked array; tree
    # nodes reference their slice of it by node id (only v1 payloads, which
    # are read but no longer written, carry them inline).
    return {
        "node_id": node.node_id,
        "depth": node.depth,
        "parent_unit": node.parent_unit,
        "rows": node.layer.grid.rows,
        "cols": node.layer.grid.cols,
        "parent_qe": node.layer.parent_qe,
        "unit_qe": np.asarray(node.unit_qe, dtype=float).tolist(),
        "unit_count": np.asarray(node.unit_count, dtype=int).tolist(),
        "children": {
            str(unit): _node_to_dict(child) for unit, child in node.children.items()
        },
    }


def _node_from_dict(
    data: Dict[str, object],
    config: GhsomConfig,
    n_features: int,
    codebooks: Optional[Dict[str, AnyArray]] = None,
) -> GhsomNode:
    rows = _as_int(data["rows"])
    cols = _as_int(data["cols"])
    layer = GrowingSom(
        n_features=n_features,
        config=config,
        parent_qe=_as_float(data["parent_qe"]),
        random_state=config.random_state,
    )
    if "codebook" in data:
        codebook = _as_array(data["codebook"], float)
    elif codebooks is not None and str(data["node_id"]) in codebooks:
        codebook = np.array(codebooks[str(data["node_id"])], dtype=float)
    else:
        raise SerializationError(
            f"node {data.get('node_id')!r} has no inline codebook and no "
            "compiled codebook slice to restore it from"
        )
    layer._replace_map(layer.grid.__class__(rows, cols), codebook)  # reuse swap helper
    layer.som._fitted = True
    layer._fitted = True
    node = GhsomNode(
        node_id=str(data["node_id"]),
        layer=layer,
        depth=_as_int(data["depth"]),
        parent_unit=None if data["parent_unit"] is None else _as_int(data["parent_unit"]),
        unit_qe=_as_array(data["unit_qe"], float),
        unit_count=_as_array(data["unit_count"], int),
    )
    for unit, child_data in _as_mapping(data.get("children") or {}).items():
        node.children[int(unit)] = _node_from_dict(
            _as_mapping(child_data), config, n_features, codebooks
        )
    return node


def _codebook_slices(compiled: CompiledGhsom) -> Dict[str, AnyArray]:
    """Per-node views into the compiled stacked codebook, keyed by node id."""
    offsets = compiled.node_offsets
    return {
        node_id: compiled.codebook[int(offsets[index]) : int(offsets[index + 1])]
        for index, node_id in enumerate(compiled.node_ids)
    }


def _ghsom_payload(model: Ghsom, arrays: Dict[str, AnyArray]) -> Dict[str, object]:
    """The v3 GHSOM payload; its compiled arrays go into ``arrays`` (the sidecar)."""
    if not model.is_fitted:
        raise SerializationError("cannot serialise an unfitted Ghsom")
    meta, compiled_arrays = compiled_to_arrays(model.compile())
    arrays.update(compiled_arrays)
    return {
        "format_version": BINARY_FORMAT_VERSION,
        "kind": "ghsom",
        "config": model.config.to_dict(),
        "qe0": model.qe0,
        "n_features": model.n_features,
        # Every codebook is stored once, in the compiled stacked array; the
        # tree payload keeps only structure + per-unit statistics.
        "root": _node_to_dict(model.root),
        "compiled": meta,
    }


def ghsom_from_dict(
    data: Dict[str, object],
    *,
    compiled: Optional[CompiledGhsom] = None,
    arrays: Optional[Dict[str, AnyArray]] = None,
) -> Ghsom:
    """Rebuild a :class:`Ghsom` from a stored payload.

    v2 payloads hydrate the compiled inference engine directly from the
    embedded arrays; v3 payloads need their sidecar ``arrays`` (resolved by
    :func:`load_ghsom`) for the same.  An already-hydrated ``compiled``
    snapshot may be passed in place of either (the detector loader does this
    so its lazy tree hydration does not have to keep the parsed payload
    arrays alive).
    """
    if data.get("kind") != "ghsom":
        raise SerializationError(f"payload is not a ghsom model (kind={data.get('kind')!r})")
    version = _check_version(data)
    config = GhsomConfig.from_dict(_as_mapping(data["config"]))
    model = Ghsom(config)
    model.qe0 = _as_float(data["qe0"])
    model.n_features = _as_int(data["n_features"])
    if compiled is None and version >= 3:
        if arrays is None:
            raise SerializationError(
                "format v3 stores its arrays in a binary sidecar; load the "
                "model through load_ghsom()/load_detector() so the sidecar "
                "can be resolved"
            )
        compiled = compiled_from_arrays(_as_mapping(data["compiled"]), arrays)
    if compiled is None and version == 2 and data.get("compiled") is not None:
        compiled = compiled_from_dict(_as_mapping(data["compiled"]))
    codebooks = _codebook_slices(compiled) if compiled is not None else None
    model.root = _node_from_dict(_as_mapping(data["root"]), config, model.n_features, codebooks)
    if compiled is not None:
        model._compiled = compiled
    return model


def save_ghsom(model: Ghsom, path: PathLike, *, format: str = "binary") -> None:
    """Write a fitted GHSOM to ``path`` (atomically) as a v3 artifact pair.

    The metadata JSON lands at ``path`` and the ``.npz`` array sidecar next
    to it.  ``format`` accepts only ``"binary"``, the one written format.
    """
    arrays: Dict[str, AnyArray] = {}
    payload = _ghsom_payload(model, arrays)
    _write_artifact_pair(payload, arrays, path, format=format)


def load_ghsom(path: PathLike, *, verify: bool = False) -> Ghsom:
    """Load a GHSOM previously written by :func:`save_ghsom` (any version).

    The format is auto-detected from the JSON header.  A v3 sidecar is
    memory-mapped; ``verify=True`` additionally checks its SHA-256.
    """
    path = Path(path)
    data = _read_json(path)
    arrays: Optional[Dict[str, AnyArray]] = None
    if data.get("format_version") == BINARY_FORMAT_VERSION:
        arrays = open_sidecar(data, path.parent, verify=verify)
    return ghsom_from_dict(data, arrays=arrays)


# --------------------------------------------------------------------------- #
# GHSOM detector (model + labels + thresholds)
# --------------------------------------------------------------------------- #
def _detector_payload(
    detector: GhsomDetector, arrays: Dict[str, AnyArray]
) -> Dict[str, object]:
    """The v3 detector payload; its arrays go into ``arrays`` (the sidecar)."""
    if not detector.is_fitted:
        raise SerializationError("cannot serialise an unfitted GhsomDetector")
    payload: Dict[str, object] = {
        "format_version": BINARY_FORMAT_VERSION,
        "kind": "ghsom_detector",
        "model": _ghsom_payload(detector.model, arrays),
        "labeler": detector.labeler.to_dict() if detector.labeler is not None else None,
        "threshold": detector.threshold_.to_dict(),
        "threshold_strategy_name": detector.threshold_strategy_name,
        "threshold_kwargs": detector.threshold_kwargs,
        "labeling_strategy": detector.labeling_strategy,
        "calibrate_on_normal_only": detector.calibrate_on_normal_only,
    }
    # The detector's serving configuration travels inside the artifact,
    # so loading hydrates a fully-configured detector (shards, remote
    # workers, verify) unless the caller overrides it — see
    # repro.serving.config.effective_config for the precedence rule.
    payload["serving_config"] = detector.serving_config.to_dict()
    # Generators are process-local state; only reproducible seeds persist.
    random_state = detector.random_state
    payload["random_state"] = (
        int(random_state) if isinstance(random_state, (int, np.integer)) else None
    )
    # The numeric tables ride in the sidecar; labels travel as a fixed-width
    # unicode array (npz stores those without pickle).
    tables = detector._leaf_tables()
    arrays[_SIDECAR_LEAF_THRESHOLDS] = np.asarray(tables.thresholds, dtype=float)
    labelled = tables.labels is not None
    if labelled:
        arrays[_SIDECAR_LEAF_LABELS] = np.asarray([str(v) for v in tables.labels])
        arrays[_SIDECAR_LEAF_IS_ATTACK] = tables.is_attack.astype(bool)
        arrays[_SIDECAR_LEAF_PURITY] = np.asarray(tables.purity, dtype=float)
    payload["leaf_tables"] = {"storage": "sidecar", "labelled": labelled}
    return payload


def detector_binary_payload(
    detector: GhsomDetector,
) -> Tuple[Dict[str, object], Dict[str, AnyArray]]:
    """The v3 JSON payload + sidecar arrays of a fitted detector.

    The payload carries no ``sidecar`` header yet —
    :func:`_write_artifact_pair` stamps it while writing.  An in-memory round
    trip passes both halves straight back:
    ``detector_from_dict(payload, arrays=arrays)``.  Also used by composite
    artifacts such as the CLI bundle, which nests the detector payload
    inside its own JSON document while sharing one sidecar file.
    """
    arrays: Dict[str, AnyArray] = {}
    payload = _detector_payload(detector, arrays)
    return payload, arrays


def _restored_labels(labels: Optional[AnyArray]) -> Optional[AnyArray]:
    """Sidecar label array (fixed-width unicode) -> the object dtype used in memory."""
    if labels is None:
        return None
    return np.asarray(np.asarray(labels).tolist(), dtype=object)


def detector_from_dict(
    data: Dict[str, object],
    *,
    config: Optional[ServingConfig] = None,
    overrides: Optional[Mapping[str, object]] = None,
    sidecar_dir: Optional[PathLike] = None,
    arrays: Optional[Dict[str, AnyArray]] = None,
) -> GhsomDetector:
    """Rebuild a :class:`GhsomDetector` from a stored payload (any version).

    For v2/v3 payloads the returned detector serves straight from the stored
    compiled arrays and leaf tables — no ``GhsomNode`` objects are built and
    no compile pass runs before the first score; the tree payload is parked
    behind a lazy loader that only fires when ``detector.model`` is accessed.
    v1 payloads fall back to the legacy full tree rebuild.

    v3 payloads additionally need their binary sidecar: pass ``sidecar_dir``
    (the directory the JSON was read from — :func:`load_detector` does) or a
    pre-opened ``arrays`` mapping.

    How the detector serves is governed by one
    :class:`~repro.serving.config.ServingConfig` with the standard
    precedence (see :func:`repro.serving.config.effective_config`): a full
    ``config`` wins wholesale; otherwise flat ``overrides`` (shards,
    remote_workers, verify) apply field-wise on
    top of the artifact-embedded config (v2+ payloads carry the config the
    detector was saved with; older artifacts fall back to the library
    default).  The resolved config also says whether the sidecar's SHA-256
    is verified.
    """
    if data.get("kind") != "ghsom_detector":
        raise SerializationError(
            f"payload is not a ghsom detector (kind={data.get('kind')!r})"
        )
    serving = effective_config(
        config=config,
        overrides=overrides,
        embedded=cast("Optional[Mapping[str, object]]", data.get("serving_config")),
    )
    version = _check_version(data)
    if version >= 3 and arrays is None:
        arrays = open_sidecar(data, sidecar_dir, verify=serving.verify)
    model_payload = _as_mapping(data["model"])
    ghsom_config = GhsomConfig.from_dict(_as_mapping(model_payload["config"]))
    random_state = data.get("random_state")
    detector = GhsomDetector(
        config=ghsom_config,
        threshold_strategy=str(data.get("threshold_strategy_name", "per_unit")),
        threshold_kwargs=_as_mapping(data.get("threshold_kwargs") or {}),
        labeling_strategy=str(data.get("labeling_strategy", "majority")),
        calibrate_on_normal_only=_as_bool(data.get("calibrate_on_normal_only", True)),
        random_state=None if random_state is None else _as_int(random_state),
    )
    labeler_payload: Optional[Dict[str, object]] = data.get("labeler")  # type: ignore[assignment]
    detector.labeler = UnitLabeler.from_dict(labeler_payload) if labeler_payload else None
    detector.threshold_ = threshold_from_dict(_as_mapping(data["threshold"]))
    # Older artifacts also carry a "shard_manifest" key.  It is ignored: the
    # shard layout is always derived from the compiled arrays.
    if version >= 2 and model_payload.get("compiled") is not None:
        if version >= 3:
            assert arrays is not None  # opened above for every v3 payload
            compiled = compiled_from_arrays(_as_mapping(model_payload["compiled"]), arrays)
        else:
            compiled = compiled_from_dict(_as_mapping(model_payload["compiled"]))
        detector._compiled = compiled
        # The loader closure carries only the tree-structure payload plus the
        # in-memory compiled arrays — not the parsed JSON codebook lists (or
        # the open sidecar mapping), which would otherwise stay resident for
        # the detector's whole lifetime.
        tree_payload = {
            key: value for key, value in model_payload.items() if key != "compiled"
        }
        detector._model_loader = lambda: ghsom_from_dict(tree_payload, compiled=compiled)
        # Normalise both storage layouts to one {thresholds, labels,
        # is_attack, purity} dict so table restoration itself has a single
        # code path regardless of where the arrays came from.
        tables: Dict[str, object]
        if version >= 3:
            assert arrays is not None  # opened above for every v3 payload
            tables = {
                "thresholds": arrays.get(_SIDECAR_LEAF_THRESHOLDS),
                "labels": _restored_labels(arrays.get(_SIDECAR_LEAF_LABELS)),
                "is_attack": arrays.get(_SIDECAR_LEAF_IS_ATTACK),
                "purity": arrays.get(_SIDECAR_LEAF_PURITY),
            }
        else:
            tables = _as_mapping(data.get("leaf_tables") or {})
        if tables.get("thresholds") is not None:
            detector._tables = restore_leaf_tables(
                compiled,
                detector.threshold_,
                detector.labeler,
                thresholds=_as_array(tables["thresholds"], float),
                labels=(
                    None
                    if tables.get("labels") is None
                    else _as_array(tables["labels"], object)
                ),
                is_attack=(
                    None
                    if tables.get("is_attack") is None
                    else _as_array(tables["is_attack"], bool)
                ),
                purity=(
                    None
                    if tables.get("purity") is None
                    else _as_array(tables["purity"], float)
                ),
            )
    else:
        # v1: full tree rebuild.
        detector.model = ghsom_from_dict(model_payload)
    # One atomic application of the effective config (the backend is
    # constructed eagerly).
    detector.configure(serving)
    return detector


def save_detector(
    detector: GhsomDetector, path: PathLike, *, format: str = "binary"
) -> None:
    """Write a fitted detector to ``path`` (atomically) as a v3 artifact pair.

    The metadata JSON lands at ``path`` and the ``.npz`` array sidecar next
    to it (sidecar first, then the JSON whose header records the sidecar's
    size and checksums).  ``format`` accepts only ``"binary"``, the one
    written format.
    """
    payload, arrays = detector_binary_payload(detector)
    _write_artifact_pair(payload, arrays, path, format=format)


def load_detector(
    path: PathLike,
    *,
    config: Optional[ServingConfig] = None,
    overrides: Optional[Mapping[str, object]] = None,
) -> GhsomDetector:
    """Load a detector previously written by :func:`save_detector` (any version).

    The format is auto-detected from the JSON header.  Serving is governed
    by one :class:`~repro.serving.config.ServingConfig` with the standard
    precedence — ``config`` wholesale, else ``overrides`` field-wise on top
    of the artifact-embedded config — exactly as documented on
    :func:`detector_from_dict`; the resolved config also says whether a v3
    sidecar's SHA-256 is verified (``verify``).
    """
    path = Path(path)
    return detector_from_dict(
        _read_json(path),
        config=config,
        overrides=overrides,
        sidecar_dir=path.parent,
    )


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def write_json_atomic(payload: Dict[str, object], path: PathLike) -> None:
    """Serialise ``payload`` to ``path`` via the shared atomic-write path.

    Same-directory temp file + fsync + ``os.replace`` (see
    :func:`repro.utils.mmapio.atomic_write`), so readers only ever observe
    the old file or the complete new one — never a truncated artifact from a
    crash mid-write.
    """
    path = Path(path)
    try:
        text = json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"could not serialise model to {path}: {exc}") from exc
    atomic_write(path, lambda stream: stream.write(text))


def _read_json(path: PathLike) -> Dict[str, object]:
    """The JSON object stored at ``path``; every failure is a SerializationError."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"model file does not exist: {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not parse model file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError(
            f"model file {path} holds a JSON {type(data).__name__}, not an object"
        )
    return data
