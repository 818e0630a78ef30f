"""Artifact layouts the library still reads but no longer writes (v1, v2).

The writers produce only format v3: a JSON document plus an ``.npz``
sidecar.  The readers still accept the single-JSON v1 and v2 layouts, and
their committed golden files pin one detector each.  These helpers build the
same layouts from any fitted detector, so the reader tests and the v3-vs-v2
cold-load ratio can cover every detector shape.
"""

from __future__ import annotations

from repro.core.serialization import detector_binary_payload

#: The compiled arrays a v2 payload stores as JSON lists, in writer order.
_V2_COMPILED_FIELDS = (
    "node_depths",
    "node_offsets",
    "codebook",
    "child_of_unit",
    "leaf_of_unit",
    "leaf_node",
    "leaf_unit",
    "leaf_depth",
)


def v2_payload(detector):
    """``detector`` in the single-JSON layout the retired v2 writer produced.

    The v3 payload already holds everything but the arrays; v2 embeds the
    compiled arrays (without the derived ``unit_norms``) and the per-leaf
    tables as JSON lists instead of pointing at a sidecar.
    """
    payload, arrays = detector_binary_payload(detector)
    payload["format_version"] = payload["model"]["format_version"] = 2
    compiled = payload["model"]["compiled"]
    for name in _V2_COMPILED_FIELDS:
        compiled[name] = arrays[name].tolist()
    labelled = payload["leaf_tables"]["labelled"]

    def table(name):
        return arrays[name].tolist() if labelled else None

    payload["leaf_tables"] = {
        "thresholds": arrays["leaf_thresholds"].tolist(),
        "labels": table("leaf_labels"),
        "is_attack": table("leaf_is_attack"),
        "purity": table("leaf_purity"),
    }
    return payload


def v1_payload(detector):
    """``detector`` in the layout the retired v1 writer produced.

    Each tree node carries its codebook slice inline; there are no compiled
    arrays, serving tables or serving config.
    """
    payload = v2_payload(detector)
    model = payload["model"]
    compiled = model.pop("compiled")
    offsets = compiled["node_offsets"]
    codebooks = {
        node_id: compiled["codebook"][offsets[i] : offsets[i + 1]]
        for i, node_id in enumerate(compiled["node_ids"])
    }

    def inline(node):
        node["codebook"] = codebooks[node["node_id"]]
        for child in node["children"].values():
            inline(child)

    inline(model["root"])
    for key in ("serving_config", "random_state", "leaf_tables"):
        del payload[key]
    payload["format_version"] = model["format_version"] = 1
    return payload
