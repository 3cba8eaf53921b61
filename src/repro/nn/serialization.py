"""Checkpoint serialization: nested state trees to ``.npz``.

A *state tree* (``pack_state`` / ``unpack_state``) is an arbitrarily
nested dict/list mixing numpy arrays with JSON-friendly scalars (ints,
floats, strs, bools, None).  Arrays are stored as native npz entries
(bit-exact, including float64 optimizer moments); everything else
round-trips through a JSON skeleton stored alongside them.  This is the
on-disk format of :mod:`repro.checkpoint` checkpoints, full-training
ones (model + optimizer + scheduler + RNG streams) and model-only ones
(``Checkpointer.save(model.state_dict(), step, metadata=...)``) alike.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

__all__ = ["pack_state", "unpack_state"]

#: Reserved npz entry holding the JSON skeleton of a packed state tree.
_TREE_KEY = "__state_tree__"
#: Prefix for npz entries holding the arrays extracted from the tree.
_ARRAY_PREFIX = "__arr_"
#: JSON marker object referencing an extracted array by index.
_ARRAY_MARKER = "__ndarray__"
#: Current pack_state format version (bump on incompatible layout changes).
PACK_FORMAT_VERSION = 1


def _json_scalar(value: Any) -> Any:
    """Convert numpy scalar types to their Python equivalents."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def pack_state(tree: Any) -> Dict[str, np.ndarray]:
    """Flatten a nested state tree into an npz-ready mapping.

    The tree may nest dicts (string keys) and lists/tuples, with numpy
    arrays and JSON scalars (int/float/str/bool/None) at the leaves.
    Tuples are returned as lists by :func:`unpack_state`.
    """
    arrays: List[np.ndarray] = []

    def encode(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return {_ARRAY_MARKER: len(arrays) - 1}
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if not isinstance(key, str):
                    raise TypeError(
                        f"state tree keys must be strings, got "
                        f"{type(key).__name__}: {key!r}"
                    )
                if key == _ARRAY_MARKER:
                    raise ValueError(
                        f"state tree uses the reserved key {_ARRAY_MARKER!r}"
                    )
                out[key] = encode(value)
            return out
        if isinstance(node, (list, tuple)):
            return [encode(item) for item in node]
        scalar = _json_scalar(node)
        if scalar is None or isinstance(scalar, (bool, int, float, str)):
            return scalar
        raise TypeError(
            f"state tree leaves must be arrays or JSON scalars, got "
            f"{type(node).__name__}"
        )

    skeleton = {"format": PACK_FORMAT_VERSION, "tree": encode(tree)}
    packed: Dict[str, np.ndarray] = {
        _TREE_KEY: np.array(json.dumps(skeleton))
    }
    for i, array in enumerate(arrays):
        packed[f"{_ARRAY_PREFIX}{i}"] = np.asarray(array)
    return packed


def unpack_state(mapping: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`pack_state` (accepts a dict or an open NpzFile)."""
    if _TREE_KEY not in mapping:
        raise ValueError(
            f"not a packed state tree: missing {_TREE_KEY!r} entry"
        )
    skeleton = json.loads(str(mapping[_TREE_KEY][()]))
    version = skeleton.get("format")
    if version != PACK_FORMAT_VERSION:
        raise ValueError(
            f"unsupported packed state format {version!r} "
            f"(expected {PACK_FORMAT_VERSION})"
        )

    def decode(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {_ARRAY_MARKER}:
                index = node[_ARRAY_MARKER]
                key = f"{_ARRAY_PREFIX}{index}"
                if key not in mapping:
                    raise ValueError(f"packed state missing array entry {key}")
                return np.array(mapping[key], copy=True)
            return {key: decode(value) for key, value in node.items()}
        if isinstance(node, list):
            return [decode(item) for item in node]
        return node

    return decode(skeleton["tree"])
