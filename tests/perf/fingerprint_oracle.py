"""The recursive canonical-tree walker that ``repro.perf.fingerprint``
ran before it became one pass of the C JSON encoder, kept as the reference
for the differential test in ``test_fingerprint.py``: two inputs must share
a fingerprint exactly when their canonical texts here are equal."""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from repro.perf import fingerprint_file, package_signature
from repro.perf.fingerprint import _is_package_class


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable canonical data (see module doc)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(obj)).hexdigest()}
    if isinstance(obj, Path):
        return fingerprint_file(obj)
    if _is_package_class(obj):
        return {"__package__": package_signature(obj)}
    if isinstance(obj, Mapping):
        items = [
            [canonicalize(k), canonicalize(v)] for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__map__": items}
    if isinstance(obj, (set, frozenset)):
        vals = [canonicalize(v) for v in obj]
        return {"__set__": sorted(vals, key=lambda v: json.dumps(v, sort_keys=True))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    # Spec-like: the node dict covers the full dependency DAG.
    to_node_dict = getattr(obj, "to_node_dict", None)
    if callable(to_node_dict):
        return {"__spec__": to_node_dict(deps=True)}
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return {"__obj__": canonicalize(to_dict())}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__obj__": canonicalize(dataclasses.asdict(obj))}
    # Last resort: a stable string rendering (Version, CompilerSpec, enums).
    return {"__str__": f"{type(obj).__name__}:{obj}"}


def canonical_text(obj: Any) -> str:
    """The text the walker's ``fingerprint`` hashed."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
