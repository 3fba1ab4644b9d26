"""Canonical content hashing — the key function of the incremental pipeline.

Benchpark's premise (paper §3) is *functional reproducibility*: identical
inputs — package recipes, system configurations, experiment specifications —
produce identical results.  :func:`fingerprint` turns that premise into an
addressable property: any object that describes an input to the pipeline can
be reduced to a stable hex digest, and two inputs with the same fingerprint
are interchangeable.  Every cache in :mod:`repro.perf` keys on these digests
(exaCB-style incremental evaluation; SCOPE keys results the same way).

A fingerprint hashes the text of one C JSON encoder pass with sorted keys,
so dicts are order-insensitive and lists/tuples keep their order.  A value
the encoder cannot write goes to ``_encode``, which returns a stand-in (a
one-key dict whose key starts with ``__``) for the encoder to write:

* package classes (class-like with ``pkg_name``) → their entire recipe,
  class source included, so editing a recipe invalidates everything built
  from it;
* ``Path`` → the file's *content* when it points at a file (moving a config
  file keeps its fingerprint; editing its bytes changes it);
* sets → their elements' encodings, sorted; ``bytes`` → their digest;
* ``Spec``-like objects (``to_node_dict``) → their full dependency DAG;
* other objects → ``to_dict()`` or dataclass fields, then ``str``.

Input rule: every mapping key is a ``str`` that does not start with ``__``.
The encoder writes other keys as text (``1`` and ``"1"`` collide), and a
``__`` key could spell a stand-in.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
import json
import linecache
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.analysis.caliper import annotate

__all__ = [
    "fingerprint",
    "fingerprint_file",
    "package_signature",
]

#: default digest length (hex chars); 64 bits of collision resistance is
#: plenty for cache keys that also live in human-readable provenance fields
DIGEST_LEN = 16


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _is_package_class(obj: Any) -> bool:
    """Duck-typed check for a mini-Spack package class (avoid importing
    repro.spack here — it imports us)."""
    return (
        isinstance(obj, type)
        and callable(getattr(obj, "pkg_name", None))
        and hasattr(obj, "variants")
        and hasattr(obj, "dependencies")
    )


#: source file -> (its lines, {class qualname: class source}): one parse
#: per file, and again only when ``linecache`` reloads the file
_class_sources: Dict[str, Tuple[List[str], Dict[str, str]]] = {}


def _classes(lines: List[str]) -> Dict[str, str]:
    """The source of every class a module defines at its top level or
    inside such a class, by qualified name: from its first decorator to its
    last line, as ``inspect.getsource`` gives it."""
    sources: Dict[str, str] = {}

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                name = prefix + node.name
                first = (node.decorator_list[0].lineno if node.decorator_list
                         else node.lineno)
                sources.setdefault(
                    name, "".join(lines[first - 1:node.end_lineno]))
                visit(node.body, name + ".")

    visit(ast.parse("".join(lines)).body, "")
    return sources


def _class_source(cls: type) -> str:
    """``inspect.getsource(cls)``, parsing each module once rather than once
    per class.  A class the parse cannot place — one defined inside a
    function, or made by ``type()`` — is left to ``inspect``."""
    path = inspect.getsourcefile(cls)
    if path:
        linecache.checkcache(path)  # a file edited on disk is read again
        lines = linecache.getlines(path)
        cached = _class_sources.get(path)
        if cached is None or cached[0] is not lines:
            cached = _class_sources[path] = (lines, _classes(lines))
        source = cached[1].get(cls.__qualname__)
        if source is not None:
            return source
    return inspect.getsource(cls)


def package_signature(cls: type) -> dict:
    """The full recipe of a package class as JSON-encodable data.

    Covers everything the concretizer and installer read from a recipe:
    declared versions (with preferred/deprecated flags), variant definitions,
    conditional dependencies, conflicts, provided virtuals, build system —
    plus the class source code, so a changed ``cmake_args`` hook invalidates
    builds even when the declared metadata is unchanged.
    """
    sig: dict = {
        "name": cls.pkg_name(),
        "build_system": getattr(cls, "build_system", ""),
        "versions": {
            str(v): {k: bool(m.get(k)) for k in ("preferred", "deprecated")}
            for v, m in getattr(cls, "versions", {}).items()
        },
        "variants": {
            name: {
                "default": vdef.default,
                "values": list(vdef.values) if vdef.values is not None else None,
                "multi": bool(vdef.multi),
            }
            for name, vdef in getattr(cls, "variants", {}).items()
        },
        "dependencies": {
            dname: [
                {
                    "spec": str(e["spec"]),
                    "when": str(e["when"]) if e.get("when") is not None else None,
                    "type": sorted(e.get("type", ())),
                }
                for e in entries
            ]
            for dname, entries in getattr(cls, "dependencies", {}).items()
        },
        "conflicts": [
            {
                "spec": str(r["spec"]),
                "when": str(r["when"]) if r.get("when") is not None else None,
            }
            for r in getattr(cls, "conflict_rules", [])
        ],
        "provides": {
            virtual: sorted(str(w) for w in whens if w is not None)
            for virtual, whens in getattr(cls, "provided", {}).items()
        },
    }
    try:
        sig["source"] = _hash_text(_class_source(cls))
    except (OSError, TypeError):
        # dynamically created classes (tests) have no retrievable source;
        # the declared metadata above still distinguishes them
        sig["source"] = None
    return sig


def _encode(obj: Any) -> Any:
    """The stand-in the encoder writes for ``obj``, a value it cannot write
    itself (see module doc)."""
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(obj)).hexdigest()}
    if isinstance(obj, Path):
        return fingerprint_file(obj)
    if _is_package_class(obj):
        return {"__package__": package_signature(obj)}
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(_dumps(v) for v in obj)}
    # Spec-like: the node dict covers the full dependency DAG.
    to_node_dict = getattr(obj, "to_node_dict", None)
    if callable(to_node_dict):
        return {"__spec__": to_node_dict(deps=True)}
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return {"__obj__": to_dict()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__obj__": dataclasses.asdict(obj)}
    # Last resort: a stable string rendering (Version, CompilerSpec, enums).
    return {"__str__": f"{type(obj).__name__}:{obj}"}


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_encode)


@annotate("fingerprint")
def fingerprint(obj: Any, length: int = DIGEST_LEN) -> str:
    """Stable content hash of any pipeline input (hex, ``length`` chars)."""
    return _hash_text(_dumps(obj))[:length]


def fingerprint_file(path: Path | str, length: int = DIGEST_LEN) -> dict:
    """Canonical form of a filesystem path: content-addressed when the file
    exists (moving a config file does not invalidate; editing it does)."""
    path = Path(path)
    if path.is_file():
        return {"__file__": hashlib.sha256(path.read_bytes()).hexdigest()[:length]}
    return {"__path__": str(path)}
