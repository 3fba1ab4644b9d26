"""Mini-Caliper: annotation-based performance introspection (§5, [2,3,19]).

The paper plans to "annotate the benchmarks with Caliper … configured to use
always-on profiling, enabling collection of performance profiles for each
run".  This module provides the same programming model:

* region annotations via context manager / decorator
  (``with region("solve"): ...``),
* a **context tree** of nested regions with inclusive/exclusive times and
  visit counts,
* a process-global session (Caliper's default channel) so library code can
  annotate without plumbing a profiler object through every call,
* structured :class:`Profile` output consumable by Thicket
  (:mod:`repro.analysis.thicket`).

Timings are wall-clock by default but can be driven from a simulated clock
(for profiles of SimMPI runs).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["CaliperSession", "Profile", "RegionNode", "region", "annotate",
           "global_session"]


class RegionNode:
    """One node of the Caliper context tree."""

    def __init__(self, name: str, parent: Optional["RegionNode"] = None):
        self.name = name
        self.parent = parent
        self.children: Dict[str, "RegionNode"] = {}
        self.visits = 0
        self.inclusive = 0.0

    @property
    def path(self) -> str:
        parts = []
        node: Optional[RegionNode] = self
        while node is not None and node.name:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    @property
    def exclusive(self) -> float:
        return self.inclusive - sum(c.inclusive for c in self.children.values())

    def child(self, name: str) -> "RegionNode":
        if name not in self.children:
            self.children[name] = RegionNode(name, parent=self)
        return self.children[name]

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "visits": self.visits,
            "inclusive": self.inclusive,
            "exclusive": self.exclusive,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Profile:
    """A finished profile: the context tree plus run metadata (Adiak)."""

    def __init__(self, root: RegionNode, metadata: Optional[Dict[str, Any]] = None):
        self.root = root
        self.metadata = dict(metadata or {})

    def regions(self) -> Dict[str, RegionNode]:
        """Flat path → node view (skips the artificial root)."""
        return {n.path: n for n in self.root.walk() if n.name}

    def total_time(self) -> float:
        return sum(c.inclusive for c in self.root.children.values())

    def runtime_report(self) -> str:
        """Caliper's classic runtime-report: indented tree with times."""
        lines = [f"{'Path':<40} {'Time (incl)':>12} {'Time (excl)':>12} {'Calls':>7}"]

        def emit(node: RegionNode, depth: int):
            label = "  " * depth + node.name
            lines.append(
                f"{label:<40} {node.inclusive:>12.6f} {node.exclusive:>12.6f} "
                f"{node.visits:>7}"
            )
            for child in node.children.values():
                emit(child, depth + 1)

        for child in self.root.children.values():
            emit(child, 0)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"metadata": dict(self.metadata), "tree": self.root.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Profile":
        def build(nd: Dict[str, Any], parent: Optional[RegionNode]) -> RegionNode:
            node = RegionNode(nd["name"], parent)
            node.visits = nd["visits"]
            node.inclusive = nd["inclusive"]
            for c in nd.get("children", []):
                node.children[c["name"]] = build(c, node)
            return node

        return cls(build(d["tree"], None), d.get("metadata"))


class CaliperSession:
    """An active measurement channel."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or time.perf_counter
        self._root = RegionNode("")
        self._stack: List[RegionNode] = [self._root]
        self._starts: List[float] = []
        self._profiles: List[Profile] = []

    # -- annotation API --------------------------------------------------
    def begin(self, name: str) -> None:
        node = self._stack[-1].child(name)
        node.visits += 1
        self._stack.append(node)
        self._starts.append(self.clock())

    def end(self, name: str) -> None:
        if len(self._stack) <= 1:
            raise RuntimeError(f"cali end({name!r}) without matching begin")
        node = self._stack[-1]
        if node.name != name:
            raise RuntimeError(
                f"mismatched region end: expected {node.name!r}, got {name!r}"
            )
        node.inclusive += self.clock() - self._starts.pop()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(name)

    def annotate(self, name: Optional[str] = None) -> Callable:
        """Decorator form: @session.annotate() or @session.annotate("x")."""

        def wrap(fn: Callable) -> Callable:
            label = name or fn.__name__

            @functools.wraps(fn)
            def inner(*args, **kwargs):
                with self.region(label):
                    return fn(*args, **kwargs)

            return inner

        return wrap

    def regions(self) -> Dict[str, RegionNode]:
        """Live path → node view of the current (unflushed) tree."""
        return Profile(self._root).regions()

    # -- flush / always-on ---------------------------------------------------
    def flush(self, metadata: Optional[Dict[str, Any]] = None) -> Profile:
        """Finish the current tree into a Profile and reset (always-on mode
        flushes once per run)."""
        if len(self._stack) != 1:
            open_regions = [n.name for n in self._stack[1:]]
            raise RuntimeError(f"flush with open regions: {open_regions}")
        from .adiak import collected

        merged = dict(collected())
        merged.update(metadata or {})
        profile = Profile(self._root, merged)
        self._profiles.append(profile)
        self._root = RegionNode("")
        self._stack = [self._root]
        return profile

    def last_profile(self) -> Optional[Profile]:
        return self._profiles[-1] if self._profiles else None


_global: Optional[CaliperSession] = None


def global_session() -> CaliperSession:
    """Caliper's default channel."""
    global _global
    if _global is None:
        _global = CaliperSession()
    return _global


@contextmanager
def region(name: str):
    """Annotate a region on the global session (``cali.mark`` style)."""
    with global_session().region(name):
        yield


def annotate(name: Optional[str] = None) -> Callable:
    """Decorator on the global session."""
    return global_session().annotate(name)
