"""Mini-Caliper: annotation-based performance introspection (§5, [2,3,19]).

The paper plans to "annotate the benchmarks with Caliper … configured to use
always-on profiling, enabling collection of performance profiles for each
run".  This module provides the same programming model:

* region annotations via context manager / decorator
  (``with region("solve"): ...``, ``@annotate("fom.analyze")``),
* a **context tree** of nested regions with inclusive/exclusive times and
  visit counts,
* one channel: a stack of *active* sessions.  ``with
  session.activate():`` makes ``session`` the innermost one, and the
  module-level :func:`region` and :func:`annotate` record into it, so every
  layer annotates itself without a session passed down to it.  A region
  ends on the session it began on; with no session active, nothing is
  recorded.  The stack is process-wide: the program runs on one thread,
* structured :class:`Profile` output consumable by Thicket
  (:mod:`repro.analysis.thicket`); always-on mode flushes one per run.

Timings are wall-clock by default but can be driven from a simulated clock
(for profiles of SimMPI runs).
"""

from __future__ import annotations

import functools
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional

__all__ = ["CaliperSession", "Profile", "RegionNode", "region", "annotate",
           "active_session"]

#: the active sessions, innermost last
_active: List["CaliperSession"] = []


class RegionNode:
    """One node of the Caliper context tree."""

    def __init__(self, name: str, parent: Optional["RegionNode"] = None):
        self.name = name
        self.parent = parent
        self.children: Dict[str, "RegionNode"] = {}
        self.visits = 0
        self.inclusive = 0.0
        #: clock reading at the open visit's begin
        self.started = 0.0

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
        #: the open regions, outermost first, under the root
        self._stack: List[RegionNode] = [self._root]

    # -- annotation API --------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._stack[-1]
        node = parent.children.get(name) or parent.child(name)
        node.visits += 1
        self._stack.append(node)
        node.started = self.clock()

    def end(self, name: str) -> None:
        stack = self._stack
        node = stack[-1]
        if len(stack) <= 1:
            raise RuntimeError(f"cali end({name!r}) without matching begin")
        if node.name != name:
            raise RuntimeError(
                f"mismatched region end: expected {node.name!r}, got {name!r}"
            )
        node.inclusive += self.clock() - node.started
        stack.pop()

    def region(self, name: str) -> "_Region":
        """``with session.region(name):`` — a region on this session,
        active or not."""
        return _Region(self, name)

    def activate(self) -> "_Activation":
        """``with session.activate():`` — make this the innermost active
        session, the one :func:`region` and :func:`annotate` record into,
        until the block exits.  Activations nest."""
        return _Activation(self)

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
        # the unnamed root spans its top-level regions, so its exclusive
        # time is zero rather than minus their total
        self._root.inclusive = sum(
            c.inclusive for c in self._root.children.values())
        profile = Profile(self._root, merged)
        self._root = RegionNode("")
        self._stack = [self._root]
        return profile


class _Activation:
    """One session on the active stack for the span of a ``with`` block."""

    __slots__ = ("session",)

    def __init__(self, session: CaliperSession):
        self.session = session

    def __enter__(self) -> CaliperSession:
        _active.append(self.session)
        return self.session

    def __exit__(self, *exc) -> None:
        _active.pop()


class _Region:
    """One region's begin and end on one session."""

    __slots__ = ("session", "name")

    def __init__(self, session: CaliperSession, name: str):
        self.session = session
        self.name = name

    def __enter__(self) -> None:
        self.session.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.session.end(self.name)


def active_session() -> Optional[CaliperSession]:
    """The innermost active session, or None."""
    return _active[-1] if _active else None


#: what :func:`region` returns when no session is active
_NO_REGION = nullcontext()


def region(name: str) -> ContextManager[None]:
    """``with region(name):`` — a region on the innermost active session
    (``cali.mark`` style), ended on that session whatever is activated
    inside the block; a no-op when no session is active."""
    return _Region(_active[-1], name) if _active else _NO_REGION


def annotate(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`region`: ``@annotate()`` names the region
    after the function, ``@annotate("x")`` names it ``x``."""

    def wrap(fn: Callable) -> Callable:
        label = name or fn.__name__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if not _active:
                return fn(*args, **kwargs)
            session = _active[-1]
            session.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                session.end(label)

        return inner

    return wrap
