"""ContentStore — a generic content-addressed cache with hit/miss accounting.

Every incremental layer of the pipeline (memoized concretization,
epoch-level result replay) shares this one primitive: a map from
:func:`repro.perf.fingerprint` digests to previously computed results, with
statistics good enough to gate CI on ("warm hit rate must stay ≥ 90%").

The store lives in memory, and its counters cover this process only.  A
campaign journal is the one place a result cache is persisted: each epoch's
line carries the results that epoch ingested, with its cache key when they
are cacheable, and a resumed campaign puts them back.  The campaign counts
its replays from its own lines; the store knows nothing of journals.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["ContentStore"]


class ContentStore:
    """In-memory content-addressed cache."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # -- core map interface -------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting the access as a hit or miss."""
        if key in self._entries:
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return default

    def peek(self, key: str, default: Any = None) -> Any:
        """Look up without touching the statistics."""
        return self._entries.get(key, default)

    def put(self, key: str, value: Any) -> Any:
        self._entries[key] = value
        self.puts += 1
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset all counters."""
        self._entries.clear()
        self.hits = self.misses = self.puts = 0

    # -- statistics -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """This process's counters, since creation or the last clear."""
        lookups = self.hits + self.misses
        return {
            "name": self.name,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "lookups": lookups,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def __repr__(self):
        s = self.stats()
        return (f"ContentStore({self.name!r}, {s['entries']} entries, "
                f"{s['hits']}h/{s['misses']}m)")
