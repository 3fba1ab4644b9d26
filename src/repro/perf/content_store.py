"""ContentStore — a generic content-addressed cache with hit/miss accounting.

Every incremental layer of the pipeline (memoized concretization, CI job
reuse, epoch-level result replay) shares this one primitive: a map from
:func:`repro.perf.fingerprint` digests to previously computed results, with
statistics good enough to gate CI on ("warm hit rate must stay ≥ 90%").

The store lives in memory.  A campaign journal is the one place a result
cache is persisted: each epoch's line carries the results that epoch
ingested, with its cache key when they are cacheable, and the store's
cumulative counters; :meth:`restore` folds them back in on resume — a
resumed campaign reports lifetime hit rates, not per-resume ones.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["ContentStore"]

_STAT_KEYS = ("hits", "misses", "puts")


class ContentStore:
    """In-memory content-addressed cache."""

    def __init__(self, name: str = "store"):
        self.name = name
        self._entries: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: counters carried over from a prior life (journal resume)
        self._baseline = {k: 0 for k in _STAT_KEYS}

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
        """Drop all entries and reset all counters (including baseline)."""
        self._entries.clear()
        self.hits = self.misses = self.puts = 0
        self._baseline = {k: 0 for k in _STAT_KEYS}

    # -- statistics -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cumulative statistics (baseline from any restored snapshot plus
        this life's counters)."""
        hits = self.hits + self._baseline["hits"]
        misses = self.misses + self._baseline["misses"]
        lookups = hits + misses
        return {
            "name": self.name,
            "entries": len(self._entries),
            "hits": hits,
            "misses": misses,
            "puts": self.puts + self._baseline["puts"],
            "lookups": lookups,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    # -- journal integration ---------------------------------------------
    def restore(self, entries: Dict[str, Any],
                stats: Optional[Dict[str, int]] = None) -> "ContentStore":
        """Merge journaled ``entries`` without counting them as puts, and
        add ``stats`` (a prior life's cumulative counters) to the baseline,
        so :meth:`stats` reports lifetime totals across restarts."""
        self._entries.update(entries)
        for k in _STAT_KEYS:
            self._baseline[k] += int((stats or {}).get(k, 0))
        return self

    def __repr__(self):
        s = self.stats()
        return (f"ContentStore({self.name!r}, {s['entries']} entries, "
                f"{s['hits']}h/{s['misses']}m)")
