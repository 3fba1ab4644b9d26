"""Metrics database (Figure 6): where continuous-benchmarking results land.

§5: "Storing the Benchpark manifest with the performance results will enable
introspection into benchmark performance across systems and time."  Records
therefore carry the full experiment manifest (application/system/experiment
variables) alongside each FOM, a monotonically increasing sequence number
standing in for time, and query/aggregation APIs the dashboard and Thicket
consume.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.caliper import annotate

__all__ = ["MetricRecord", "MetricsDatabase"]


@dataclass(frozen=True)
class MetricRecord:
    seq: int
    benchmark: str
    system: str
    experiment: str
    fom_name: str
    value: Any
    units: str = ""
    manifest: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "benchmark": self.benchmark,
            "system": self.system,
            "experiment": self.experiment,
            "fom_name": self.fom_name,
            "value": self.value,
            "units": self.units,
            "manifest": dict(self.manifest),
        }


class MetricsDatabase:
    """Append-only store of benchmark results."""

    def __init__(self):
        self._records: List[MetricRecord] = []
        self._seq = itertools.count(1)
        # Secondary indexes so the regression detector's (benchmark, system)
        # scans and dashboard (system, experiment) lookups stop walking every
        # sample ever recorded.  Lists keep insertion (seq) order, matching
        # full-scan results exactly.
        self._by_system_benchmark: Dict[Tuple[str, str], List[MetricRecord]] = {}
        self._by_system_experiment: Dict[Tuple[str, str], List[MetricRecord]] = {}

    # -- ingestion -------------------------------------------------------
    def _insert(self, rec: MetricRecord) -> MetricRecord:
        self._records.append(rec)
        self._by_system_benchmark.setdefault((rec.system, rec.benchmark), []).append(rec)
        self._by_system_experiment.setdefault((rec.system, rec.experiment), []).append(rec)
        return rec

    def record(self, benchmark: str, system: str, experiment: str,
               fom_name: str, value: Any, units: str = "",
               manifest: Optional[Dict[str, Any]] = None) -> MetricRecord:
        return self._insert(MetricRecord(
            seq=next(self._seq),
            benchmark=benchmark,
            system=system,
            experiment=experiment,
            fom_name=fom_name,
            value=value,
            units=units,
            manifest=dict(manifest or {}),
        ))

    @annotate("metricsdb.ingest_analysis")
    def ingest_analysis(self, system: str, analysis: Dict[str, Any]) -> int:
        """Load a Ramble ``results.latest.json`` payload; returns the number
        of FOM records stored.  An experiment's records share one copy of
        its variables as their manifest."""
        before = len(self._records)
        for exp in analysis.get("experiments", []):
            manifest = dict(exp.get("variables", {}))
            for fom in exp.get("figures_of_merit", []):
                self._insert(MetricRecord(
                    next(self._seq), exp["application"], system, exp["name"],
                    fom["name"], fom["value"], fom.get("units", ""), manifest))
        return len(self._records) - before

    # -- queries -----------------------------------------------------------
    @staticmethod
    def is_flaky(rec: MetricRecord) -> bool:
        """True when the record came from a retried (non-converged) run —
        the resilience layer tags those with ``flaky``/``attempts`` in the
        manifest."""
        flag = rec.manifest.get("flaky")
        if isinstance(flag, str):
            if flag.lower() in ("true", "1", "yes"):
                return True
        elif flag:
            return True
        try:
            return int(float(rec.manifest.get("attempts", 1))) > 1
        except (TypeError, ValueError):
            return False

    def query(self, benchmark: Optional[str] = None, system: Optional[str] = None,
              fom_name: Optional[str] = None,
              experiment: Optional[str] = None,
              predicate: Optional[Callable[[MetricRecord], bool]] = None,
              exclude_flaky: bool = False) -> List[MetricRecord]:
        # Narrow the candidate set through an index before filtering: the
        # regression detector queries (benchmark, system, fom) per tracked
        # FOM, which was a full scan per call.
        candidates: List[MetricRecord]
        if system is not None and experiment is not None:
            candidates = self._by_system_experiment.get((system, experiment), [])
        elif system is not None and benchmark is not None:
            candidates = self._by_system_benchmark.get((system, benchmark), [])
        else:
            candidates = self._records
        out = []
        for rec in candidates:
            if benchmark is not None and rec.benchmark != benchmark:
                continue
            if system is not None and rec.system != system:
                continue
            if experiment is not None and rec.experiment != experiment:
                continue
            if fom_name is not None and rec.fom_name != fom_name:
                continue
            if predicate is not None and not predicate(rec):
                continue
            if exclude_flaky and self.is_flaky(rec):
                continue
            out.append(rec)
        return out

    def partition(self, system: str, benchmark: str) -> List[MetricRecord]:
        """Every record of one (system, benchmark) pair in seq order.  The
        list only grows, so a reader that remembers how much of it it has
        consumed can read just the new records next time."""
        return self._by_system_benchmark.get((system, benchmark), [])

    def flaky_count(self) -> int:
        return sum(1 for rec in self._records if self.is_flaky(rec))

    @staticmethod
    def point(rec: MetricRecord, x_key: str) -> Optional[Tuple[float, float]]:
        """``(manifest[x_key], value)`` as floats, or None when the key is
        missing or either side is not a finite number — one NaN or
        infinity would poison every window mean of its series."""
        if x_key not in rec.manifest:
            return None
        try:
            x, y = float(rec.manifest[x_key]), float(rec.value)
        except (TypeError, ValueError):
            return None
        return (x, y) if math.isfinite(x) and math.isfinite(y) else None

    def series(self, benchmark: str, system: str, fom_name: str,
               x_key: str, exclude_flaky: bool = False) -> List[tuple]:
        """(manifest[x_key], value) pairs — e.g. nprocs vs total_time for
        the Figure 14 fit — sorted by x."""
        pairs = []
        for rec in self.query(benchmark=benchmark, system=system,
                              fom_name=fom_name, exclude_flaky=exclude_flaky):
            point = self.point(rec, x_key)
            if point is not None:
                pairs.append(point)
        return sorted(pairs)

    def aggregate(self, fom_name: str, group_by: str = "system",
                  exclude_flaky: bool = True) -> Dict[str, Dict[str, float]]:
        """Per-group summary statistics of one FOM.

        Flaky (retried) samples are excluded by default, matching
        :meth:`series` consumers and the regression detector — aggregate
        statistics must not mix converged samples with ones measured while
        the system was flapping.
        """
        groups: Dict[str, List[float]] = {}
        for rec in self.query(fom_name=fom_name, exclude_flaky=exclude_flaky):
            try:
                value = float(rec.value)
            except (TypeError, ValueError):
                continue
            key = getattr(rec, group_by, None) or rec.manifest.get(group_by)
            groups.setdefault(str(key), []).append(value)
        return {
            k: {
                "mean": float(np.mean(v)),
                "min": float(np.min(v)),
                "max": float(np.max(v)),
                "count": len(v),
            }
            for k, v in sorted(groups.items())
        }

    # -- usage metrics (§5: "which codes are accessed most heavily") --------
    def benchmark_usage(self) -> Dict[str, int]:
        usage: Dict[str, int] = {}
        for rec in self._records:
            usage[rec.benchmark] = usage.get(rec.benchmark, 0) + 1
        return dict(sorted(usage.items(), key=lambda kv: -kv[1]))

    # -- persistence -----------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """JSON-serializable record list."""
        return [r.to_dict() for r in self._records]

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "MetricsDatabase":
        """Rebuild a database from :meth:`to_records` output.

        Original sequence numbers are preserved (a round trip is the
        identity, not a re-numbering) and both secondary indexes are
        rebuilt so indexed queries on the loaded database match a full scan.
        """
        db = cls()
        max_seq = 0
        for d in records:
            seq = int(d["seq"]) if d.get("seq") is not None else next(db._seq)
            max_seq = max(max_seq, seq)
            db._insert(MetricRecord(
                seq=seq,
                benchmark=d["benchmark"],
                system=d["system"],
                experiment=d["experiment"],
                fom_name=d["fom_name"],
                value=d["value"],
                units=d.get("units", ""),
                manifest=dict(d.get("manifest") or {}),
            ))
        db._seq = itertools.count(max_seq + 1)
        return db

    def __len__(self):
        return len(self._records)
