"""The analysis engine: incremental regression scans over one
:class:`~repro.ci.metricsdb.MetricsDatabase`.

One :class:`AnalysisEngine` wraps the database and keeps per-series state
warm between epochs.  The database's per-``(system, benchmark)`` record
lists (:meth:`~repro.ci.metricsdb.MetricsDatabase.partition`) are the only
storage it reads; per series, the engine remembers how many of that
partition's records it has already consumed.  :meth:`detect` feeds only a
series' *new* non-flaky samples into its persistent :class:`SeriesState`,
so per-epoch regression scans stop rescanning history, and a scan equals a
fresh :meth:`RegressionDetector.detect_in_db`; :meth:`scan` runs it over
many series.  Every stage is a Caliper region (``analysis:*``) on the
active :class:`~repro.analysis.caliper.CaliperSession` — the campaign's,
while its ``regressions()`` scan runs — so a scan's detects nest as
``analysis:scan/analysis:detect``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..caliper import annotate
from ..regression import RegressionEvent, SeriesState

__all__ = ["AnalysisEngine"]

#: (benchmark, system, fom_name, higher_is_better)
Target = Tuple[str, str, str, bool]

#: manifest key of the regression time axis
EPOCH_KEY = "epoch"


class AnalysisEngine:
    """Incremental analysis over a metrics database."""

    def __init__(self, db, threshold: float = 0.10, window: int = 3):
        self.db = db
        self.threshold = threshold
        self.window = window
        self._states: Dict[Target, SeriesState] = {}
        #: Target -> partition records already consumed
        self._consumed: Dict[Target, int] = {}

    def _state(self, target: Target) -> SeriesState:
        state = self._states.get(target)
        if state is None:
            state = self._states[target] = SeriesState(
                threshold=self.threshold,
                window=self.window,
                higher_is_better=target[3],
            )
        return state

    @annotate("analysis:detect")
    def detect(self, benchmark: str, system: str, fom_name: str,
               higher_is_better: bool = True) -> List[RegressionEvent]:
        """Current regression events for one series, absorbing only the
        samples recorded since this target was last examined."""
        target: Target = (benchmark, system, fom_name, bool(higher_is_better))
        state = self._state(target)
        records = self.db.partition(system, benchmark)
        points = []
        for rec in records[self._consumed.get(target, 0):]:
            if rec.fom_name != fom_name or self.db.is_flaky(rec):
                continue
            point = self.db.point(rec, EPOCH_KEY)
            if point is not None:
                points.append(point)
        self._consumed[target] = len(records)
        state.extend(points)
        return state.events(metric=f"{benchmark}/{system}/{fom_name}")

    @annotate("analysis:scan")
    def scan(self, targets: Sequence[Target]) -> List[RegressionEvent]:
        """Detect over many series; events come back sorted by epoch
        (stable in target order, matching the batch loop)."""
        events = [e for t in targets for e in self.detect(*t)]
        return sorted(events, key=lambda e: e.epoch)

    def __repr__(self):
        return (f"AnalysisEngine({len(self.db)} records, "
                f"{len(self._states)} tracked series)")
