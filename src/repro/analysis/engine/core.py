"""The analysis engine: incremental regression scans and memoized model fits
over one :class:`~repro.ci.metricsdb.MetricsDatabase`.

One :class:`AnalysisEngine` wraps the database and keeps per-series state
warm between epochs.  The database's per-``(system, benchmark)`` record
lists (:meth:`~repro.ci.metricsdb.MetricsDatabase.partition`) are the only
storage it reads; per series, the engine remembers how many of that
partition's records it has already consumed:

* :meth:`detect` feeds only a series' *new* samples into its persistent
  :class:`SeriesState`, so per-epoch regression scans stop rescanning
  history; :meth:`scan` runs it over many series;
* :meth:`model` returns the last Extra-P fit untouched while no new sample
  extended the series, and refits through the memoized :func:`fit_model`
  otherwise.

Both read the non-flaky samples :meth:`MetricsDatabase.series` returns with
``exclude_flaky=True``, so a scan equals a fresh
:meth:`RegressionDetector.detect_in_db` and a model equals a fresh fit.
Every stage is a Caliper region (``analysis:*``) on one
:class:`~repro.analysis.caliper.CaliperSession`, shared with the campaign
that owns the engine, so a scan's detects nest as
``analysis:scan/analysis:detect``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..caliper import CaliperSession
from ..extrap import _copy_single, fit_model
from ..regression import RegressionEvent, SeriesState

__all__ = ["AnalysisEngine"]

#: (benchmark, system, fom_name, higher_is_better)
Target = Tuple[str, str, str, bool]

#: manifest key of the regression time axis
EPOCH_KEY = "epoch"


class AnalysisEngine:
    """Incremental analysis over a metrics database."""

    def __init__(self, db, threshold: float = 0.10, window: int = 3,
                 session: Optional[CaliperSession] = None):
        self.db = db
        self.threshold = threshold
        self.window = window
        self.session = session or CaliperSession()
        self._states: Dict[Target, SeriesState] = {}
        #: Target -> partition records already consumed
        self._consumed: Dict[Target, int] = {}
        #: (benchmark, system, fom_name, x_key) -> (records consumed, model)
        self._model_memo: Dict[tuple, Tuple[int, Any]] = {}

    def _new_points(self, benchmark: str, system: str, fom_name: str,
                    x_key: str, start: int) -> Tuple[int, List[tuple]]:
        """Partition size and the non-flaky ``(x, value)`` points of one
        series among the partition's records from ``start`` on."""
        records = self.db.partition(system, benchmark)
        points = []
        for rec in records[start:]:
            if rec.fom_name != fom_name or self.db.is_flaky(rec):
                continue
            point = self.db.point(rec, x_key)
            if point is not None:
                points.append(point)
        return len(records), points

    # -- regression detection -------------------------------------------
    def _state(self, target: Target) -> SeriesState:
        state = self._states.get(target)
        if state is None:
            state = self._states[target] = SeriesState(
                threshold=self.threshold,
                window=self.window,
                higher_is_better=target[3],
            )
        return state

    def detect(self, benchmark: str, system: str, fom_name: str,
               higher_is_better: bool = True) -> List[RegressionEvent]:
        """Current regression events for one series, absorbing only the
        samples recorded since this target was last examined."""
        target: Target = (benchmark, system, fom_name, bool(higher_is_better))
        state = self._state(target)
        with self.session.region("analysis:detect"):
            self._consumed[target], points = self._new_points(
                benchmark, system, fom_name, EPOCH_KEY,
                self._consumed.get(target, 0))
            state.extend(points)
            return state.events(metric=f"{benchmark}/{system}/{fom_name}")

    def scan(self, targets: Sequence[Target]) -> List[RegressionEvent]:
        """Detect over many series; events come back sorted by epoch
        (stable in target order, matching the batch loop)."""
        with self.session.region("analysis:scan"):
            events = [e for t in targets for e in self.detect(*t)]
        return sorted(events, key=lambda e: e.epoch)

    # -- model fitting ---------------------------------------------------
    def model(self, benchmark: str, system: str, fom_name: str,
              x_key: str = "nprocs"):
        """Extra-P model of a non-flaky series, memoized twice over: if no
        record since the last fit extended *this* series, the last model
        returns untouched; actual refits go through the process-global
        fingerprint-keyed cache of :func:`fit_model`.

        Returns ``None`` when the series has no measurements yet."""
        key = (benchmark, system, fom_name, x_key)
        with self.session.region("analysis:model"):
            entry = self._model_memo.get(key)
            size, points = self._new_points(benchmark, system, fom_name, x_key,
                                            entry[0] if entry else 0)
            if entry is not None and not points:
                self._model_memo[key] = (size, entry[1])
                # a copy, so callers cannot poison the memo entry
                return _copy_single(entry[1])
            pairs = self.db.series(benchmark, system, fom_name, x_key,
                                   exclude_flaky=True)
            if not pairs:
                return None
            fitted = fit_model(pairs)
            self._model_memo[key] = (size, _copy_single(fitted))
            return fitted

    def __repr__(self):
        return (f"AnalysisEngine({len(self.db)} records, "
                f"{len(self._states)} tracked series)")
