"""Incremental regression statistics: O(new) per-epoch updates that stay
bit-identical to batch recomputation.

The row-oriented path re-derives everything from scratch each epoch: re-sort
the full series, re-group by epoch, re-mean every baseline prefix, re-score
every window.  Over an E-epoch campaign that is O(E²) means per series —
O(E³) cumulative.  :class:`SeriesState` keeps the per-epoch sample groups,
their means, and the window scores alive between epochs, so absorbing an
epoch costs one group update plus a rescore of the trailing positions whose
inputs actually changed.

The equivalence guarantee is strict, not approximate: every arithmetic
reduction (per-epoch mean, baseline prefix mean, window mean) is performed
with the very same ``np.mean`` calls over identically-ordered operands as
:meth:`RegressionDetector.detect`, so incremental events compare equal —
``RegressionEvent == RegressionEvent``, float-for-float — to a batch rescan
(tests pin this).  That choice costs an O(history) prefix mean per *new*
window position (numpy's pairwise summation cannot be updated in O(1)
without changing the bits), which still turns the per-epoch cost from
O(E²) into O(E).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..regression import RegressionEvent

__all__ = ["SeriesState"]


class SeriesState:
    """Rolling regression state for one (benchmark, system, fom) series.

    Feed raw ``(epoch, value)`` samples through :meth:`extend` as they
    arrive; read the current event list with :meth:`events`.  The state
    holds per-epoch sample groups (so late samples for an old epoch are
    handled: the affected suffix of window scores is re-derived), the
    epoch-mean vector, and the scored window positions.
    """

    def __init__(self, threshold: float = 0.10, window: int = 3,
                 higher_is_better: bool = True):
        if not (0.0 < threshold < 1.0):
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.threshold = threshold
        self.window = window
        self.higher_is_better = higher_is_better
        self.epochs: List[float] = []
        self._samples: List[List[float]] = []
        self._means: List[float] = []
        #: (position, baseline, observed, ratio, bad) — same tuple the batch
        #: detector scores, kept sorted by position
        self._scored: List[Tuple[int, float, float, float, bool]] = []
        self.samples_seen = 0

    # -- ingestion ---------------------------------------------------------
    def extend(self, pairs: Iterable[Tuple[float, float]]) -> None:
        """Absorb new samples; only the affected suffix is re-scored."""
        dirty: Optional[int] = None
        for epoch, value in pairs:
            epoch = float(epoch)
            value = float(value)
            self.samples_seen += 1
            idx = bisect_left(self.epochs, epoch)
            if idx < len(self.epochs) and self.epochs[idx] == epoch:
                self._samples[idx].append(value)
            else:
                self.epochs.insert(idx, epoch)
                self._samples.insert(idx, [value])
                self._means.insert(idx, 0.0)
            dirty = idx if dirty is None else min(dirty, idx)
        if dirty is None:
            return
        # Re-derive epoch means from ``dirty`` on: an insertion shifted
        # later groups, an append changed one group.  Samples are averaged
        # in sorted order — exactly the order the batch path sees them in
        # after ``sorted(pairs)``.
        for idx in range(dirty, len(self.epochs)):
            self._means[idx] = float(np.mean(sorted(self._samples[idx])))
        self._rescore(dirty)

    def _rescore(self, dirty: int) -> None:
        """Recompute window scores whose baseline prefix or observed window
        reaches the first changed epoch index."""
        n = len(self.epochs)
        start = max(self.window, dirty - self.window + 1)
        self._scored = [s for s in self._scored if s[0] < start]
        values = np.asarray(self._means, dtype=float)
        for i in range(start, n - self.window + 1):
            baseline = float(np.mean(values[:i]))
            if baseline == 0:
                continue
            observed = float(np.mean(values[i:i + self.window]))
            ratio = observed / baseline
            bad = (ratio < 1 - self.threshold) if self.higher_is_better \
                else (ratio > 1 + self.threshold)
            self._scored.append((i, baseline, observed, ratio, bad))

    # -- readout -----------------------------------------------------------
    def series(self) -> List[Tuple[float, float]]:
        """The current (epoch, mean) series — what the batch detector would
        have built from the same samples."""
        return list(zip(self.epochs, self._means))

    def events(self, metric: str = "metric") -> List[RegressionEvent]:
        """Collapse scored positions to events, mirroring the batch
        detector's contiguous-run logic tuple-for-tuple."""
        if len(self.epochs) < 2 * self.window:
            return []
        events: List[RegressionEvent] = []
        run: List[Tuple[int, float, float, float, bool]] = []

        def flush_run():
            if not run:
                return
            extreme = min(run, key=lambda s: s[3]) if self.higher_is_better \
                else max(run, key=lambda s: s[3])
            i, baseline, observed, ratio, _ = extreme
            events.append(RegressionEvent(
                metric=metric,
                epoch=float(self.epochs[i]),
                baseline=baseline,
                observed=observed,
                ratio=ratio,
            ))
            run.clear()

        for entry in self._scored:
            if entry[4]:
                run.append(entry)
            else:
                flush_run()
        flush_run()
        return events

    def __len__(self) -> int:
        return len(self.epochs)

    def __repr__(self):
        return (f"SeriesState({len(self.epochs)} epochs, "
                f"{self.samples_seen} samples, window={self.window})")
