"""Performance-regression detection over continuous-benchmarking history.

The payoff of the paper's §1 motivation: once "benchmark results stay
up-to-date", the stored series can flag when "hardware failures" or stack
changes degrade performance.  The rule compares a sliding recent window of a
metric's per-epoch means against the mean of every earlier epoch, and raises
:class:`RegressionEvent` records when the relative change crosses a threshold
in the bad direction.

:class:`SeriesState` is the one implementation of that rule.  It keeps one
series' per-epoch sample groups, their means and the scored window positions
alive between epochs, so absorbing an epoch costs one group update plus a
rescore of the trailing positions whose inputs changed.
:class:`RegressionDetector` is the one-shot front end: each call feeds a
fresh :class:`SeriesState` and returns its events.

The baseline of position ``i`` is ``np.mean(means[:i])``, numpy's pairwise
sum over the whole prefix.  A pairwise sum cannot be updated in O(1) without
changing its bits, so each *new* window position still costs an O(history)
mean: O(E) per epoch rather than the O(E²) of a full rescan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["RegressionEvent", "RegressionDetector", "SeriesState",
           "epoch_means"]


def epoch_means(samples: Iterable[Tuple[float, float]]
                ) -> List[Tuple[float, float]]:
    """Average raw (epoch, value) samples per epoch: the (epoch, mean)
    series, sorted by epoch, with each epoch's values averaged in sorted
    order."""
    by_epoch: dict = {}
    for epoch, value in sorted(samples):
        by_epoch.setdefault(epoch, []).append(value)
    return [(e, float(np.mean(v))) for e, v in sorted(by_epoch.items())]


@dataclass(frozen=True)
class RegressionEvent:
    """One detected regression."""

    metric: str
    epoch: float  # first epoch of the degraded window
    baseline: float
    observed: float
    #: observed/baseline; < 1 is a drop in the metric's raw value
    ratio: float

    @property
    def percent_change(self) -> float:
        return (self.ratio - 1.0) * 100.0

    def __str__(self):
        direction = "dropped" if self.ratio < 1 else "rose"
        return (f"{self.metric}: {direction} {abs(self.percent_change):.1f}% "
                f"at epoch {self.epoch:g} "
                f"(baseline {self.baseline:.4g} -> {self.observed:.4g})")


class SeriesState:
    """Rolling regression state for one (benchmark, system, fom) series.

    Feed raw ``(epoch, value)`` samples through :meth:`extend` as they
    arrive; read the current event list with :meth:`events`.  Samples of one
    epoch are averaged, so late samples for an old epoch are handled: the
    affected suffix of window scores is re-derived.

    Parameters
    ----------
    threshold:
        minimum relative change (e.g. 0.10 = 10%) to report.
    window:
        number of epochs in the recent window; the baseline is the mean of
        all earlier epochs (at least ``window`` of them required).
    higher_is_better:
        True for throughput-style metrics (bandwidth, FOMs): a *drop* is a
        regression.  False for time/latency metrics: a *rise* is one.
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
        #: (position, baseline, observed, ratio, bad), sorted by position
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
        # in sorted order, as :func:`epoch_means` does, so the mean does not
        # depend on arrival order.
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
        """The current (epoch, mean) series: :func:`epoch_means` of every
        sample fed so far."""
        return list(zip(self.epochs, self._means))

    def events(self, metric: str = "metric") -> List[RegressionEvent]:
        """One event per contiguous run of bad window positions, located at
        the run's most-deviant window: the first position of a cliff mixes
        pre- and post-change epochs, so reporting it directly would misstate
        both the epoch and the magnitude."""
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


class RegressionDetector:
    """One-shot sliding-window mean-shift detector over a whole series.

    Takes the parameters of :class:`SeriesState` and scores each series
    through a fresh one.
    """

    def __init__(self, threshold: float = 0.10, window: int = 3,
                 higher_is_better: bool = True):
        SeriesState(threshold, window)  # rejects a bad threshold or window
        self.threshold = threshold
        self.window = window
        self.higher_is_better = higher_is_better

    def detect(self, series: Iterable[Tuple[float, float]],
               metric: str = "metric") -> List[RegressionEvent]:
        """Scan raw (epoch, value) samples in any order.  Samples sharing an
        epoch are averaged first (:func:`epoch_means`), so the window slides
        over epochs, not samples; the events are :meth:`SeriesState.events`."""
        state = SeriesState(self.threshold, self.window,
                            self.higher_is_better)
        state.extend(series)
        return state.events(metric)

    def detect_in_db(self, db, benchmark: str, system: str,
                     fom_name: str) -> List[RegressionEvent]:
        """Run detection over a metrics-database series, with
        ``manifest["epoch"]`` as the time axis.

        Samples from retried (flaky) runs are excluded: a FOM measured while
        the system was flapping is not evidence of a regression, only of the
        transient fault the resilience layer already retried.
        """
        return self.detect(db.series(benchmark, system, fom_name, "epoch",
                                     exclude_flaky=True),
                           metric=f"{benchmark}/{system}/{fom_name}")
