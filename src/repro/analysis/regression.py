"""Performance-regression detection over continuous-benchmarking history.

The payoff of the paper's §1 motivation: once "benchmark results stay
up-to-date", the stored series can flag when "hardware failures" or stack
changes degrade performance.  :class:`RegressionDetector` compares a sliding
recent window of a metric series against the preceding baseline window and
raises :class:`RegressionEvent` records when the relative change crosses a
threshold in the bad direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["RegressionEvent", "RegressionDetector", "epoch_means"]


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


class RegressionDetector:
    """Sliding-window mean-shift detector.

    Parameters
    ----------
    threshold:
        minimum relative change (e.g. 0.10 = 10%) to report.
    window:
        number of samples in the recent window; the baseline is the mean of
        all earlier samples (at least ``window`` of them required).
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

    def detect(self, series: Sequence[Tuple[float, float]],
               metric: str = "metric") -> List[RegressionEvent]:
        """Scan an (epoch, value) series; returns one event per contiguous
        run of window positions whose mean shifted past the threshold in
        the bad direction, located at the run's most-deviant window."""
        pts = sorted(series)
        n = len(pts)
        if n < 2 * self.window:
            return []
        epochs = np.array([p[0] for p in pts], dtype=float)
        values = np.array([p[1] for p in pts], dtype=float)

        # Score every window position, then collapse each contiguous run of
        # bad positions to its most-deviant window — the first position of a
        # cliff mixes pre- and post-change samples, so reporting it directly
        # would misstate both the epoch and the magnitude.
        scored = []
        for i in range(self.window, n - self.window + 1):
            baseline = float(np.mean(values[:i]))
            if baseline == 0:
                continue
            observed = float(np.mean(values[i:i + self.window]))
            ratio = observed / baseline
            bad = (ratio < 1 - self.threshold) if self.higher_is_better \
                else (ratio > 1 + self.threshold)
            scored.append((i, baseline, observed, ratio, bad))

        events: List[RegressionEvent] = []
        run: List[tuple] = []

        def flush_run():
            if not run:
                return
            extreme = min(run, key=lambda s: s[3]) if self.higher_is_better \
                else max(run, key=lambda s: s[3])
            i, baseline, observed, ratio, _ = extreme
            events.append(RegressionEvent(
                metric=metric,
                epoch=float(epochs[i]),
                baseline=baseline,
                observed=observed,
                ratio=ratio,
            ))
            run.clear()

        for entry in scored:
            if entry[4]:
                run.append(entry)
            else:
                flush_run()
        flush_run()
        return events

    def detect_in_db(self, db, benchmark: str, system: str, fom_name: str,
                     epoch_key: str = "epoch",
                     exclude_flaky: bool = True) -> List[RegressionEvent]:
        """Run detection over a metrics-database series (manifest[epoch_key]
        is the time axis).  Multiple experiments per epoch are averaged.

        Samples from retried (flaky) runs are excluded by default: a FOM
        measured while the system was flapping is not evidence of a
        regression, only of the transient fault the resilience layer
        already retried.
        """
        series = epoch_means(db.series(benchmark, system, fom_name, epoch_key,
                                       exclude_flaky=exclude_flaky))
        return self.detect(series, metric=f"{benchmark}/{system}/{fom_name}")
