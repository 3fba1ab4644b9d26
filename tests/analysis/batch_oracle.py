"""Reference implementation of the regression rule, for tests only.

This is the batch scoring loop that :class:`RegressionDetector` ran before
:class:`~repro.analysis.regression.SeriesState` became the one scorer, kept
verbatim apart from taking the detector's parameters as arguments.  It
re-derives every window score from scratch over an ``(epoch, mean)``
series, one value per epoch (build one from raw samples with
:func:`~repro.analysis.regression.epoch_means`), so the incremental scorer
can be checked against an independent computation.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.regression import RegressionEvent


def oracle(series: Sequence[Tuple[float, float]], threshold: float = 0.10,
           window: int = 3, higher_is_better: bool = True,
           metric: str = "metric") -> List[RegressionEvent]:
    """Scan an (epoch, value) series; returns one event per contiguous
    run of window positions whose mean shifted past the threshold in
    the bad direction, located at the run's most-deviant window."""
    pts = sorted(series)
    n = len(pts)
    if n < 2 * window:
        return []
    epochs = np.array([p[0] for p in pts], dtype=float)
    values = np.array([p[1] for p in pts], dtype=float)

    # Score every window position, then collapse each contiguous run of
    # bad positions to its most-deviant window — the first position of a
    # cliff mixes pre- and post-change samples, so reporting it directly
    # would misstate both the epoch and the magnitude.
    scored = []
    for i in range(window, n - window + 1):
        baseline = float(np.mean(values[:i]))
        if baseline == 0:
            continue
        observed = float(np.mean(values[i:i + window]))
        ratio = observed / baseline
        bad = (ratio < 1 - threshold) if higher_is_better \
            else (ratio > 1 + threshold)
        scored.append((i, baseline, observed, ratio, bad))

    events: List[RegressionEvent] = []
    run: List[tuple] = []

    def flush_run():
        if not run:
            return
        extreme = min(run, key=lambda s: s[3]) if higher_is_better \
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
