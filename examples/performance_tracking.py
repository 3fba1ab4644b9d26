#!/usr/bin/env python3
"""Tracking system performance over time & diagnosing hardware failures.

The paper's §1 lists this as a core benchmarking role once a system is in
service: "benchmarking is a useful tool for tracking system performance
over time and diagnosing hardware failures."

This example runs a 12-epoch continuous-benchmarking history of STREAM on
cts1 while the machine silently degrades — a DIMM drops to half bandwidth
at epoch 5 and is repaired at epoch 9 — then reconstructs the incident
purely from the stored figures of merit:

* the per-epoch FOM history (what the dashboard would plot),
* regression events with epoch, magnitude, and direction,
* the repair visible as recovery in the series.

Usage:  python examples/performance_tracking.py
"""

import tempfile
from pathlib import Path

from repro.analysis.dashboard import ascii_plot
from repro.core.continuous import ContinuousBenchmarking
from repro.systems.failures import Degradation, FailureSchedule


def main() -> int:
    schedule = FailureSchedule([
        (5, Degradation("bad-dimm", memory_bw_factor=0.5)),
        (9, Degradation("dimm-replaced")),
    ])

    with tempfile.TemporaryDirectory() as tmp:
        loop = ContinuousBenchmarking(
            "stream/openmp", "cts1", Path(tmp),
            schedule=schedule,
        )
        print("running 12 benchmarking epochs on cts1 "
              "(failure injected at epoch 5, repair at 9)...\n")
        loop.run(epochs=12)

        history = loop.history("triad_bw")
        print("STREAM Triad bandwidth history (MB/s):")
        print(f"{'epoch':>6} {'triad_bw':>12}")
        for epoch, value in history:
            marker = ""
            if epoch == 5:
                marker = "   <- DIMM degradation injected"
            elif epoch == 9:
                marker = "   <- DIMM replaced"
            print(f"{epoch:>6g} {value:>12.0f}{marker}")

        xs = [e for e, _ in history]
        ys = [v for _, v in history]
        print()
        print(ascii_plot(xs, ys, width=48, height=10))

        print("\nregression scan over the stored history:")
        events = loop.regressions()
        for event in events:
            print(f"  {event}")
        if not events:
            print("  (none)")

        print(f"\n{loop.report()}")

        # Localize the incident from the *major* bandwidth drops: the bad
        # DIMM halves bandwidth (~50% drop), while run-to-run measurement
        # jitter can graze the detector's 10% threshold at any epoch.
        bw_events = [e for e in events
                     if e.metric.rsplit("/", 1)[-1] in ("triad_bw", "copy_bw")
                     and e.ratio < 0.75]
        assert bw_events and 5 <= min(e.epoch for e in bw_events) <= 6, \
            "the injected failure must be localized at its epoch"
        print("\nThe incident was reconstructed from FOM history alone — "
              "no human watched the machine.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
