"""X3 — §1's motivation: "tracking system performance over time and
diagnosing hardware failures".

Runs a 10-epoch continuous-benchmarking history of STREAM on cts1 with a
DIMM degradation (memory bandwidth halved) injected at epoch 5 and repaired
at epoch 8, then asks the regression detector to reconstruct the incident
from the stored FOM series alone.  Benchmarks one full epoch of the loop
after that; the assertions and the artifact cover the 10-epoch history
only, so they read the same whether pytest-benchmark runs or is disabled.
"""

from repro.analysis.dashboard import ascii_plot
from repro.core.continuous import ContinuousBenchmarking
from repro.systems.failures import Degradation, FailureSchedule


def test_regression_tracking(benchmark, artifact, tmp_path_factory):
    schedule = FailureSchedule([
        (5, Degradation("bad-dimm", memory_bw_factor=0.5)),
        (8, Degradation("repaired")),
    ])
    loop = ContinuousBenchmarking(
        "stream/openmp", "cts1", tmp_path_factory.mktemp("cb"),
        schedule=schedule,
    )
    loop.run(epochs=10)

    events = loop.regressions()
    bw_events = [e for e in events if "triad_bw" in e.metric]
    assert bw_events, "injected DIMM failure must be detected"
    first = bw_events[0]
    # localized at the failure epoch, magnitude ~the injected 50%
    assert 5 <= first.epoch <= 6
    assert 0.4 <= first.ratio <= 0.6

    history = loop.history("triad_bw")
    xs = [e for e, _ in history]
    ys = [v for _, v in history]
    artifact("regression_tracking", "\n".join([
        loop.report(),
        "",
        "triad bandwidth history (injected failure at epoch 5, repair at 8):",
        ascii_plot(xs, ys, width=48, height=10),
    ]))

    # the benchmarkable unit: one more epoch of the loop
    benchmark.pedantic(loop.run_epoch, rounds=2, iterations=1)


def test_clean_history_stays_clean(tmp_path_factory):
    """No false positives across a healthy 8-epoch history (noise only)."""
    loop = ContinuousBenchmarking(
        "stream/openmp", "cts1", tmp_path_factory.mktemp("cb2"))
    loop.run(epochs=8)
    assert loop.regressions() == []
