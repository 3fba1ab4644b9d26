"""Tests for the continuous-benchmarking loop + regression tracking."""

import pytest

from repro.core.continuous import ContinuousBenchmarking
from repro.systems.failures import Degradation, FailureSchedule


class TestContinuousLoop:
    def test_epochs_accumulate_records(self, tmp_path):
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path)
        loop.run(epochs=2)
        assert loop.epochs_run == 2
        assert len(loop.db) > 0
        history = loop.history("triad_bw")
        assert [e for e, _ in history] == [0.0, 1.0]

    def test_healthy_history_has_no_regressions(self, tmp_path, fixed_clock):
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path)
        loop.run(epochs=6)
        assert loop.regressions() == []

    def test_injected_dimm_failure_detected(self, tmp_path):
        """The §1 motivation end to end: a DIMM degradation at epoch 4
        appears as a bandwidth regression located at/after epoch 4."""
        schedule = FailureSchedule(
            [(4, Degradation("bad-dimm", memory_bw_factor=0.5))]
        )
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path,
                                      schedule=schedule)
        loop.run(epochs=8)
        events = loop.regressions()
        assert events, "injected 2x bandwidth loss must be detected"
        bw_events = [e for e in events if "triad_bw" in e.metric]
        assert bw_events
        assert bw_events[0].epoch >= 4
        assert bw_events[0].ratio == pytest.approx(0.5, rel=0.2)

    def test_repaired_system_recovers(self, tmp_path):
        schedule = FailureSchedule([
            (2, Degradation("bad-dimm", memory_bw_factor=0.5)),
            (5, Degradation("healthy-again")),
        ])
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path,
                                      schedule=schedule)
        loop.run(epochs=8)
        history = dict(loop.history("triad_bw"))
        assert history[7.0] > history[3.0] * 1.5  # post-repair ≫ degraded

    def test_report_mentions_events(self, tmp_path):
        schedule = FailureSchedule(
            [(3, Degradation("bad-dimm", memory_bw_factor=0.4))]
        )
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path,
                                      schedule=schedule)
        loop.run(epochs=7)
        report = loop.report()
        assert "regression" in report
        assert "stream/openmp on cts1" in report

    def test_epoch_tag_in_manifest(self, tmp_path):
        loop = ContinuousBenchmarking("stream/openmp", "cts1", tmp_path)
        loop.run(epochs=1)
        rec = loop.db.query(fom_name="triad_bw")[0]
        assert rec.manifest["epoch"] == "0"

    def test_noise_varies_across_epochs(self, tmp_path):
        """Without epoch-salted jitter every epoch would be identical and
        regression detection would be trivially clean."""
        loop = ContinuousBenchmarking("stream/openmp", "cloud-c6i", tmp_path)
        loop.run(epochs=3)
        values = [v for _, v in loop.history("triad_bw")]
        assert len(set(values)) > 1
