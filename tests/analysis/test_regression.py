"""Tests for the regression detector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.regression import (RegressionDetector, RegressionEvent,
                                       SeriesState, epoch_means)
from repro.ci.metricsdb import MetricsDatabase

from .batch_oracle import oracle


def series(values):
    return list(enumerate(values))


class TestDetector:
    def test_flat_series_clean(self):
        d = RegressionDetector(threshold=0.1, window=3)
        assert d.detect(series([100.0] * 12)) == []

    def test_drop_detected(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=True)
        events = d.detect(series([100.0] * 6 + [70.0] * 6), metric="bw")
        assert len(events) == 1
        event = events[0]
        assert event.metric == "bw"
        assert event.ratio < 0.9
        assert 4 <= event.epoch <= 7  # localized near the change point

    def test_rise_is_fine_for_throughput(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=True)
        assert d.detect(series([100.0] * 6 + [130.0] * 6)) == []

    def test_latency_direction(self):
        d = RegressionDetector(threshold=0.1, window=3, higher_is_better=False)
        assert d.detect(series([10.0] * 6 + [14.0] * 6))
        assert d.detect(series([10.0] * 6 + [7.0] * 6)) == []

    def test_small_change_below_threshold(self):
        d = RegressionDetector(threshold=0.2, window=3)
        assert d.detect(series([100.0] * 6 + [90.0] * 6)) == []

    def test_consecutive_windows_collapsed(self):
        d = RegressionDetector(threshold=0.1, window=2)
        events = d.detect(series([100.0] * 5 + [50.0] * 10))
        assert len(events) == 1

    def test_two_separate_regressions(self):
        d = RegressionDetector(threshold=0.15, window=2)
        values = [100.0] * 4 + [80.0] * 4 + [100.0] * 4 + [60.0] * 4
        # recovery in between resets the detector; the later drop re-fires
        events = d.detect(series(values))
        assert len(events) >= 2

    def test_too_short_series(self):
        d = RegressionDetector(window=3)
        assert d.detect(series([100.0] * 5)) == []

    def test_noise_tolerance(self):
        import numpy as np

        rng = np.random.default_rng(0)
        clean = 100.0 * (1.0 + rng.normal(0, 0.02, size=20))
        d = RegressionDetector(threshold=0.1, window=3)
        assert d.detect(series(list(clean))) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegressionDetector(threshold=0.0)
        with pytest.raises(ValueError):
            RegressionDetector(window=0)

    def test_event_str(self):
        e = RegressionEvent("bw", 5.0, 100.0, 70.0, 0.7)
        assert "dropped 30.0%" in str(e)
        assert "epoch 5" in str(e)

    def test_detect_in_db_averages_per_epoch(self):
        db = MetricsDatabase()
        for epoch in range(8):
            value = 100.0 if epoch < 4 else 60.0
            for exp in ("a", "b"):
                db.record("saxpy", "cts1", exp, "bandwidth",
                          value, "GB/s", {"epoch": str(epoch)})
        d = RegressionDetector(threshold=0.1, window=2)
        events = d.detect_in_db(db, "saxpy", "cts1", "bandwidth")
        assert len(events) == 1
        assert events[0].metric == "saxpy/cts1/bandwidth"

    def test_detect_averages_repeated_epochs(self):
        # two samples at epoch 2 (60 and 100) form one window position with
        # mean 80, as in detect_in_db and the campaign's engine, not a 60
        # window followed by a 100 one
        samples = [(0, 95.0), (0, 95.0), (2, 60.0), (2, 100.0), (3, 95.0),
                   (3, 95.0), (3, 100.0), (4, 100.0), (5, 95.0), (6, 60.0),
                   (6, 100.0)]
        events = RegressionDetector(threshold=0.10, window=1).detect(samples)
        state = SeriesState(threshold=0.10, window=1)
        state.extend(samples)
        assert events == state.events()
        assert events[0].epoch == 2.0
        assert events[0].observed == 80.0
        assert events[0].ratio == pytest.approx(80.0 / 95.0)


#: raw sample values: exact zeros and signed levels that cancel, so a
#: baseline can be 0; a few levels, so windows cross every threshold; noise
_values = st.one_of(
    st.just(0.0),
    st.sampled_from([60.0, 80.0, 100.0, -100.0]),
    st.floats(min_value=-200.0, max_value=200.0,
              allow_nan=False, allow_infinity=False),
)


@given(
    # epochs drawn from a small range, in drawn order: repeated, late and
    # out-of-order epochs
    st.lists(st.tuples(st.integers(min_value=0, max_value=14), _values),
             max_size=45),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.05, 0.1, 0.2]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_detect_equals_batch_oracle(samples, window, threshold, hib):
    """Property: detect over raw samples equals the batch oracle over their
    per-epoch means, event for event and float for float."""
    got = RegressionDetector(threshold, window, hib).detect(samples, "m")
    assert got == oracle(epoch_means(samples), threshold, window, hib, "m")


@given(
    st.floats(min_value=10.0, max_value=1000.0),
    st.floats(min_value=0.3, max_value=0.7),
    st.integers(min_value=4, max_value=10),
)
@settings(max_examples=30, deadline=None)
def test_detector_always_finds_big_cliff(baseline, drop_factor, pre_len):
    """Property: a clean >=30% cliff is always detected, never missed."""
    values = [baseline] * pre_len + [baseline * drop_factor] * 6
    d = RegressionDetector(threshold=0.2, window=3)
    events = d.detect(series(values))
    assert len(events) == 1
    assert events[0].ratio == pytest.approx(drop_factor, rel=0.25)


@given(st.floats(min_value=1.0, max_value=1e6), st.integers(8, 24))
@settings(max_examples=20, deadline=None)
def test_detector_never_fires_on_constants(value, n):
    d = RegressionDetector(threshold=0.05, window=3)
    assert d.detect(series([value] * n)) == []
