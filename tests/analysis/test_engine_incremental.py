"""Incremental regression state vs. batch recomputation — the equivalence
is bit-identical (dataclass equality over float fields), not approximate.
The batch loop in ``batch_oracle`` over :func:`epoch_means` of the raw
samples is the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.caliper import CaliperSession
from repro.analysis.engine import AnalysisEngine
from repro.analysis.regression import SeriesState, epoch_means
from repro.ci.metricsdb import MetricsDatabase

from .batch_oracle import oracle


def _history(n_epochs=16, step_at=10, noise=0.03):
    """Deterministic noisy series with a 20% step regression."""
    rng = np.random.default_rng(42)
    series = []
    for epoch in range(n_epochs):
        base = 100.0 if epoch < step_at else 80.0
        for _ in range(3):
            series.append((float(epoch), base * (1 + noise * rng.standard_normal())))
    return series


def _batch(series, window=3, higher_is_better=True, metric="m"):
    """The reference: average raw samples per epoch, then run the batch
    oracle at threshold 0.10."""
    return oracle(epoch_means(series), 0.10, window, higher_is_better, metric)


def _batch_in_db(db, benchmark, system, fom, window, higher_is_better):
    """The reference for one database series: its non-flaky samples along
    the epoch axis, as the engine reads them."""
    return _batch(db.series(benchmark, system, fom, "epoch",
                            exclude_flaky=True),
                  window, higher_is_better, f"{benchmark}/{system}/{fom}")


class TestBitIdentity:
    def test_one_shot_equals_batch(self):
        series = _history()
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        state.extend(series)
        assert state.events("m") == _batch(series)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    def test_chunked_feed_equals_batch(self, chunk):
        series = _history()
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        for i in range(0, len(series), chunk):
            state.extend(series[i:i + chunk])
            # at every intermediate point the state equals a full rescan of
            # everything fed so far
            assert state.events("m") == _batch(series[:i + chunk])

    def test_late_samples_for_old_epochs(self):
        # a sample arriving for an already-scored epoch must shift the
        # affected suffix exactly as a batch rescan would
        series = _history()
        late = [(2.0, 60.0), (11.0, 95.0)]
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        state.extend(series)
        state.extend(late)
        assert state.events("m") == _batch(series + late)

    def test_lower_is_better_metrics(self):
        series = [(float(e), 10.0 if e < 6 else 13.0) for e in range(12)]
        state = SeriesState(threshold=0.10, window=2, higher_is_better=False)
        for pair in series:
            state.extend([pair])
        events = state.events("walltime")
        assert events == oracle(series, 0.10, 2, False, "walltime")
        assert len(events) == 1 and events[0].ratio > 1.0

    def test_short_series_reports_nothing(self):
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        state.extend([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
        assert state.events() == []

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.floats(min_value=1.0, max_value=200.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=0, max_size=40),
        st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_property_random_feeds(self, pairs, window):
        series = [(float(e), v) for e, v in pairs]
        state = SeriesState(threshold=0.10, window=window,
                            higher_is_better=True)
        state.extend(series)
        assert state.events("m") == _batch(series, window)
        assert state.series() == epoch_means(series)


class TestEngineScanParity:
    TARGETS = [("stream", "cts1", "triad_bw", True),
               ("stream", "tioga", "triad_bw", True),
               ("saxpy", "cts1", "walltime", False)]

    def _record_epoch(self, db, epoch):
        rng = np.random.default_rng(1000 + epoch)
        for benchmark, system, fom, hib in self.TARGETS:
            base = 100.0 if hib else 10.0
            if epoch >= 9:
                base *= 0.8 if hib else 1.3
            for exp in ("a", "b"):
                manifest = {"epoch": str(epoch)}
                if epoch == 4 and exp == "b":
                    manifest["flaky"] = "true"
                db.record(benchmark, system, exp, fom,
                          base * (1 + 0.02 * rng.standard_normal()),
                          "u", manifest)

    def test_scan_equals_batch_after_every_epoch(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(14):
            self._record_epoch(db, epoch)
            got = engine.scan(self.TARGETS)
            expected = []
            for benchmark, system, fom, hib in self.TARGETS:
                expected.extend(_batch_in_db(db, benchmark, system, fom, 3,
                                             hib))
            assert got == sorted(expected, key=lambda e: e.epoch)
        assert got  # the injected step was actually reported

    def test_detect_consumes_each_sample_once(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(12):
            self._record_epoch(db, epoch)
        engine.scan(self.TARGETS)
        state = engine._state(("stream", "cts1", "triad_bw", True))
        seen = state.samples_seen
        engine.scan(self.TARGETS)  # no new data: nothing re-absorbed
        assert state.samples_seen == seen

    def test_profiler_records_stage_timings(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=3)
        for epoch in range(8):
            self._record_epoch(db, epoch)
        session = CaliperSession()
        with session.activate():
            engine.scan(self.TARGETS)
        regions = session.regions()
        assert regions["analysis:scan"].visits == 1
        # one detect per target, nested under the scan that ran it
        assert regions["analysis:scan/analysis:detect"].visits == len(
            self.TARGETS)
        assert "analysis:detect" not in regions


#: series the differential test scans; the last is never recorded
SCANNED = [("stream", "cts1", "triad_bw", True),
           ("stream", "tioga", "triad_bw", True),
           ("saxpy", "cts1", "walltime", False),
           ("ghost", "cts1", "triad_bw", True)]

_record = st.tuples(
    # mostly the scanned series; also a scanned partition's other FOM and
    # an unscanned series
    st.sampled_from([("stream", "cts1", "triad_bw")] * 3
                    + [("stream", "tioga", "triad_bw")] * 2
                    + [("saxpy", "cts1", "walltime")] * 2
                    + [("stream", "cts1", "copy_bw"),
                       ("osu", "ats2", "total_time")]),
    # epochs behind the batch's own: late, out-of-order and repeated
    # epochs; None drops the epoch key
    st.sampled_from([0, 0, 0, 0, 1, 2, 5, None]),
    # two performance levels, so windows do cross the threshold
    st.one_of(st.floats(min_value=90.0, max_value=110.0),
              st.floats(min_value=50.0, max_value=70.0),
              st.sampled_from(["n/a", "", None, float("nan"),
                               float("inf"), float("-inf")])),
    st.sampled_from([{}, {}, {}, {"flaky": "false", "attempts": "1"},
                     {"flaky": "true"}, {"attempts": "2"}]),
)


def _oracle(db, window):
    events = []
    for benchmark, system, fom, hib in SCANNED:
        events.extend(_batch_in_db(db, benchmark, system, fom, window, hib))
    return sorted(events, key=lambda e: e.epoch)


class TestEngineDifferential:
    @given(st.lists(st.lists(_record, min_size=3, max_size=12),
                    min_size=1, max_size=10),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=9))
    @settings(max_examples=80, deadline=None)
    def test_scans_equal_detect_in_db(self, batches, window, rebuild_at):
        db = MetricsDatabase()
        engine = AnalysisEngine(db, threshold=0.10, window=window)
        for i, batch in enumerate(batches):
            if i == rebuild_at:
                # a fresh engine over the same database reaches the events
                # the live engine reached
                before = engine.scan(SCANNED)
                engine = AnalysisEngine(db, threshold=0.10, window=window)
                assert engine.scan(SCANNED) == before
            for (benchmark, system, fom), lag, value, tags in batch:
                manifest = dict(tags)
                if lag is not None:
                    manifest["epoch"] = str(i - lag)
                db.record(benchmark, system, "e", fom, value, "u", manifest)
            assert engine.scan(SCANNED) == _oracle(db, window)


class TestNonFiniteSamples:
    #: a 30% drop at epoch 6; None marks the non-finite sample
    VALUES = [100.0, 100.0, None, 100.0, 100.0, 100.0, 70.0, 70.0, 70.0, 70.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), "nan"],
                             ids=["nan", "inf", "-inf", "nan-text"])
    def test_one_non_finite_sample_keeps_detection_on(self, bad):
        """A non-finite sample is dropped, as a non-numeric one is, and the
        rest of its series is still scanned."""
        db = MetricsDatabase()
        for epoch, value in enumerate(self.VALUES):
            db.record("stream", "cts1", "e", "triad_bw",
                      bad if value is None else value, "GB/s",
                      {"epoch": str(epoch)})
        engine = AnalysisEngine(db, threshold=0.10, window=2)
        events = engine.scan([("stream", "cts1", "triad_bw", True)])
        finite = [(float(e), v) for e, v in enumerate(self.VALUES)
                  if v is not None]
        assert events == _batch(finite, 2, True, "stream/cts1/triad_bw")
        assert [e.epoch for e in events] == [6]
        assert db.series("stream", "cts1", "triad_bw", "epoch") == finite


class TestStateValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SeriesState(threshold=1.5)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            SeriesState(window=0)
