"""Incremental regression state vs. batch recomputation — the equivalence
is bit-identical (dataclass equality over float fields), not approximate.
``RegressionDetector.detect`` / ``detect_in_db`` are the oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    AnalysisEngine,
    RegressionDetector,
    SeriesState,
    fit_model,
    model_cache,
)
from repro.analysis.regression import epoch_means
from repro.ci import MetricsDatabase


def _history(n_epochs=16, step_at=10, noise=0.03):
    """Deterministic noisy series with a 20% step regression."""
    rng = np.random.default_rng(42)
    series = []
    for epoch in range(n_epochs):
        base = 100.0 if epoch < step_at else 80.0
        for _ in range(3):
            series.append((float(epoch), base * (1 + noise * rng.standard_normal())))
    return series


def _batch(det, series, metric="m"):
    """The row-oriented reference: group raw samples per epoch exactly as
    detect_in_db does, then run the batch detector."""
    return det.detect(epoch_means(series), metric)


class TestBitIdentity:
    def test_one_shot_equals_batch(self):
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        state.extend(series)
        assert state.events("m") == _batch(det, series)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    def test_chunked_feed_equals_batch(self, chunk):
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        for i in range(0, len(series), chunk):
            state.extend(series[i:i + chunk])
            # at every intermediate point the state equals a full rescan of
            # everything fed so far
            assert state.events("m") == _batch(det, series[:i + chunk])

    def test_late_samples_for_old_epochs(self):
        # a sample arriving for an already-scored epoch must shift the
        # affected suffix exactly as a batch rescan would
        det = RegressionDetector(threshold=0.10, window=3)
        series = _history()
        late = [(2.0, 60.0), (11.0, 95.0)]
        state = SeriesState(threshold=0.10, window=3, higher_is_better=True)
        state.extend(series)
        state.extend(late)
        assert state.events("m") == _batch(det, series + late)

    def test_lower_is_better_metrics(self):
        det = RegressionDetector(threshold=0.10, window=2,
                                 higher_is_better=False)
        series = [(float(e), 10.0 if e < 6 else 13.0) for e in range(12)]
        state = SeriesState(threshold=0.10, window=2, higher_is_better=False)
        for pair in series:
            state.extend([pair])
        events = state.events("walltime")
        assert events == det.detect(series, "walltime")
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
        det = RegressionDetector(threshold=0.10, window=window)
        series = [(float(e), v) for e, v in pairs]
        state = SeriesState(threshold=0.10, window=window,
                            higher_is_better=True)
        state.extend(series)
        assert state.events("m") == _batch(det, series)
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
        det = RegressionDetector(threshold=0.10, window=3)
        det_lib = RegressionDetector(threshold=0.10, window=3,
                                     higher_is_better=False)
        for epoch in range(14):
            self._record_epoch(db, epoch)
            got = engine.scan(self.TARGETS)
            expected = []
            for benchmark, system, fom, hib in self.TARGETS:
                d = det if hib else det_lib
                expected.extend(d.detect_in_db(db, benchmark, system, fom))
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
        engine.scan(self.TARGETS)
        engine.model("stream", "cts1", "total_time")
        regions = engine.session.regions()
        assert regions["analysis:scan"].visits == 1
        # one detect per target, nested under the scan that ran it
        assert regions["analysis:scan/analysis:detect"].visits == len(
            self.TARGETS)
        assert "analysis:detect" not in regions
        assert regions["analysis:model"].visits == 1

    def test_model_refits_only_when_its_series_grows(self):
        db = MetricsDatabase()
        engine = AnalysisEngine(db)
        assert engine.model("amg2023", "cts1", "total_time") is None

        def add(p, seconds, **extra):
            db.record("amg2023", "cts1", f"p{p}", "total_time", seconds, "s",
                      {"nprocs": str(p), **extra})

        for p in (2, 4, 8, 16):
            add(p, 1.0 + 0.05 * p)
        first = engine.model("amg2023", "cts1", "total_time")
        assert str(first) == str(fit_model(
            db.series("amg2023", "cts1", "total_time", "nprocs",
                      exclude_flaky=True)))
        # records that leave the non-flaky series unchanged keep the model
        # without even a fit-cache lookup
        add(32, 99.0, flaky="true")
        db.record("amg2023", "cts1", "p2", "fom_solve", 5.0, "", {"nprocs": "2"})
        add(64, "n/a")
        lookups = model_cache().stats()["lookups"]
        assert str(engine.model("amg2023", "cts1", "total_time")) == str(first)
        assert model_cache().stats()["lookups"] == lookups
        add(32, 1.0 + 0.05 * 32)
        refit = engine.model("amg2023", "cts1", "total_time")
        assert model_cache().stats()["lookups"] > lookups
        assert str(refit) == str(fit_model(
            db.series("amg2023", "cts1", "total_time", "nprocs",
                      exclude_flaky=True)))


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
              st.sampled_from(["n/a", "", None])),
    st.sampled_from([{}, {}, {}, {"flaky": "false", "attempts": "1"},
                     {"flaky": "true"}, {"attempts": "2"}]),
)


def _oracle(db, window):
    events = []
    for benchmark, system, fom, hib in SCANNED:
        det = RegressionDetector(threshold=0.10, window=window,
                                 higher_is_better=hib)
        events.extend(det.detect_in_db(db, benchmark, system, fom))
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
                # a database restored from its records, under a fresh
                # engine, reaches the events the live engine reached
                before = engine.scan(SCANNED)
                db = MetricsDatabase.from_records(db.to_records())
                engine = AnalysisEngine(db, threshold=0.10, window=window)
                assert engine.scan(SCANNED) == before
            for (benchmark, system, fom), lag, value, tags in batch:
                manifest = dict(tags)
                if lag is not None:
                    manifest["epoch"] = str(i - lag)
                db.record(benchmark, system, "e", fom, value, "u", manifest)
            assert engine.scan(SCANNED) == _oracle(db, window)


#: series the model-memo test fits; the last is never recorded
MODELED = [("amg2023", "cts1", "total_time"),
           ("amg2023", "ats2", "total_time"),
           ("saxpy", "cts1", "walltime"),
           ("ghost", "cts1", "total_time")]

_scaling_record = st.tuples(
    # the recorded modeled series, a modeled partition's other FOM, and an
    # unmodeled series
    st.sampled_from(MODELED[:3] * 2 + [("amg2023", "cts1", "fom_solve"),
                                       ("osu", "ats4", "total_time")]),
    # few distinct x values, so they repeat; None drops the key
    st.sampled_from(["2", "4", "8", "16", "4.0", "many", None]),
    st.one_of(st.floats(min_value=0.5, max_value=50.0),
              st.sampled_from(["n/a", "", None])),
    st.sampled_from([{}, {}, {}, {"flaky": "false", "attempts": "1"},
                     {"flaky": "true"}, {"attempts": "2"}]),
)

_model_op = st.one_of(
    st.lists(_scaling_record, min_size=1, max_size=8),
    # (series, mutate the returned model)
    st.tuples(st.sampled_from(MODELED), st.booleans()),
)


class TestModelMemoDifferential:
    @given(st.lists(_model_op, min_size=1, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_models_equal_fresh_fits(self, ops):
        db = MetricsDatabase()
        engine = AnalysisEngine(db)
        for op in ops:
            if isinstance(op, list):
                for (benchmark, system, fom), nprocs, value, tags in op:
                    manifest = dict(tags)
                    if nprocs is not None:
                        manifest["nprocs"] = nprocs
                    db.record(benchmark, system, "e", fom, value, "s",
                              manifest)
                continue
            (benchmark, system, fom), mutate = op
            got = engine.model(benchmark, system, fom)
            pairs = db.series(benchmark, system, fom, "nprocs",
                              exclude_flaky=True)
            if not pairs:
                assert got is None
                continue
            expected = fit_model(pairs)
            assert str(got) == str(expected)
            assert got.measurements == expected.measurements
            if mutate:
                # a caller scribbling on its model must not reach the memo
                got.c0 += 1e6
                got.measurements.clear()


class TestStateValidation:
    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SeriesState(threshold=1.5)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            SeriesState(window=0)
