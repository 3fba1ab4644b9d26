"""The (system, benchmark) index behind MetricsDatabase.query — indexed
lookups must match a full scan exactly."""

from repro.ci.metricsdb import MetricsDatabase


def _populated():
    db = MetricsDatabase()
    for system in ("cts1", "tioga", "sierra"):
        for benchmark in ("stream", "amg2023"):
            for i in range(4):
                db.record(
                    benchmark, system, f"{benchmark}_exp{i % 2}",
                    "total_time", 10.0 * (i + 1),
                    manifest={"epoch": str(i)},
                )
    return db


class TestIndexedQuery:
    def test_system_benchmark_matches_full_scan(self):
        db = _populated()
        indexed = db.query(system="cts1", benchmark="stream")
        scanned = [r for r in db._records
                   if r.system == "cts1" and r.benchmark == "stream"]
        assert indexed == scanned
        assert len(indexed) == 4
        # seq (insertion) order preserved
        assert [r.seq for r in indexed] == sorted(r.seq for r in indexed)

    def test_unindexed_paths_still_work(self):
        db = _populated()
        assert len(db.query(benchmark="stream")) == 12
        assert len(db.query()) == 24
        assert db.query(system="absent", benchmark="stream") == []

    def test_aggregate_skips_flaky_records(self):
        """aggregate must exclude flaky-tagged samples like series() and the
        regression detector do — one statistics policy across the API."""
        db = MetricsDatabase()
        db.record("stream", "cts1", "e0", "triad_bw", 100.0)
        db.record("stream", "cts1", "e1", "triad_bw", 100.0)
        db.record("stream", "cts1", "e2", "triad_bw", 10.0,
                  manifest={"flaky": "true", "attempts": "3"})
        agg = db.aggregate("triad_bw", group_by="system")
        assert agg["cts1"]["count"] == 2
        assert agg["cts1"]["mean"] == 100.0
        # opt back in to the raw view when wanted
        raw = db.aggregate("triad_bw", group_by="system", exclude_flaky=False)
        assert raw["cts1"]["count"] == 3

    def test_flaky_reads_what_the_continuous_loop_stamps(self):
        """The loop writes ``flaky="true"``/``"false"`` and ``str(int)``
        attempts; a refused run made 0 attempts and is not flaky."""
        db = MetricsDatabase()
        stamps = [({"flaky": "false", "attempts": "1"}, False),
                  ({"flaky": "true", "attempts": "1"}, True),
                  ({"flaky": "false", "attempts": "2"}, True),
                  ({"flaky": "false", "attempts": "0"}, False),
                  ({}, False)]
        for i, (manifest, _) in enumerate(stamps):
            db.record("stream", "cts1", f"e{i}", "triad_bw", 1.0,
                      manifest=manifest)
        assert [db.is_flaky(r) for r in db.query()] == \
            [flaky for _, flaky in stamps]
