"""The (system, benchmark)/(system, experiment) indexes behind
MetricsDatabase.query — indexed lookups must match a full scan exactly."""

import json

from repro.ci import MetricsDatabase


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

    def test_experiment_query(self):
        db = _populated()
        recs = db.query(system="tioga", experiment="amg2023_exp1")
        assert recs
        assert all(r.system == "tioga" and r.experiment == "amg2023_exp1"
                   for r in recs)
        scanned = [r for r in db._records
                   if r.system == "tioga" and r.experiment == "amg2023_exp1"]
        assert recs == scanned

    def test_filters_compose_with_index(self):
        db = _populated()
        recs = db.query(system="cts1", benchmark="stream", fom_name="total_time",
                        predicate=lambda r: float(r.value) > 15.0)
        assert all(float(r.value) > 15.0 for r in recs)
        assert len(recs) == 3

    def test_unindexed_paths_still_work(self):
        db = _populated()
        assert len(db.query(benchmark="stream")) == 12
        assert len(db.query()) == 24
        assert db.query(system="absent", benchmark="stream") == []

    def test_from_records_rebuilds_indexes(self):
        db = _populated()
        rebuilt = MetricsDatabase.from_records(db.to_records())
        assert (len(rebuilt.query(system="cts1", benchmark="amg2023"))
                == len(db.query(system="cts1", benchmark="amg2023")))
        assert rebuilt._by_system_benchmark.keys() == db._by_system_benchmark.keys()

    def test_dump_load_round_trip_queries_indexed_path(self):
        """A records round trip through JSON must be the identity: sequence
        numbers preserved, both secondary indexes rebuilt, and indexed
        queries on the loaded database identical to the original's."""
        db = _populated()
        loaded = MetricsDatabase.from_records(
            json.loads(json.dumps(db.to_records())))
        assert loaded.to_records() == db.to_records()  # seq preserved
        # the (system, benchmark) indexed path
        for system in ("cts1", "tioga", "sierra"):
            for benchmark in ("stream", "amg2023"):
                assert (loaded.query(system=system, benchmark=benchmark)
                        == db.query(system=system, benchmark=benchmark))
        # the (system, experiment) indexed path
        assert (loaded.query(system="sierra", experiment="stream_exp1")
                == db.query(system="sierra", experiment="stream_exp1"))
        # indexes actually contain the records (not just lazily equal)
        assert set(loaded._by_system_experiment) == set(db._by_system_experiment)
        # new records continue the sequence instead of colliding
        rec = loaded.record("stream", "cts1", "x", "total_time", 1.0)
        assert rec.seq == max(r.seq for r in db._records) + 1

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
