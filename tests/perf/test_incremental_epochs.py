"""Epoch-level result reuse in the continuous-benchmarking loop.

The acceptance bar: caching must be invisible in the data.  A warm campaign
(same inputs, shared result cache) replays every epoch and produces FOM
series and regression events identical to the cold campaign — and flaky
epochs are never served from cache.
"""

import pytest

from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector
from repro.systems.failures import Degradation, FailureSchedule

EXPERIMENT = "stream/openmp"
SYSTEM = "cts1"


def _series(loop):
    """Comparable FOM view: everything meaningful, provenance tags excluded."""
    return [
        (r.benchmark, r.system, r.experiment, r.fom_name, r.value, r.units,
         r.manifest.get("epoch"))
        for r in loop.db.query()
    ]


class TestWarmCampaign:
    def test_warm_campaign_replays_every_epoch(self, tmp_path):
        shared = ContentStore("epoch-results")
        cold = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(4)
        before = shared.stats()
        assert before["hits"] == 0 and before["entries"] == 4

        warm = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(4)
        after = shared.stats()
        assert after["hits"] - before["hits"] == 4  # 100% warm hit rate
        regions = warm.session.regions()
        assert regions["epoch:replay"].visits == 4
        assert "epoch:run" not in regions

        # correctness: caching is invisible in the data
        assert _series(cold) == _series(warm)
        assert ([str(e) for e in cold.regressions()]
                == [str(e) for e in warm.regressions()])

    def test_cached_records_carry_provenance(self, tmp_path):
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(1)
        warm = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(1)
        recs = warm.db.query()
        assert recs
        for rec in recs:
            assert rec.manifest["cached"] == "true"
            assert "replayed clean epoch" in rec.manifest["cache_provenance"]

    def test_warm_campaign_reproduces_detected_regression(self, tmp_path):
        """A degradation found cold is found identically warm — the replay
        keys include the effective (degraded) system state per epoch."""
        schedule = FailureSchedule(
            [(3, Degradation("bad-dimm", memory_bw_factor=0.5))]
        )
        shared = ContentStore("epoch-results")
        cold = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold",
            schedule=schedule, result_cache=shared,
        ).run(6)
        warm = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm",
            schedule=schedule, result_cache=shared,
        ).run(6)
        assert cold.regressions()  # the injected failure is detected
        assert ([str(e) for e in cold.regressions()]
                == [str(e) for e in warm.regressions()])
        assert shared.stats()["hits"] == 6

    def test_epochs_never_alias(self, tmp_path):
        """Executor noise is epoch-salted, so epoch keys must differ per
        epoch — epoch 1 must not replay epoch 0's results."""
        loop = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path)
        system = loop.schedule.system_at(loop.base_system, 0)
        keys = {loop._epoch_key(system, e) for e in range(5)}
        assert len(keys) == 5

    def test_non_incremental_never_touches_cache(self, tmp_path):
        loop = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path, incremental=False,
        ).run(2)
        assert loop.result_cache.stats()["lookups"] == 0
        assert len(loop.result_cache) == 0

    def test_incremental_off_matches_incremental_on_structure(self, tmp_path):
        """The cache layer must not perturb a cold campaign: same records,
        same experiments, same epochs.  (Values are measured from real
        kernel timings and carry real noise, so only replayed epochs are
        bit-identical — that property is asserted in the warm tests.)"""
        inc = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "inc",
        ).run(3)
        plain = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "plain", incremental=False,
        ).run(3)
        structure = lambda loop: [
            (r.benchmark, r.system, r.experiment, r.fom_name, r.units,
             r.manifest.get("epoch"))
            for r in loop.db.query()
        ]
        assert structure(inc) == structure(plain)


class TestFlakyEpochs:
    def _flaky_loop(self, workdir, result_cache):
        return ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, workdir,
            injector=TransientFaultInjector(
                {FaultKind.NODE_FAILURE: 0.6}, salt="flaky-test",
            ),
            retry_policy=RetryPolicy(max_attempts=5, base_delay_s=0.0,
                                     jitter=0.0),
            result_cache=result_cache,
        )

    def test_flaky_epochs_never_cached(self, tmp_path):
        shared = ContentStore("epoch-results")
        loop = self._flaky_loop(tmp_path / "a", shared).run(6)
        flaky_epochs = set(loop.attempt_history)
        assert flaky_epochs, "fault rate 0.6 must produce retried epochs"
        # only the clean epochs may be cached
        assert len(shared) == 6 - len(flaky_epochs)

    def test_flaky_epochs_reexecute_on_rerun(self, tmp_path):
        shared = ContentStore("epoch-results")
        first = self._flaky_loop(tmp_path / "a", shared).run(6)
        flaky = len(first.attempt_history)
        before = shared.stats()
        self._flaky_loop(tmp_path / "b", shared).run(6)
        after = shared.stats()
        # clean epochs replay; flaky ones miss and re-execute
        assert after["hits"] - before["hits"] == 6 - flaky
        assert after["misses"] - before["misses"] == flaky


class TestCheckpointCumulativeStats:
    def test_resume_reports_cumulative_hit_rate(self, tmp_path):
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(3)
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(3)

        # a resumed campaign gets the entries AND the lifetime counters
        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm")
        stats = resumed.result_cache.stats()
        assert stats["hits"] == 3
        assert stats["entries"] == 3
        assert "epoch result cache: 3/" in resumed.report()

        resumed.run(2)  # epochs 3-4: never ran before → misses, then cached
        stats = resumed.result_cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] >= 5  # 3 cold + 2 new (cumulative)
        assert stats["entries"] == 5

    def test_resumed_warm_epochs_keep_hitting(self, tmp_path):
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(5)
        # warm campaign killed after 2 epochs...
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(2)
        # ...resumes from its checkpoint with a fresh default store and
        # still replays the remaining epochs from the restored entries
        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm")
        resumed.run_until(5)
        stats = resumed.result_cache.stats()
        assert stats["hits"] == 5  # 2 before the kill + 3 after
        assert resumed.session.regions()["epoch:replay"].visits == 3
