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
        # the tags go on the records, never on the cached results
        system = warm.schedule.system_at(warm.base_system, 0)
        entry = shared.peek(warm._epoch_key(system, 0, warm._setup_key()))
        for exp in entry["results"]:
            assert not {"epoch", "cached"} & set(exp.get("variables", {}))

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

    def test_noise_only_degradation_runs_cold(self, tmp_path):
        """A degradation that only adds measurement noise still changes an
        epoch's results, so a warm campaign replays the healthy epoch and
        runs every noisy one cold."""
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            "saxpy/openmp", SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(3)
        schedule = FailureSchedule(
            [(1, Degradation("flaky-switch", extra_noise=0.3))])
        noisy = ContinuousBenchmarking(
            "saxpy/openmp", SYSTEM, tmp_path / "noisy", schedule=schedule,
            result_cache=shared,
        ).run(3)
        replayed = {r.manifest["epoch"] for r in noisy.db.query()
                    if r.manifest.get("cached") == "true"}
        assert replayed == {"0"} and noisy.epochs_replayed == 1

    def test_epochs_never_alias(self, tmp_path):
        """Executor noise is epoch-salted, so epoch keys must differ per
        epoch — epoch 1 must not replay epoch 0's results."""
        loop = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path)
        system = loop.schedule.system_at(loop.base_system, 0)
        setup = loop._setup_key()
        keys = {loop._epoch_key(system, e, setup) for e in range(5)}
        assert len(keys) == 5


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
        """A campaign counts its replays from its own journal lines, not
        from a shared store's counters, and reopening it makes no lookup."""
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(3)
        warm = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(2)
        assert "epoch result cache: 2/2 hit(s) (100% cumulative)" in (
            warm.report())

        before = shared.stats()
        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm",
                                         result_cache=shared)
        assert shared.stats() == before
        assert resumed.report() == warm.report()

        resumed.run(2)  # epoch 2 replays the cold entry, epoch 3 runs cold
        assert "epoch result cache: 3/4 hit(s) (75% cumulative)" in (
            resumed.report())

    def test_resumed_warm_epochs_keep_hitting(self, tmp_path):
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(5)
        # warm campaign killed after 2 epochs...
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(2)
        # ...resumes from its journal with the shared store passed in and
        # keeps replaying the remaining epochs from it
        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm",
                                         result_cache=shared)
        resumed.run_until(5)
        regions = resumed.session.regions()
        assert regions["epoch:replay"].visits == 3
        assert "epoch:run" not in regions

    def test_fresh_store_resume_replays_only_its_journal(self, tmp_path):
        """The journal holds the entries its own epochs ingested, and no
        other: resumed with a fresh store, a warm campaign restores exactly
        the epochs it journaled and runs every later epoch cold."""
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "cold", result_cache=shared,
        ).run(5)
        live = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "warm", result_cache=shared,
        ).run(2)  # killed after 2 of 5 epochs

        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm")
        assert resumed.db.to_records() == live.db.to_records()
        assert len(resumed.result_cache) == 2
        resumed.run_until(5)
        regions = resumed.session.regions()
        assert regions["epoch:run"].visits == 3
        assert "epoch:replay" not in regions
