"""Tests for the resilience layer: deterministic fault injection,
retry/backoff, circuit breakers, the fault-tolerant executor, and
resumable continuous benchmarking."""

import json

import pytest

from repro.analysis.regression import RegressionDetector
from repro.ci.metricsdb import MetricsDatabase
from repro.core.continuous import JOURNAL_VERSION, ContinuousBenchmarking
from repro.resilience import (
    AttemptTimeout,
    CircuitBreaker,
    CircuitBreakerRegistry,
    FaultKind,
    FaultTolerantExecutor,
    PermanentError,
    RetryExhausted,
    RetryPolicy,
    TransientError,
    TransientFaultInjector,
)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------
class TestTransientFaultInjector:
    def test_replay_is_deterministic(self):
        """Same seed/coordinates → the exact same fault stream."""
        make = lambda: TransientFaultInjector(
            {FaultKind.NODE_FAILURE: 0.3, FaultKind.OOM: 0.2}, salt="s1"
        )
        a, b = make(), make()
        stream_a = [a.sample("cts1", "exp", e, t)
                    for e in range(20) for t in range(3)]
        stream_b = [b.sample("cts1", "exp", e, t)
                    for e in range(20) for t in range(3)]
        assert stream_a == stream_b
        assert any(f is not None for f in stream_a)

    def test_salt_changes_stream(self):
        a = TransientFaultInjector({FaultKind.NODE_FAILURE: 0.3}, salt="s1")
        b = TransientFaultInjector({FaultKind.NODE_FAILURE: 0.3}, salt="s2")
        stream_a = [a.sample("cts1", "exp", e, 1) is None for e in range(50)]
        stream_b = [b.sample("cts1", "exp", e, 1) is None for e in range(50)]
        assert stream_a != stream_b

    def test_zero_rate_never_fires(self):
        injector = TransientFaultInjector({})
        assert all(injector.sample("cts1", "exp", e, 1) is None
                   for e in range(100))

    def test_rate_roughly_respected(self):
        injector = TransientFaultInjector({FaultKind.FS_HICCUP: 0.25})
        hits = sum(injector.sample("cts1", f"exp{i}", 0, 1) is not None
                   for i in range(1000))
        assert 180 < hits < 320  # ~250 expected

    def test_per_system_rates(self):
        injector = TransientFaultInjector(
            {},
            per_system={"flaky-sys": {FaultKind.NODE_FAILURE: 0.9}},
        )
        flaky_hits = sum(injector.sample("flaky-sys", f"e{i}", 0, 1) is not None
                        for i in range(50))
        healthy_hits = sum(injector.sample("cts1", f"e{i}", 0, 1) is not None
                          for i in range(50))
        assert flaky_hits > 30
        assert healthy_hits == 0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            TransientFaultInjector({FaultKind.OOM: 1.5})

    def test_fault_carries_classification(self):
        injector = TransientFaultInjector({FaultKind.OOM: 0.999})
        fault = injector.sample("cts1", "exp", 0, 1)
        assert fault is not None
        assert fault.kind is FaultKind.OOM
        assert "oom" in str(fault)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_then_hits_ceiling(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0,
                             max_delay_s=8.0, jitter=0.0)
        delays = [policy.backoff_s(k) for k in range(1, 8)]
        assert delays[:4] == [1.0, 2.0, 4.0, 8.0]
        assert all(d == 8.0 for d in delays[3:])  # hard ceiling

    def test_ceiling_holds_under_jitter(self):
        policy = RetryPolicy(base_delay_s=4.0, multiplier=2.0,
                             max_delay_s=8.0, jitter=0.9)
        assert all(policy.backoff_s(k, salt=f"s{k}") <= 8.0
                   for k in range(1, 50))

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(jitter=0.5)
        assert policy.backoff_s(2, "salt") == policy.backoff_s(2, "salt")
        assert policy.backoff_s(2, "salt-a") != policy.backoff_s(2, "salt-b")

    def test_run_retries_transient_to_success(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.0, base_delay_s=1.0)
        seen = []

        def fn(attempt):
            seen.append(attempt)
            if attempt < 3:
                raise TransientError("flap")
            return "done"

        result, log = policy.run(fn)
        assert result == "done"
        assert seen == [1, 2, 3]
        assert log.attempts == 3
        assert log.fault_kinds == ["transient", "transient"]
        assert log.total_backoff_s == pytest.approx(3.0)  # 1 + 2
        assert log.flaky

    def test_run_exhaustion_raises_with_log(self):
        policy = RetryPolicy(max_attempts=3)

        def fn(attempt):
            raise TransientError("always down")

        with pytest.raises(RetryExhausted) as exc_info:
            policy.run(fn)
        assert exc_info.value.log.attempts == 3

    def test_permanent_error_not_retried(self):
        policy = RetryPolicy(max_attempts=5)
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise PermanentError("wrong answer")

        with pytest.raises(PermanentError):
            policy.run(fn)
        assert calls == [1]

    def test_classify_taxonomy(self):
        assert RetryPolicy.classify(TransientError("x")) == "transient"
        assert RetryPolicy.classify(AttemptTimeout("x")) == "transient"
        assert RetryPolicy.classify(PermanentError("x")) == "permanent"
        assert RetryPolicy.classify(ValueError("x")) == "permanent"

    def test_attempt_timeout_is_transient_and_bounded(self):
        clock_value = [0.0]

        def clock():
            # each attempt appears to take 10s
            clock_value[0] += 5.0
            return clock_value[0]

        policy = RetryPolicy(max_attempts=2, attempt_timeout_s=1.0)
        with pytest.raises(RetryExhausted) as exc_info:
            policy.run(lambda attempt: "slow", clock=clock)
        assert exc_info.value.log.fault_kinds == \
            ["attempt_timeout", "attempt_timeout"]

    def test_timeout_not_triggered_for_fast_attempts(self):
        policy = RetryPolicy(max_attempts=2, attempt_timeout_s=60.0)
        result, log = policy.run(lambda attempt: "fast")
        assert result == "fast"
        assert log.attempts == 1
        assert not log.flaky


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_half_open_closed_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=100.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(101.0)
        assert breaker.allow()  # the probe run
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(11.0)
        assert breaker.allow()  # recovers again later

    def test_registry_keys_by_system_and_tag(self):
        registry = CircuitBreakerRegistry(clock=FakeClock())
        a = registry.get("cts1", "batch")
        b = registry.get("cts1", "continuous")
        c = registry.get("ats2", "batch")
        assert a is registry.get("cts1", "batch")
        assert len({id(a), id(b), id(c)}) == 3
        assert len(registry) == 3


# ---------------------------------------------------------------------------
# fault-tolerant executor
# ---------------------------------------------------------------------------
class FakeExperiment:
    def __init__(self, name="exp-1"):
        self.name = name


class FakeInner:
    """Inner executor stub with SystemExecutor-like context."""

    class _Sys:
        name = "fake-sys"

    def __init__(self, returncode=0):
        self.system = self._Sys()
        self.epoch = 0
        self.attempt = 1
        self.calls = 0
        self.returncode = returncode

    def execute(self, experiment):
        self.calls += 1
        return {"returncode": self.returncode,
                "stdout": f"ran {experiment.name}\n", "seconds": 0.01}


class ScriptedInjector:
    """Injector stub faulting on a scripted set of attempts."""

    def __init__(self, fault_attempts):
        self.fault_attempts = set(fault_attempts)

    def sample(self, system, experiment, epoch, attempt):
        if attempt in self.fault_attempts:
            from repro.resilience.faults import TransientFault

            return TransientFault(FaultKind.NODE_FAILURE, system,
                                  experiment, epoch, attempt)
        return None


class TestFaultTolerantExecutor:
    def test_clean_run_passes_through(self):
        """With no injector the wrapper adds only its attempt log: the
        inner result's stdout, returncode and seconds come back unchanged,
        with no resilience note appended."""
        inner = FakeInner()
        expected = FakeInner().execute(FakeExperiment())
        ft = FaultTolerantExecutor(inner)
        result = ft.execute(FakeExperiment())
        assert {k: result[k] for k in expected} == expected
        assert "resilience" not in result["stdout"]
        assert inner.calls == 1
        assert result["attempts"] == 1
        assert result["fault_kinds"] == []
        assert result["total_backoff_s"] == 0.0
        assert result["flaky"] is False
        assert result["state"] == "completed"

    def test_retried_run_records_attempt_log(self):
        ft = FaultTolerantExecutor(
            FakeInner(),
            injector=ScriptedInjector({1, 2}),
            policy=RetryPolicy(max_attempts=4, jitter=0.0, base_delay_s=1.0),
        )
        result = ft.execute(FakeExperiment())
        assert result["returncode"] == 0
        assert result["attempts"] == 3
        assert result["fault_kinds"] == ["node_failure", "node_failure"]
        assert result["total_backoff_s"] == pytest.approx(3.0)
        assert result["flaky"] is True
        assert "resilience" in result["stdout"]
        assert ft.inner.calls == 1  # faulted attempts never reach the inner

    def test_exhaustion_returns_tempfail(self):
        ft = FaultTolerantExecutor(
            FakeInner(),
            injector=ScriptedInjector({1, 2, 3}),
            policy=RetryPolicy(max_attempts=3),
        )
        result = ft.execute(FakeExperiment())
        assert result["returncode"] == 75  # EX_TEMPFAIL
        assert result["state"] == "exhausted"
        assert result["attempts"] == 3
        assert ft.inner.calls == 0

    def test_breaker_trips_and_refuses(self):
        breakers = CircuitBreakerRegistry(failure_threshold=2,
                                          clock=FakeClock())
        ft = FaultTolerantExecutor(
            FakeInner(),
            injector=ScriptedInjector({1, 2}),
            policy=RetryPolicy(max_attempts=2),
            breakers=breakers,
        )
        for i in range(2):  # two exhausted runs trip the breaker
            assert ft.execute(FakeExperiment(f"e{i}"))["state"] == "exhausted"
        refused = ft.execute(FakeExperiment("e3"))
        assert refused["state"] == "refused"
        assert refused["attempts"] == 0
        assert breakers.get("fake-sys", "default").state == CircuitBreaker.OPEN

    def test_deterministic_inner_failure_not_retried(self):
        inner = FakeInner(returncode=127)
        ft = FaultTolerantExecutor(inner, policy=RetryPolicy(max_attempts=5))
        result = ft.execute(FakeExperiment())
        assert result["returncode"] == 127
        assert result["attempts"] == 1
        assert inner.calls == 1


# ---------------------------------------------------------------------------
# flaky-sample exclusion in the analysis layer
# ---------------------------------------------------------------------------
class TestFlakyExclusion:
    def _db_with_flaky_dip(self):
        db = MetricsDatabase()
        for epoch in range(6):
            db.record("stream", "cts1", "e", "triad_bw", 100.0,
                      manifest={"epoch": str(epoch), "flaky": "false"})
        # epochs 6-7: retried runs measured low — contamination, not a
        # regression
        for epoch in (6, 7):
            db.record("stream", "cts1", "e", "triad_bw", 55.0,
                      manifest={"epoch": str(epoch), "flaky": "true",
                                "attempts": "3"})
        return db

    def test_flaky_samples_detected_and_counted(self):
        db = self._db_with_flaky_dip()
        assert db.flaky_count() == 2
        assert len(db.query(exclude_flaky=True)) == 6

    def test_detector_excludes_flaky_by_default(self):
        db = self._db_with_flaky_dip()
        detector = RegressionDetector(threshold=0.10, window=2)
        assert detector.detect_in_db(db, "stream", "cts1", "triad_bw") == []

    def test_detector_would_false_flag_without_exclusion(self):
        db = self._db_with_flaky_dip()
        detector = RegressionDetector(threshold=0.10, window=2)
        events = detector.detect(db.series("stream", "cts1", "triad_bw",
                                           "epoch", exclude_flaky=False))
        assert events, "the flaky dip must look like a regression when included"


# ---------------------------------------------------------------------------
# campaign-level: fault-tolerant continuous benchmarking + checkpoint/resume
# ---------------------------------------------------------------------------
class TestFaultTolerantCampaign:
    INJECTOR_KW = dict(
        rates={FaultKind.NODE_FAILURE: 0.25, FaultKind.FS_HICCUP: 0.1},
        salt="campaign-test",
    )

    def _loop(self, tmp_path, **kwargs):
        return ContinuousBenchmarking(
            "stream/openmp", "cts1", tmp_path,
            injector=TransientFaultInjector(**self.INJECTOR_KW),
            retry_policy=RetryPolicy(max_attempts=6, jitter=0.0),
            **kwargs,
        )

    def test_flaky_campaign_completes_with_retries(self, tmp_path, fixed_clock):
        loop = self._loop(tmp_path).run(epochs=6)
        assert loop.epochs_run == 6
        # transient faults were hit and retried, not failed
        assert loop.attempt_history, "expected at least one retried epoch"
        for meta in loop.attempt_history.values():
            for info in meta.values():
                assert info["state"] == "completed"
                assert info["attempts"] > 1
        # attempt metadata landed in the metrics database
        flaky_records = [r for r in loop.db.query() if loop.db.is_flaky(r)]
        assert flaky_records
        assert all(int(r.manifest["attempts"]) > 1 for r in flaky_records)
        # and retried samples cause no false regressions
        assert loop.regressions() == []
        assert "retries" in loop.report()

    def test_checkpoint_written_every_epoch(self, tmp_path):
        loop = self._loop(tmp_path)
        loop.run_epoch()
        lines = loop.checkpoint_path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "version": JOURNAL_VERSION, "experiment": "stream/openmp",
            "system": "cts1"}
        assert len(lines) == 3  # the set-up record precedes epoch 0
        assert json.loads(lines[1])["experiments"]
        assert json.loads(lines[2])["results"]
        loop.run_epoch()  # one more line per epoch, the earlier ones kept
        assert loop.checkpoint_path.read_text().splitlines()[:3] == lines
        assert len(loop.checkpoint_path.read_text().splitlines()) == 4

    def test_refused_runs_recorded_in_history(self, tmp_path):
        """A run refused by an open circuit breaker made no attempt; it
        must still show in the attempt history, with its real count."""
        breakers = CircuitBreakerRegistry(failure_threshold=1)
        breakers.get("cts1", "continuous").record_failure()
        loop = self._loop(tmp_path, breakers=breakers)
        loop.run_epoch()
        results = json.loads(
            (tmp_path / "epoch-0" / "results.latest.json").read_text())
        meta = loop.attempt_history["0"]
        assert set(meta) == {exp["name"] for exp in results["experiments"]}
        for info in meta.values():
            assert info["state"] == "refused"
            assert info["attempts"] == 0

    def test_killed_campaign_resumes_from_checkpoint(self, tmp_path):
        # First incarnation dies after 3 of 5 epochs.
        self._loop(tmp_path).run_until(3)
        # Second incarnation resumes: completed epochs are not re-run.
        resumed = self._loop(tmp_path)
        assert resumed.epochs_run == 3
        records_before = len(resumed.db)
        resumed.run_until(5)
        assert resumed.epochs_run == 5
        # Epochs 0-2 were not re-ingested: only 2 epochs' worth was added.
        added = len(resumed.db) - records_before
        assert added == pytest.approx(records_before * 2 / 3, abs=2)
        # Every epoch 0..4 present exactly once per (experiment, fom)
        epochs = sorted({float(r.manifest["epoch"])
                         for r in resumed.db.query(fom_name="triad_bw")})
        assert epochs == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_resume_replays_identical_state(self, tmp_path):
        """Determinism end to end: resuming preserves the pre-kill FOM
        history exactly (it comes from the checkpoint, not a re-run), and
        a straight-through campaign sees the identical fault stream."""
        first = self._loop(tmp_path / "b").run_until(2)
        pre_kill = first.history("triad_bw")
        resumed = self._loop(tmp_path / "b").run_until(4)
        assert resumed.history("triad_bw")[:2] == pre_kill
        # fault injection is salted, not timed: the straight-through
        # campaign hits retries at the same (epoch, experiment) points
        straight = self._loop(tmp_path / "a").run_until(4)
        assert ({e: sorted(m) for e, m in straight.attempt_history.items()}
                == {e: sorted(m) for e, m in resumed.attempt_history.items()})

    def test_checkpoint_mismatch_rejected(self, tmp_path):
        self._loop(tmp_path).run_until(1)
        with pytest.raises(ValueError, match="checkpoint"):
            ContinuousBenchmarking("saxpy/openmp", "cts1", tmp_path)

    HEADER = {"version": JOURNAL_VERSION, "experiment": "stream/openmp",
              "system": "cts1"}

    @pytest.mark.parametrize("lines", [
        [[]],  # the header is not an object
        [HEADER, {}],  # an epoch line with neither results nor a replay
        [HEADER, "x"],  # an epoch line that is not an object
    ], ids=["not-an-object", "no-epochs-run", "epochs-run-not-int"])
    def test_malformed_checkpoint_rejected(self, tmp_path, lines):
        (tmp_path / "campaign.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=r"corrupt.*resume=False"):
            self._loop(tmp_path)

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        self._loop(tmp_path).run_until(2)
        fresh = self._loop(tmp_path, resume=False)
        assert fresh.epochs_run == 0
