"""The continuous-benchmarking loop itself.

§2: "Being able to automate the benchmarking process and store the results
of the evaluation before and after any changes to hardware, firmware,
drivers, or software will provide a deeper understanding of the impact of
these changes."

:class:`ContinuousBenchmarking` runs one (experiment, system) campaign per
*epoch* — a scheduled CI trigger in real Benchpark — against a system whose
health follows a :class:`~repro.systems.failures.FailureSchedule`, stores
every FOM in the metrics database tagged with its epoch, and scans the
accumulated history with a :class:`~repro.analysis.regression.RegressionDetector`.
The regression-tracking bench injects a DIMM degradation mid-history and
shows the loop localizing it in time.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.engine import AnalysisEngine
from repro.analysis.regression import (
    RegressionDetector,
    RegressionEvent,
    epoch_means,
)
from repro.ci import MetricsDatabase
from repro.perf import ContentStore, Profiler, fingerprint
from repro.resilience import (
    CircuitBreakerRegistry,
    FaultTolerantExecutor,
    RetryPolicy,
    TransientFaultInjector,
)
from repro.systems import SystemExecutor, get_system
from repro.systems.failures import FailureSchedule

from .driver import benchpark_setup

__all__ = ["ContinuousBenchmarking"]

#: checkpoint schema version, bumped on incompatible layout changes
CHECKPOINT_VERSION = 1

#: FOMs worth tracking per benchmark, with their direction.
TRACKED_FOMS: Dict[str, List[tuple]] = {
    "saxpy": [("bandwidth", True), ("kernel_time", False)],
    "amg2023": [("fom_solve", True), ("fom_setup", True)],
    "stream": [("triad_bw", True), ("copy_bw", True)],
    "osu-micro-benchmarks": [("total_time", False)],
    "quicksilver": [("fom_segments", True)],
}


class ContinuousBenchmarking:
    """A long-running benchmarking loop for one experiment on one system."""

    def __init__(
        self,
        experiment: str,
        system: str,
        workdir: Path | str,
        schedule: Optional[FailureSchedule] = None,
        detector: Optional[RegressionDetector] = None,
        injector: Optional[TransientFaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        resume: bool = True,
        incremental: bool = True,
        result_cache: Optional[ContentStore] = None,
    ):
        self.experiment = experiment
        self.system_name = system
        self.base_system = get_system(system)
        self.workdir = Path(workdir)
        self.schedule = schedule or FailureSchedule()
        self.detector = detector or RegressionDetector(threshold=0.10, window=2)
        self.injector = injector
        self.retry_policy = retry_policy
        self.breakers = breakers
        if self.breakers is None and injector is not None:
            self.breakers = CircuitBreakerRegistry()
        self.db = MetricsDatabase()
        self.epochs_run = 0
        #: content-addressed reuse of prior epoch results: an epoch whose
        #: inputs (experiment, effective system state, epoch index) finger-
        #: print to a previously *clean* run replays that run's results
        #: instead of re-executing.  Pass a shared/persisted ContentStore to
        #: let a re-run campaign reuse an earlier campaign's work.
        self.incremental = incremental
        self.result_cache = (
            result_cache if result_cache is not None
            else ContentStore("epoch-results")
        )
        self.profiler = Profiler()
        #: per-epoch resilience metadata: {epoch: {experiment: attempt info}}
        self.attempt_history: Dict[str, Dict[str, Any]] = {}
        if resume and self.checkpoint_path.exists():
            self._load_checkpoint()
        #: incremental analysis over the accumulated history: per-series
        #: detector states absorb only each epoch's new records, so the
        #: post-epoch regression scan is O(new) instead of a full history
        #: rescan — with events bit-identical to the batch path (the
        #: engine's contract).  Built after any checkpoint load so it wraps
        #: the restored database.
        self.analysis = AnalysisEngine(
            self.db,
            threshold=self.detector.threshold,
            window=self.detector.window,
            profiler=self.profiler,
        )

    @property
    def benchmark_name(self) -> str:
        return self.experiment.split("/")[0]

    # -- checkpoint / resume -------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "campaign_checkpoint.json"

    def _save_checkpoint(self) -> None:
        """Persist campaign state so a killed loop resumes where it died.
        Written via a temp file + rename so a kill mid-write leaves the
        previous checkpoint intact."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CHECKPOINT_VERSION,
            "experiment": self.experiment,
            "system": self.system_name,
            "epochs_run": self.epochs_run,
            "attempt_history": self.attempt_history,
            "records": self.db.to_records(),
            # additive key: older checkpoints (and readers) without it are
            # still version-1 compatible
            "result_cache": self.result_cache.snapshot(),
        }
        tmp = self.checkpoint_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self.checkpoint_path)

    def _load_checkpoint(self) -> None:
        try:
            payload = json.loads(self.checkpoint_path.read_text())
        except json.JSONDecodeError as e:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} is corrupt ({e}); "
                f"delete it (or pass resume=False) to restart the campaign"
            ) from e
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} has version "
                f"{payload.get('version')}; expected {CHECKPOINT_VERSION}"
            )
        if (payload.get("experiment") != self.experiment
                or payload.get("system") != self.system_name):
            raise ValueError(
                f"checkpoint {self.checkpoint_path} is for "
                f"{payload.get('experiment')} on {payload.get('system')}, "
                f"not {self.experiment} on {self.system_name}"
            )
        self.epochs_run = int(payload["epochs_run"])
        self.attempt_history = dict(payload.get("attempt_history", {}))
        self.db = MetricsDatabase.from_records(payload["records"])
        snap = payload.get("result_cache")
        if snap:
            # restore() folds the checkpointed hit/miss counters into the
            # baseline, so a resumed campaign reports *cumulative* rates
            self.result_cache.restore(snap)

    # ------------------------------------------------------------------
    def _executor(self, system, epoch: int):
        inner = SystemExecutor(system, epoch=epoch)
        if (self.injector is None and self.retry_policy is None
                and self.breakers is None):
            return inner
        return FaultTolerantExecutor(
            inner, injector=self.injector, policy=self.retry_policy,
            breakers=self.breakers, runner_tag="continuous",
        )

    def _epoch_key(self, system, epoch: int) -> str:
        """Fingerprint of everything that determines an epoch's results:
        the experiment, the *effective* system state at this epoch (the
        failure schedule may have degraded it), and the epoch index itself
        — executors salt their measurement noise per epoch, so epoch N and
        epoch M of the same campaign legitimately differ and must never
        alias."""
        return fingerprint({
            "experiment": self.experiment,
            "system": system.to_dict(),
            "epoch": epoch,
        })

    @staticmethod
    def _epoch_is_clean(outcomes: List[Dict[str, Any]]) -> bool:
        """True when every run converged on its first attempt with no
        faults — the only results safe to serve from cache later.  A flaky
        or faulted epoch must re-execute on the next identical campaign."""
        for o in outcomes:
            if int(o.get("attempts", 1) or 1) != 1:
                return False
            if o.get("flaky"):
                return False
            if int(o.get("returncode", 0) or 0) != 0:
                return False
            if o.get("state", "completed") != "completed":
                return False
        return True

    def _replay_epoch(self, epoch: int, key: str, entry: Dict[str, Any]) -> int:
        """Serve one epoch from the result cache: identical inputs already
        produced these results, so ingest them directly — tagged with
        provenance — instead of re-running setup/run/analyze."""
        with self.profiler.timer("epoch:replay"):
            results = copy.deepcopy(entry["results"])
            for exp in results["experiments"]:
                variables = exp.setdefault("variables", {})
                variables["epoch"] = str(epoch)
                variables["attempts"] = "1"
                variables["flaky"] = "false"
                variables["cached"] = "true"
                variables["cache_provenance"] = (
                    f"replayed clean epoch {entry['epoch']} "
                    f"(fingerprint {key})"
                )
            count = self.db.ingest_analysis(self.system_name, results)
            self.epochs_run += 1
            self._save_checkpoint()
        return count

    def run_epoch(self) -> int:
        """One scheduled benchmarking run; returns FOMs recorded.

        With ``incremental=True`` (the default), the epoch's inputs are
        fingerprinted first; if an identical epoch already ran cleanly —
        e.g. this campaign was re-run with a shared or checkpoint-restored
        ``result_cache`` — its results are replayed instead of re-executing
        the benchmarks.  Flaky or faulted epochs are never cached, so a
        replay always stands for a deterministic, converged run.
        """
        epoch = self.epochs_run
        system = self.schedule.system_at(self.base_system, epoch)
        key = self._epoch_key(system, epoch) if self.incremental else None
        entry = self.result_cache.get(key) if key is not None else None
        if entry is not None:
            return self._replay_epoch(epoch, key, entry)
        with self.profiler.timer("epoch:setup"):
            session = benchpark_setup(
                self.experiment, self.system_name,
                self.workdir / f"epoch-{epoch}",
            )
            session.setup()
        with self.profiler.timer("epoch:run"):
            outcomes = session.run(executor=self._executor(system, epoch))
        with self.profiler.timer("epoch:analyze"):
            results = session.analyze()
        # Pristine copy for the cache *before* epoch tagging mutates the
        # payload — a later replay re-tags for its own epoch.
        pristine = copy.deepcopy(results)
        # Tag every record with its epoch for the time axis, plus the
        # attempt log so the analysis layer can tell converged samples from
        # retried (flaky) ones.
        by_name = {o.get("experiment"): o for o in outcomes}
        epoch_meta: Dict[str, Any] = {}
        for exp in results["experiments"]:
            variables = exp.setdefault("variables", {})
            variables["epoch"] = str(epoch)
            outcome = by_name.get(exp["name"], {})
            attempts = int(outcome.get("attempts", 1) or 1)
            flaky = bool(outcome.get("flaky", False))
            variables["attempts"] = str(attempts)
            variables["flaky"] = "true" if flaky else "false"
            if outcome.get("fault_kinds"):
                variables["fault_kinds"] = ",".join(outcome["fault_kinds"])
            if attempts != 1 or flaky:
                epoch_meta[exp["name"]] = {
                    "attempts": attempts,
                    "flaky": flaky,
                    "fault_kinds": list(outcome.get("fault_kinds", [])),
                    "total_backoff_s": float(
                        outcome.get("total_backoff_s", 0.0)
                    ),
                    "state": outcome.get("state", "completed"),
                }
        count = self.db.ingest_analysis(self.system_name, results)
        if epoch_meta:
            self.attempt_history[str(epoch)] = epoch_meta
        if key is not None and self._epoch_is_clean(outcomes):
            self.result_cache.put(key, {"results": pristine, "epoch": epoch})
        self.epochs_run += 1
        self._save_checkpoint()
        return count

    def run(self, epochs: int) -> "ContinuousBenchmarking":
        """Run ``epochs`` *additional* epochs."""
        for _ in range(epochs):
            self.run_epoch()
        return self

    def run_until(self, total_epochs: int) -> "ContinuousBenchmarking":
        """Run until ``total_epochs`` epochs exist — the resumable entry
        point: after a kill, a fresh loop picks up the checkpoint and only
        runs the missing epochs."""
        while self.epochs_run < total_epochs:
            self.run_epoch()
        return self

    # ------------------------------------------------------------------
    def regressions(self) -> List[RegressionEvent]:
        """Scan the accumulated history for every tracked FOM.

        Runs through the analysis engine: each per-FOM series consumes only
        the samples recorded since its last scan, so the per-epoch cost
        stays O(new) as history grows.
        """
        return self.analysis.scan([
            (self.benchmark_name, self.system_name, fom_name, higher_is_better)
            for fom_name, higher_is_better in TRACKED_FOMS.get(
                self.benchmark_name, [])
        ])

    def history(self, fom_name: str) -> List[tuple]:
        """(epoch, mean value) series for one FOM, flaky samples
        included."""
        return epoch_means(self.db.series(self.benchmark_name,
                                          self.system_name, fom_name, "epoch"))

    def diagnose(self) -> List:
        """Name the suspected failing subsystem(s) from the cross-FOM
        regression fingerprint (§1: 'diagnosing hardware failures')."""
        from repro.analysis.diagnosis import diagnose

        monitored = [f for f, _ in TRACKED_FOMS.get(self.benchmark_name, [])]
        return diagnose(self.regressions(), monitored)

    def report(self) -> str:
        lines = [
            f"continuous benchmarking: {self.experiment} on {self.system_name}",
            f"epochs run: {self.epochs_run}, records: {len(self.db)}",
        ]
        stats = self.result_cache.stats()
        if stats["lookups"]:
            lines.append(
                f"epoch result cache: {stats['hits']}/{stats['lookups']} "
                f"hit(s) ({stats['hit_rate']:.0%} cumulative), "
                f"{stats['entries']} cached epoch(s)"
            )
        if self.attempt_history:
            retried = sum(len(v) for v in self.attempt_history.values())
            lines.append(
                f"{retried} run(s) needed retries across epochs "
                f"{sorted(self.attempt_history)} "
                f"({self.db.flaky_count()} flaky sample(s) excluded from "
                f"regression analysis)"
            )
        events = self.regressions()
        if events:
            lines.append(f"{len(events)} regression(s) detected:")
            lines += [f"  {e}" for e in events]
            for hypothesis in self.diagnose():
                lines.append(f"  diagnosis: {hypothesis}")
        else:
            lines.append("no regressions detected")
        return "\n".join(lines)
