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
Like Ramble's ``workspace setup`` / ``ramble on`` split (§3.2), the campaign
sets one workspace up under ``workdir/workspace/`` and runs each cold epoch's
experiments into ``workdir/epoch-N/``; set-up runs again only when the
fingerprint of its inputs changes.  The regression-tracking bench injects a
DIMM degradation mid-history and shows the loop localizing it in time.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.caliper import CaliperSession
from repro.analysis.engine import AnalysisEngine
from repro.analysis.regression import (
    RegressionDetector,
    RegressionEvent,
    epoch_means,
)
from repro.ci import MetricsDatabase
from repro.perf import ContentStore, fingerprint
from repro.ramble import builtin_applications
from repro.resilience import (
    CircuitBreakerRegistry,
    FaultTolerantExecutor,
    RetryPolicy,
    TransientFaultInjector,
)
from repro.spack.repository import default_repo_path
from repro.systems import SystemExecutor, get_system
from repro.systems.failures import FailureSchedule

from .driver import benchpark_setup, workspace_config

__all__ = ["ContinuousBenchmarking"]

#: journal schema version, bumped on incompatible layout changes
JOURNAL_VERSION = 2
#: the campaign journal's file name inside the workdir
JOURNAL = "campaign.jsonl"

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
        #: instead of re-executing.  Pass a shared ContentStore to let a
        #: re-run campaign reuse an earlier campaign's work; the journal
        #: keeps every entry the campaign has seen, so a resumed campaign
        #: replays from them even with a fresh store.
        self.incremental = incremental
        self.result_cache = (
            result_cache if result_cache is not None
            else ContentStore("epoch-results")
        )
        #: the campaign's one timing channel: ``epoch:*`` regions here,
        #: ``analysis:*`` regions in the engine
        self.session = CaliperSession()
        #: per-epoch resilience metadata: {epoch: {experiment: attempt info}}
        self.attempt_history: Dict[str, Dict[str, Any]] = {}
        #: keys of the result-cache entries the journal already holds
        self._journaled: set = set()
        #: bytes of the journal's complete lines; None until there is a
        #: journal to append to
        self._journal_bytes: Optional[int] = None
        #: (setup fingerprint, set-up workspace) of the campaign workspace;
        #: None until a cold epoch sets it up
        self._workspace: Optional[tuple] = None
        if resume and self.checkpoint_path.exists():
            self._load_journal()
        #: incremental analysis over the accumulated history: per-series
        #: detector states absorb only each epoch's new records, so the
        #: post-epoch regression scan is O(new) instead of a full history
        #: rescan — with events bit-identical to the batch path (the
        #: engine's contract).  Built after any journal load so it wraps
        #: the restored database.
        self.analysis = AnalysisEngine(
            self.db,
            threshold=self.detector.threshold,
            window=self.detector.window,
            session=self.session,
        )

    @classmethod
    def open(cls, workdir: Path | str) -> "ContinuousBenchmarking":
        """Resume the campaign journaled in ``workdir``, for whichever
        experiment and system its header names."""
        with (Path(workdir) / JOURNAL).open() as f:
            header = json.loads(f.readline())
        return cls(header["experiment"], header["system"], workdir)

    @property
    def benchmark_name(self) -> str:
        return self.experiment.split("/")[0]

    # -- journal / resume ----------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        """The campaign journal: a header line, then one line per epoch."""
        return self.workdir / JOURNAL

    def _append(self, line: Dict[str, Any]) -> None:
        """Append one epoch's line — the only write the campaign state
        gets, so its cost does not grow with the history."""
        data = (json.dumps(line, separators=(",", ":")) + "\n").encode()
        mode = "ab"
        if self._journal_bytes is None:  # a new journal: header first
            self.workdir.mkdir(parents=True, exist_ok=True)
            header = {"version": JOURNAL_VERSION,
                      "experiment": self.experiment, "system": self.system_name}
            data = (json.dumps(header) + "\n").encode() + data
            self._journal_bytes, mode = 0, "wb"
        with self.checkpoint_path.open(mode) as f:
            if f.tell() > self._journal_bytes:
                f.truncate(self._journal_bytes)  # a torn append, dropped
            f.write(data)
        self._journal_bytes += len(data)

    def _corrupt(self, error: Exception) -> ValueError:
        return ValueError(
            f"checkpoint {self.checkpoint_path} is corrupt ({error}); "
            f"delete it (or pass resume=False) to restart the campaign"
        )

    def _load_journal(self) -> None:
        """Rebuild the campaign by feeding every complete journal line
        through :meth:`_ingest`, the path a live epoch takes.  A last line
        without its newline is an append a kill cut short: it is skipped
        here and truncated by the next append, so opening a journal never
        writes to it."""
        raw = self.checkpoint_path.read_bytes()
        end = raw.rfind(b"\n") + 1
        lines = raw[:end].splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
            if not isinstance(header, dict):
                raise TypeError(f"a JSON {type(header).__name__}, "
                                f"not an object")
        except (ValueError, TypeError) as e:
            raise self._corrupt(e) from e
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"checkpoint {self.checkpoint_path} has version "
                f"{header.get('version')}; expected {JOURNAL_VERSION}"
            )
        if (header.get("experiment") != self.experiment
                or header.get("system") != self.system_name):
            raise ValueError(
                f"checkpoint {self.checkpoint_path} is for "
                f"{header.get('experiment')} on {header.get('system')}, "
                f"not {self.experiment} on {self.system_name}"
            )
        stats: Dict[str, int] = {}
        try:
            for raw_line in lines[1:]:
                line = json.loads(raw_line)
                self._ingest(line)
                stats = line["stats"]
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise self._corrupt(e) from e
        # the last line's counters are the store's lifetime totals, so a
        # resumed campaign reports *cumulative* rates
        self.result_cache.restore({}, stats)
        self._journal_bytes = end

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

    @property
    def workspace_dir(self) -> Path:
        """The campaign workspace: set up once, run by every cold epoch."""
        return self.workdir / "workspace"

    def _setup_key(self) -> str:
        """Fingerprint of everything workspace set-up consumes, looked up
        afresh: the generated ramble.yaml, the registry's descriptor of the
        system (with the packages and compilers its Spack runtime reads),
        the package repository, and what set-up reads of the Ramble
        application class — its executables, inputs and workloads."""
        desc = get_system(self.system_name)
        app = builtin_applications().get(self.benchmark_name)
        return fingerprint({
            "config": workspace_config(self.experiment, desc),
            "system": desc.to_dict(),
            "packages": desc.packages_config,
            "compilers": desc.compilers,
            "repo": default_repo_path().fingerprint(),
            "application": [
                f"{app.__module__}.{app.__qualname__}", app.executables,
                app.inputs, {name: [wl, wl.inputs, wl.variables]
                             for name, wl in app.workloads.items()}],
        })

    def _ingest(self, line: Dict[str, Any]) -> int:
        """Fold one epoch's journal line into the campaign — its cache
        entries, attempt history and epoch-tagged records — and return
        the FOMs recorded.  A live epoch and a resumed journal line both
        come through here, so a resumed campaign equals the live one by
        construction."""
        epoch = self.epochs_run
        self.result_cache.restore(line["entries"])
        self._journaled.update(line["entries"])
        if "replayed" in line:
            key = line["replayed"]
            entry = self.result_cache.peek(key)
            results, meta = entry["results"], {}
            tags = {"cached": "true", "cache_provenance": (
                f"replayed clean epoch {entry['epoch']} (fingerprint {key})")}
        else:
            results, meta, tags = line["results"], line["attempts"], {}
            key = line.get("key")
            if key is not None:  # a clean epoch, cached as its own results
                if key not in self.result_cache:  # resuming
                    self.result_cache.restore(
                        {key: {"results": results, "epoch": epoch}})
                self._journaled.add(key)
        if meta:
            self.attempt_history[str(epoch)] = meta
        # Tag every record with its epoch for the time axis, plus the
        # attempt log so the analysis layer can tell converged samples from
        # retried (flaky) ones.  Tags go on copies of the variables: the
        # results payload stays untagged for the cache and the journal.
        experiments = []
        for exp in results["experiments"]:
            info = meta.get(exp["name"], {})
            variables = dict(exp.get("variables", {}), epoch=str(epoch),
                             attempts=str(info.get("attempts", 1)),
                             flaky="true" if info.get("flaky") else "false",
                             **tags)
            if info.get("fault_kinds"):
                variables["fault_kinds"] = ",".join(info["fault_kinds"])
            experiments.append(dict(exp, variables=variables))
        count = self.db.ingest_analysis(
            self.system_name, dict(results, experiments=experiments))
        self.epochs_run += 1
        return count

    def _commit(self, line: Dict[str, Any]) -> int:
        """Ingest a live epoch's line, then append it to the journal."""
        stats = self.result_cache.stats()
        line["stats"] = {k: stats[k] for k in ("hits", "misses", "puts")}
        count = self._ingest(line)
        self._append(line)
        return count

    def run_epoch(self) -> int:
        """One scheduled benchmarking run; returns FOMs recorded.

        With ``incremental=True`` (the default), the epoch's inputs are
        fingerprinted first; if an identical epoch already ran cleanly —
        e.g. this campaign was re-run with a shared or journal-restored
        ``result_cache`` — its results are replayed instead of re-executing
        the benchmarks.  Flaky or faulted epochs are never cached, so a
        replay always stands for a deterministic, converged run.
        """
        epoch = self.epochs_run
        system = self.schedule.system_at(self.base_system, epoch)
        key = self._epoch_key(system, epoch) if self.incremental else None
        # the journal keeps every cache entry the campaign has seen: the
        # whole store on its first line, then what the store gained since
        line: Dict[str, Any] = {"entries": {
            k: v for k, v in self.result_cache.items()
            if k not in self._journaled}}
        if key is not None and self.result_cache.get(key) is not None:
            line["replayed"] = key
            with self.session.region("epoch:replay"):
                return self._commit(line)
        # set the campaign workspace up only when its inputs changed (or on
        # this process's first cold epoch); else run its experiments again
        setup_key = self._setup_key()
        if self._workspace is None or self._workspace[0] != setup_key:
            with self.session.region("epoch:setup"):
                shutil.rmtree(self.workspace_dir, ignore_errors=True)
                benchpark = benchpark_setup(
                    self.experiment, self.system_name, self.workspace_dir)
                benchpark.setup()
            self._workspace = (setup_key, benchpark.workspace)
        with self.session.region("epoch:run"):
            workspace = self._workspace[1].rerooted(
                self.workdir / f"epoch-{epoch}")
            outcomes = workspace.run(self._executor(system, epoch))
        with self.session.region("epoch:analyze"):
            results = workspace.analyze()
        # every run that was retried, flaky or not completed (a refused run
        # made 0 attempts) goes into the attempt history
        meta: Dict[str, Any] = {}
        for o in outcomes:
            attempts = int(o.get("attempts", 1))
            flaky = bool(o.get("flaky", False))
            state = o.get("state", "completed")
            if attempts != 1 or flaky or state != "completed":
                meta[o["experiment"]] = {
                    "attempts": attempts,
                    "flaky": flaky,
                    "fault_kinds": list(o.get("fault_kinds", [])),
                    "total_backoff_s": float(o.get("total_backoff_s", 0.0)),
                    "state": state,
                }
        line.update(results=results, attempts=meta)
        # only a clean epoch — every run converged on its first attempt
        # with no fault — is safe to serve from the cache later
        if key is not None and not meta and all(
                int(o.get("returncode", 0) or 0) == 0 for o in outcomes):
            self.result_cache.put(key, {"results": results, "epoch": epoch})
            line["key"] = key
        return self._commit(line)

    def run(self, epochs: int) -> "ContinuousBenchmarking":
        """Run ``epochs`` *additional* epochs."""
        for _ in range(epochs):
            self.run_epoch()
        return self

    def run_until(self, total_epochs: int) -> "ContinuousBenchmarking":
        """Run until ``total_epochs`` epochs exist — the resumable entry
        point: after a kill, a fresh loop picks up the journal and only
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
