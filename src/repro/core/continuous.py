"""The continuous-benchmarking loop itself.

§2: "Being able to automate the benchmarking process and store the results
of the evaluation before and after any changes to hardware, firmware,
drivers, or software will provide a deeper understanding of the impact of
these changes."

:class:`ContinuousBenchmarking` runs one (experiment, system) campaign per
*epoch* — a scheduled CI trigger in real Benchpark — against a system whose
health follows a :class:`~repro.systems.failures.FailureSchedule`, stores
every FOM in the metrics database tagged with its epoch, and scans the
accumulated history through an :class:`~repro.analysis.engine.AnalysisEngine`,
which feeds each tracked series only its new samples.
Like Ramble's ``workspace setup`` / ``ramble on`` split (§3.2), the campaign
sets one workspace up under ``workdir/workspace/`` and runs each cold epoch's
experiments into ``workdir/epoch-N/``; set-up runs again only when the
fingerprint of its inputs changes.  The journal stores each set-up's
experiment manifests once, relative to the workdir, and each epoch only its
figures of merit and verdicts.  That fingerprint is part of every epoch
key, and is hashed again only when the inputs' pickle differs from the one
they were last hashed from, so a replayed epoch makes one encoder pass, for
its epoch key.  An epoch and a regression scan run with the campaign's
Caliper session active, so every layer they call times itself into it.
The regression-tracking bench injects a DIMM degradation mid-history and
shows the loop localizing it in time.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.caliper import CaliperSession, annotate, region
from repro.analysis.engine import AnalysisEngine
from repro.analysis.regression import RegressionEvent, epoch_means
from repro.ci.metricsdb import MetricsDatabase
from repro.perf import ContentStore, fingerprint
from repro.ramble.apps import builtin_applications
from repro.ramble.workspace import rerooted_keys
from repro.resilience import (
    CircuitBreakerRegistry,
    FaultTolerantExecutor,
    RetryPolicy,
    TransientFaultInjector,
)
from repro.spack.repository import default_repo_path
from repro.systems.executor import SystemExecutor
from repro.systems.failures import FailureSchedule
from repro.systems.registry import get_system

from .driver import benchpark_setup, workspace_config

__all__ = ["ContinuousBenchmarking"]

#: journal schema version, bumped on incompatible layout changes
JOURNAL_VERSION = 4
#: the campaign journal's file name inside the workdir
JOURNAL = "campaign.jsonl"
#: what an epoch line keeps of each analyzed experiment; the rest of it is
#: its set-up record's manifest
RESULT_KEYS = ("name", "figures_of_merit", "success_criteria", "status")

#: FOMs worth tracking per benchmark, with their direction.
TRACKED_FOMS: Dict[str, List[tuple]] = {
    "saxpy": [("bandwidth", True), ("kernel_time", False)],
    "amg2023": [("fom_solve", True), ("fom_setup", True)],
    "stream": [("triad_bw", True), ("copy_bw", True)],
    "osu-micro-benchmarks": [("total_time", False)],
    "quicksilver": [("fom_segments", True)],
}


def _corrupt(path: Path, error: Exception) -> ValueError:
    return ValueError(
        f"checkpoint {path} is corrupt ({error}); "
        f"delete it (or pass resume=False) to restart the campaign"
    )


class ContinuousBenchmarking:
    """A long-running benchmarking loop for one experiment on one system."""

    def __init__(
        self,
        experiment: str,
        system: str,
        workdir: Path | str,
        schedule: Optional[FailureSchedule] = None,
        injector: Optional[TransientFaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        resume: bool = True,
        result_cache: Optional[ContentStore] = None,
    ):
        self.experiment = experiment
        self.system_name = system
        self.base_system = get_system(system)
        self.workdir = Path(workdir)
        self.schedule = schedule or FailureSchedule()
        self.injector = injector
        self.retry_policy = retry_policy
        self.breakers = breakers
        if self.breakers is None and injector is not None:
            self.breakers = CircuitBreakerRegistry()
        self.db = MetricsDatabase()
        self.epochs_run = 0
        #: epochs served from the result cache, counted from the lines this
        #: campaign ingested, live or resumed
        self.epochs_replayed = 0
        #: content-addressed reuse of prior epoch results: an epoch whose
        #: inputs (experiment, effective system state, setup fingerprint,
        #: epoch index) fingerprint to a previously *clean* run replays
        #: that run's results instead of re-executing.  Pass a shared ContentStore to let a
        #: re-run campaign reuse an earlier campaign's work.  The journal
        #: keeps only the entries this campaign ingested, so a campaign
        #: resumed with a fresh store replays the epochs it journaled and
        #: runs any later epoch cold.
        self.result_cache = (
            result_cache if result_cache is not None
            else ContentStore("epoch-results")
        )
        #: the campaign's one timing channel, active while an epoch or a
        #: regression scan runs: ``epoch:*`` regions here, ``analysis:*`` in
        #: the engine and one region per layer they call
        self.session = CaliperSession()
        #: per-epoch resilience metadata: {epoch: {experiment: attempt info}}
        self.attempt_history: Dict[str, Dict[str, Any]] = {}
        #: bytes of the journal's complete lines; None until there is a
        #: journal to append to
        self._journal_bytes: Optional[int] = None
        #: (setup fingerprint, set-up workspace, its set-up record) of the
        #: campaign workspace; None until a cold epoch sets it up
        self._workspace: Optional[tuple] = None
        #: (the last set-up record ingested, its :meth:`_static` form): the
        #: manifests of the epoch lines after it
        self._setup: Optional[tuple] = None
        #: (pickle of the set-up inputs, their fingerprint), so a replayed
        #: epoch hashes its set-up inputs only when they changed
        self._setup_memo: Optional[tuple] = None
        if resume and self.checkpoint_path.exists():
            self._load_journal()
        #: incremental analysis over the accumulated history: per-series
        #: detector states absorb only each epoch's new records, so the
        #: post-epoch regression scan is O(new) instead of a full history
        #: rescan — with events bit-identical to the batch path (the
        #: engine's contract).  Built after any journal load so it wraps
        #: the restored database.
        self.analysis = AnalysisEngine(self.db, threshold=0.10, window=2)

    @classmethod
    def open(cls, workdir: Path | str) -> "ContinuousBenchmarking":
        """Resume the campaign journaled in ``workdir``, for whichever
        experiment and system its header names."""
        path = Path(workdir) / JOURNAL
        with path.open() as f:
            first = f.readline()
        try:
            header = json.loads(first)
            experiment, system = header["experiment"], header["system"]
        except (ValueError, TypeError, KeyError) as e:
            raise _corrupt(path, e) from e
        return cls(experiment, system, workdir)

    @property
    def benchmark_name(self) -> str:
        return self.experiment.split("/")[0]

    # -- journal / resume ----------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        """The campaign journal: a header line, then one line per epoch,
        each set-up record before the first epoch line that uses it."""
        return self.workdir / JOURNAL

    @annotate("journal.append")
    def _append(self, line: str) -> None:
        """Append one epoch's encoded line, after its set-up record when it
        is the first to use it — the only write the campaign state gets, so
        its cost does not grow with the history."""
        data = (line + "\n").encode()
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
            raise _corrupt(self.checkpoint_path, e) from e
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
        try:
            for raw_line in lines[1:]:
                self._ingest(json.loads(raw_line))
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            raise _corrupt(self.checkpoint_path, e) from e
        self._journal_bytes = end

    # ------------------------------------------------------------------
    def _executor(self, system, epoch: int) -> FaultTolerantExecutor:
        return FaultTolerantExecutor(
            SystemExecutor(system, epoch=epoch), injector=self.injector,
            policy=self.retry_policy, breakers=self.breakers,
            runner_tag="continuous",
        )

    def _epoch_key(self, system, epoch: int, setup: str) -> str:
        """Fingerprint of everything that determines an epoch's results:
        the experiment, the *effective* system state at this epoch (the
        failure schedule may have degraded it), the setup fingerprint
        ``setup`` of the workspace it runs against, and the epoch index
        itself — executors salt their measurement noise per epoch, so epoch
        N and epoch M of the same campaign legitimately differ and must
        never alias."""
        return fingerprint({
            "experiment": self.experiment,
            "system": system.to_dict(),
            "setup": setup,
            "epoch": epoch,
        })

    @property
    def workspace_dir(self) -> Path:
        """The campaign workspace: set up once, run by every cold epoch."""
        return self.workdir / "workspace"

    def _setup_inputs(self) -> Dict[str, Any]:
        """Everything workspace set-up and analysis consume, looked up
        afresh as plain data: the generated ramble.yaml, the registry's
        descriptor of the system (with the packages and compilers its Spack
        runtime reads), the digest of each package repository, and what
        set-up and analysis read of the application — its executables,
        inputs, workloads, figures of merit and success criteria."""
        desc = get_system(self.system_name)
        app = builtin_applications().get(self.benchmark_name)
        return {
            "config": workspace_config(self.experiment, desc),
            "system": desc.to_dict(),
            "packages": desc.packages_config,
            "compilers": desc.compilers,
            "repo": [r.fingerprint() for r in default_repo_path().repos],
            "application": [
                f"{app.__module__}.{app.__qualname__}",
                {n: vars(e) for n, e in app.executables.items()}, app.inputs,
                {n: [wl.name, wl.executables, wl.inputs,
                     {v: vars(d) for v, d in wl.variables.items()}]
                 for n, wl in app.workloads.items()},
                {n: {k: v for k, v in vars(f).items() if k != "_compiled"}
                 for n, f in app.figures_of_merit.items()},
                {n: vars(c) for n, c in app.success_criteria.items()}],
        }

    def _setup_key(self) -> str:
        """Fingerprint of :meth:`_setup_inputs`, hashed again only when
        they change.  The memo keeps the pickle of the inputs it hashed, so
        an edit in place, however deeply nested, or to an equal value of
        another type (``36`` → ``36.0``) changes the pickle and is hashed.
        Equal inputs that share objects differently pickle differently too;
        that costs one more hash, never a stale key."""
        inputs = self._setup_inputs()
        snapshot = pickle.dumps(inputs, pickle.HIGHEST_PROTOCOL)
        if self._setup_memo is None or snapshot != self._setup_memo[0]:
            self._setup_memo = (snapshot, fingerprint(inputs))
        return self._setup_memo[1]

    def _relative(self, variables: Dict[str, str]) -> Dict[str, str]:
        """``variables`` with every path relative to the workdir."""
        prefix = f"{self.workdir}{os.sep}"
        return {k: v.replace(prefix, "") for k, v in variables.items()}

    def _setup_record(self, key: str, workspace) -> Dict[str, Any]:
        """The journal record of set-up ``key``: each experiment's static
        manifest, as analysis reports it, relative to the workdir."""
        return {"setup": key, "experiments": [
            {"name": e.name, "application": e.application,
             "workload": e.workload, "n_ranks": e.variables.get("n_ranks"),
             "variables": self._relative(e.variables)}
            for e in workspace.experiments]}

    @staticmethod
    def _static(record: Dict[str, Any]) -> Dict[str, tuple]:
        """Each experiment of set-up ``record``, by name: its manifest, its
        run directory, the part of that below the set-up workspace, and the
        variables naming it, which an epoch moves
        (:meth:`Workspace.rerooted`'s rule)."""
        static = {}
        for manifest in record["experiments"]:
            variables = manifest["variables"]
            run_dir = variables["experiment_run_dir"]
            static[manifest["name"]] = (
                manifest, run_dir, run_dir.split(os.sep, 1)[1],
                rerooted_keys(variables, run_dir,
                              variables["execute_experiment"]))
        return static

    @staticmethod
    def _epoch_variables(static: tuple, epoch: int) -> Dict[str, str]:
        """A set-up experiment's relative variables, given in its
        :meth:`_static` form, as epoch ``epoch`` ran them: moved from the
        set-up workspace into ``epoch-<epoch>/``."""
        manifest, run_dir, below, keys = static
        variables = dict(manifest["variables"])
        moved = f"epoch-{epoch}{os.sep}{below}"
        for k in keys:
            variables[k] = variables[k].replace(run_dir, moved)
        return variables

    def _ingest(self, line: Dict[str, Any]) -> int:
        """Fold one journal line into the campaign and return the FOMs
        recorded.  A set-up record becomes the manifest source of the epoch
        lines after it; an epoch line adds its results, cache entry,
        attempt history and records, each record's manifest derived from
        the set-up record for the epoch that ran cold.  A live epoch and a
        resumed journal line both come through here, so a resumed campaign
        equals the live one by construction."""
        if "setup" in line:
            self._setup = (line, self._static(line))
            return 0
        epoch = self.epochs_run
        results, meta = line["results"], line.get("attempts", {})
        key, origin, tags = line.get("key"), epoch, {}
        if "replayed" in line:
            key, origin = line["key"], line["replayed"]
            tags = {"cached": "true", "cache_provenance": (
                f"replayed clean epoch {origin} (fingerprint {key})")}
            self.epochs_replayed += 1
        setup, static = self._setup
        if key is not None and key not in self.result_cache:  # resuming
            self.result_cache.put(
                key, {"results": results, "epoch": origin, "setup": setup})
        if meta:
            self.attempt_history[str(epoch)] = meta
        # Tag every record with its epoch for the time axis, plus the
        # attempt log so the analysis layer can tell converged samples from
        # retried (flaky) ones.
        stamp = dict(epoch=str(epoch), attempts="1", flaky="false", **tags)
        experiments = []
        for exp in results:
            name = exp["name"]
            variables = self._epoch_variables(static[name], origin)
            variables.update(stamp)
            info = meta.get(name)
            if info:
                variables.update(
                    attempts=str(info.get("attempts", 1)),
                    flaky="true" if info.get("flaky") else "false")
                if info.get("fault_kinds"):
                    variables["fault_kinds"] = ",".join(info["fault_kinds"])
            experiments.append({
                "name": name, "application": static[name][0]["application"],
                "figures_of_merit": exp["figures_of_merit"],
                "variables": variables})
        count = self.db.ingest_analysis(self.system_name,
                                        {"experiments": experiments})
        self.epochs_run += 1
        return count

    def _commit(self, line: Dict[str, Any], entry: Dict[str, Any]) -> int:
        """Ingest a live epoch's line with ``entry``'s results, then append
        it to the journal, after ``entry``'s set-up record when that is not
        the last one the campaign ingested.  The results are JSON-encoded
        once per cache entry — at its cold commit, or at its first replay
        in this process — and the text is kept on the entry for every
        later replay."""
        setup, text = entry["setup"], ""
        if self._setup is None or self._setup[0]["setup"] != setup["setup"]:
            self._ingest(setup)
            text = json.dumps(setup, separators=(",", ":")) + "\n"
        count = self._ingest(dict(line, results=entry["results"]))
        if "results_json" not in entry:
            entry["results_json"] = json.dumps(entry["results"],
                                               separators=(",", ":"))
        rest = json.dumps(line, separators=(",", ":"))
        self._append(text + '{"results":' + entry["results_json"] + ","
                     + rest[1:])
        return count

    def run_epoch(self) -> int:
        """One scheduled benchmarking run; returns FOMs recorded.

        The epoch's inputs are fingerprinted first; if an identical epoch
        already ran cleanly — e.g. this campaign was re-run with a shared
        ``result_cache`` — its results are replayed instead of re-executing
        the benchmarks, and its journal line carries them.  Flaky or
        faulted epochs are never cached, so a replay always stands for a
        deterministic, converged run.
        """
        with self.session.activate():
            epoch = self.epochs_run
            system = self.schedule.system_at(self.base_system, epoch)
            setup_key = self._setup_key()
            key = self._epoch_key(system, epoch, setup_key)
            entry = self.result_cache.get(key)
            if entry is not None:
                with region("epoch:replay"):
                    return self._commit(
                        {"key": key, "replayed": entry["epoch"]}, entry)
            # set the workspace up only when its inputs changed (or on this
            # process's first cold epoch); else run its experiments again
            if self._workspace is None or self._workspace[0] != setup_key:
                with region("epoch:setup"):
                    shutil.rmtree(self.workspace_dir, ignore_errors=True)
                    benchpark = benchpark_setup(
                        self.experiment, self.system_name, self.workspace_dir)
                    benchpark.setup()
                self._workspace = (setup_key, benchpark.workspace,
                                   self._setup_record(setup_key,
                                                      benchpark.workspace))
            with region("epoch:run"):
                workspace = self._workspace[1].rerooted(
                    self.workdir / f"epoch-{epoch}")
                outcomes = workspace.run(self._executor(system, epoch))
            with region("epoch:analyze"):
                analyzed = workspace.analyze()
            setup = self._workspace[2]
            results = [{k: exp[k] for k in RESULT_KEYS if k in exp}
                       for exp in analyzed["experiments"]]
            # every run that was retried, flaky or not completed (a refused
            # run made 0 attempts) goes into the attempt history
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
                        "total_backoff_s": float(
                            o.get("total_backoff_s", 0.0)),
                        "state": state,
                    }
            line: Dict[str, Any] = {"attempts": meta}
            entry = {"results": results, "epoch": epoch, "setup": setup}
            # only a clean epoch — every run converged on its first attempt
            # with no fault — is safe to serve from the cache later
            if not meta and all(
                    int(o.get("returncode", 0) or 0) == 0 for o in outcomes):
                self.result_cache.put(key, entry)
                line["key"] = key
            return self._commit(line, entry)

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
        with self.session.activate():
            return self.analysis.scan([
                (self.benchmark_name, self.system_name, fom_name,
                 higher_is_better)
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
        if self.epochs_run:  # every epoch makes one cache lookup
            lines.append(
                f"epoch result cache: {self.epochs_replayed}/{self.epochs_run}"
                f" hit(s) ({self.epochs_replayed / self.epochs_run:.0%} "
                f"cumulative), {len(self.result_cache)} cached epoch(s)"
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
