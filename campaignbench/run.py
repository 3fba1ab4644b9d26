"""Campaign benchmark: the continuous-benchmarking loop end to end.

One process, one thread, a closed loop: the workload's campaigns take turns
round-robin, and each runs its next epoch only after its previous
``run_epoch()`` and the ``regressions()`` scan after it have returned.  A
*pass* runs every campaign for the workload's history length in fresh
workdirs; the timed region repeats passes until both ``--seconds`` have
elapsed and ``MIN_STEPS`` steps have run.

Run from the repository root::

    python3 campaignbench/run.py --workload replay-warm --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
timed region with span wrappers installed and prints the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 1 if
any correctness check failed.  See ``campaignbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the program is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".campaignbench"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np

    from repro.core.continuous import ContinuousBenchmarking
    from repro.perf import ContentStore
    from repro.resilience import FaultKind, RetryPolicy, TransientFaultInjector
    from repro.spack.concretizer import (
        clear_concretization_memo,
        concretization_memo,
    )
    from repro.systems.failures import Degradation, FailureSchedule
except ImportError as exc:  # run outside a checkout of the program
    sys.exit(f"error: cannot import the program from {ROOT / 'src'}: {exc}")

import tracing  # noqa: E402

SETUP_REPEATS = 3
#: timed steps at least, whatever --seconds says
MIN_STEPS = 192
#: epoch_ms_tail: the highest whole percentile with at least ten of
#: MIN_STEPS samples beyond it (p94)
TAIL_PERCENTILE = math.floor(100 * (1 - 10 / MIN_STEPS))
#: resume samples taken right after every untraced pass; more are taken
#: between the epoch rounds of the next pass, for RESUME_SHARE of the time
#: spent stepping, so that they spread over the run like the steps do and
#: a cheap resume is sampled as long as a costly one
RESUME_REPEATS = 2
RESUME_SHARE = 0.1
#: largest share of the step wall time that the traced layers may leave
#: unattributed (the loop's own bookkeeping around run_epoch and the scan)
UNATTRIBUTED_MAX = 0.02

#: campaign FOM on which the cts1 degradation must be flagged
BANDWIDTH_FOM = {"stream": "triad_bw", "saxpy": "bandwidth"}


@dataclass(frozen=True)
class Workload:
    experiments: tuple
    systems: tuple
    epochs: int  # history length of every campaign in one pass
    fault_rate: float = 0.0  # seeded node-failure rate per attempt
    #: one result cache shared by the campaigns, filled in set-up by a cold
    #: pass (else a cache per campaign, cold)
    warm: bool = False


#: replay-warm's cold pass runs only in its set-up (and so shows in its
#: setup_s): timed as a workload of its own, the cold campaigns' step times
#: spread past their bounds between sets of runs on a shared host.
WORKLOADS: Dict[str, Workload] = {
    "kernels-short": Workload(
        experiments=("stream/openmp", "amg2023/openmp"),
        systems=("cts1", "ats4"), epochs=8,
    ),
    "replay-warm": Workload(
        experiments=("saxpy/openmp", "osu-micro-benchmarks/mpi"),
        systems=("cts1", "ats2", "ats4"), epochs=16, fault_rate=0.03,
        warm=True,
    ),
}


@dataclass
class PassResult:
    steps_ms: List[float]
    epochs: List[int]  # epoch index of each step
    wall_s: float
    wchar: int
    detected_at: Dict[str, Optional[int]]  # cts1 campaign -> epoch flagged
    checkpoint_kb: Dict[str, List[float]]  # "first"/"last" -> sizes
    events: int
    cache_hits: int
    cache_lookups: int
    cache_entries: int
    memo_hits: int
    memo_lookups: int
    # filled by audit()
    runs: int = 0
    failed_runs: int = 0
    retries: int = 0
    failed_steps: int = 0
    stream_arrays: set = field(default_factory=set)


class Bench:
    """One workload's campaigns, built from the inputs its seed decides:
    the cts1 degradation onset and the transient-fault salt.  The seed
    alone seeds them, so replay-warm's cold pass in set-up and its timed
    warm passes see the same inputs."""

    def __init__(self, name: str, seed: int, problems: List[str]):
        self.name = name
        self.workload = WORKLOADS[name]
        self.problems = problems
        self.rng = random.Random(seed)
        self.onset = self.rng.randint(self.workload.epochs // 3,
                                      (2 * self.workload.epochs) // 3)
        self.degraded = FailureSchedule([
            (self.onset, Degradation("bad-dimm", memory_bw_factor=0.5)),
        ])
        self.injector = self.policy = None  # drawn by warm_up()
        self.salt_s = 0.0  # the benchmark's own search for the salt
        self.run_dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self._dirs = 0

    def warm_up(self) -> None:
        """Run one fault-free epoch of every campaign, paying the process's
        first-call costs, then draw the fault salt from the runs it saw."""
        campaigns = self.campaigns()
        for c in campaigns:
            c.run_epoch()
            c.regressions()
        if self.workload.fault_rate:
            t = time.perf_counter()
            runs = [(c.experiment, c.system_name, [
                exp["name"] for exp in json.loads(
                    (c.workdir / "epoch-0" / "results.latest.json").read_text()
                )["experiments"]]) for c in campaigns]
            self.injector = TransientFaultInjector(
                {FaultKind.NODE_FAILURE: self.workload.fault_rate},
                salt=self._salt(runs),
            )
            self.policy = RetryPolicy()
            self.salt_s = time.perf_counter() - t
        shutil.rmtree(campaigns[0].workdir.parent, ignore_errors=True)

    def _salt(self, runs) -> str:
        """The first seeded salt under which each experiment has exactly
        its expected number of epochs with a fault on a first attempt.  The
        seed then moves where faults land, but not how many epochs of each
        experiment re-execute: that would otherwise change the result
        cache's size, every checkpoint's, and the cost of the re-executed
        epochs from seed to seed."""
        rate, epochs = self.workload.fault_rate, self.workload.epochs

        def per_experiment(epoch_faulted) -> Dict[str, int]:
            out: Dict[str, int] = {}
            for experiment, system, names in runs:
                out[experiment] = out.get(experiment, 0) + epoch_faulted(
                    system, names)
            return out

        expected = {k: round(v) for k, v in per_experiment(
            lambda _, names: epochs * (1 - (1 - rate) ** len(names))).items()}
        while True:
            salt = f"campaignbench-{self.rng.getrandbits(64):016x}"
            injector = TransientFaultInjector(
                {FaultKind.NODE_FAILURE: rate}, salt=salt)
            if per_experiment(lambda system, names: sum(
                    any(injector.sample(system, name, epoch, 1)
                        for name in names)
                    for epoch in range(epochs))) == expected:
                return salt

    # -- campaigns --------------------------------------------------------
    def campaigns(self, store=None) -> list:
        """Fresh campaigns in a fresh directory; ``store`` is the shared
        result cache (None: a cache per campaign)."""
        self._dirs += 1
        root = self.run_dir / f"pass-{self._dirs}"
        if self.workload.warm and store is None:
            store = ContentStore("epoch-results")
        return [
            ContinuousBenchmarking(
                experiment, system, root / f"{system}-{experiment.replace('/', '-')}",
                schedule=self.degraded if system == "cts1" else None,
                injector=self.injector, retry_policy=self.policy,
                resume=False, result_cache=store,
            )
            for system in self.workload.systems
            for experiment in self.workload.experiments
        ]

    # -- one pass of the closed loop ----------------------------------------
    def run_pass(self, campaigns, tracer=None, between=None) -> PassResult:
        """Run every campaign through the workload's history, round-robin.
        ``between`` runs after a round of epochs as often as keeps its
        total time at ``RESUME_SHARE`` of the pass's; its time and writes
        are left out of the pass's wall time and write count."""
        clear_concretization_memo()
        stores = list({id(c.result_cache): c.result_cache
                       for c in campaigns}.values())
        before = [s.stats() for s in stores]
        onset = self.onset
        watch = {
            i: f"{c.benchmark_name}/cts1/{BANDWIDTH_FOM[c.benchmark_name]}"
            for i, c in enumerate(campaigns)
            if c.system_name == "cts1" and c.benchmark_name in BANDWIDTH_FOM
        }
        detected: Dict[str, Optional[int]] = {watch[i]: None for i in watch}
        sizes: Dict[str, List[float]] = {"first": [], "last": []}
        last_events: Dict[int, int] = {}
        steps_ms, epochs = [], []
        last = self.workload.epochs - 1
        paused_s = paused_wchar = 0
        wchar0 = _wchar()
        t0 = time.perf_counter()
        for epoch in range(self.workload.epochs):
            for i, campaign in enumerate(campaigns):
                if tracer is not None:
                    tracer.context = (f"{campaign.experiment}@"
                                      f"{campaign.system_name}", epoch)
                step = tracer.span("step") if tracer is not None else nullcontext()
                s = time.perf_counter()
                with step:
                    campaign.run_epoch()
                    events = campaign.regressions()
                steps_ms.append((time.perf_counter() - s) * 1e3)
                epochs.append(epoch)
                last_events[i] = len(events)
                metric = watch.get(i)
                if metric and detected[metric] is None and epoch >= onset:
                    if any(e.metric == metric and e.epoch >= onset
                           for e in events):
                        detected[metric] = epoch
                if epoch in (0, last):
                    sizes["first" if epoch == 0 else "last"].append(
                        campaign.checkpoint_path.stat().st_size / 1e3)
            while between is not None and paused_s < RESUME_SHARE * (
                    time.perf_counter() - t0 - paused_s):
                p, w = time.perf_counter(), _wchar()
                between()
                paused_s += time.perf_counter() - p
                paused_wchar += _wchar() - w
        wall = time.perf_counter() - t0 - paused_s
        wchar = _wchar() - wchar0 - paused_wchar
        after = [s.stats() for s in stores]
        memo = concretization_memo().stats()
        return PassResult(
            steps_ms=steps_ms, epochs=epochs, wall_s=wall, wchar=wchar,
            detected_at=detected, checkpoint_kb=sizes,
            events=sum(last_events.values()),
            cache_hits=sum(a["hits"] - b["hits"] for a, b in zip(after, before)),
            cache_lookups=sum(a["lookups"] - b["lookups"]
                              for a, b in zip(after, before)),
            cache_entries=sum(a["entries"] for a in after),
            memo_hits=memo["hits"], memo_lookups=memo["lookups"],
        )

    # -- correctness --------------------------------------------------------
    def audit(self, campaigns, result: PassResult) -> None:
        """Every executed experiment ended SUCCESS or is a run the
        resilience layer gave up on; count runs, failures and retries."""
        for c in campaigns:
            gave_up = set()
            for epoch, meta in c.attempt_history.items():
                for exp, info in meta.items():
                    result.retries += max(int(info["attempts"]) - 1, 0)
                    if info["state"] != "completed":
                        gave_up.add((int(epoch), exp))
            result.failed_runs += len(gave_up)
            result.failed_steps += len({epoch for epoch, _ in gave_up})
            for epoch in range(self.workload.epochs):
                path = c.workdir / f"epoch-{epoch}" / "results.latest.json"
                if not path.exists():
                    continue  # replayed from the result cache
                for exp in json.loads(path.read_text())["experiments"]:
                    result.runs += 1
                    if exp["application"] == "stream":
                        result.stream_arrays.add(int(exp["variables"]["array_size"]))
                    if (exp["status"] != "SUCCESS"
                            and (epoch, exp["name"]) not in gave_up):
                        self.problems.append(
                            f"{c.experiment}@{c.system_name} epoch {epoch}: "
                            f"{exp['name']} ended {exp['status']} without "
                            f"exhausting its retries")
        for metric, epoch in result.detected_at.items():
            if epoch is None or epoch - self.onset > 1:
                self.problems.append(
                    f"{metric}: degradation from epoch {self.onset} "
                    f"flagged at {epoch}, not within one epoch")

    def check_replay(self, cold, warm) -> None:
        """Warm FOM series equal the cold pass on every replayed epoch
        (provenance keys excluded); flaky epochs re-execute and may differ
        in value only."""
        for c, w in zip(cold, warm):
            replayed = {r.manifest.get("epoch") for r in w.db.query()
                        if r.manifest.get("cached") == "true"}
            a, b = _fom_series(c), _fom_series(w)
            if [k[:4] + k[5:] for k in a] != [k[:4] + k[5:] for k in b]:
                self.problems.append(f"{w.experiment}@{w.system_name}: warm "
                                     f"FOM keys differ from the cold pass")
            elif [x for x in a if x[-1] in replayed] != \
                    [x for x in b if x[-1] in replayed]:
                self.problems.append(f"{w.experiment}@{w.system_name}: "
                                     f"replayed FOMs differ from the cold pass")

    def resume_once(self, campaigns) -> float:
        """Time to reopen every campaign from its checkpoint and answer
        regressions() once; the resumed state must equal the uninterrupted
        run.  A resumed campaign starts in a fresh process, so the
        benchmark's own heap is frozen out of the collector's scans while
        it runs."""
        gc.freeze()
        try:
            t = time.perf_counter()
            resumed = [ContinuousBenchmarking(
                c.experiment, c.system_name, c.workdir, schedule=c.schedule,
                injector=self.injector, retry_policy=self.policy, resume=True,
            ) for c in campaigns]
            scans = [r.regressions() for r in resumed]
            elapsed = time.perf_counter() - t
        finally:
            gc.unfreeze()
        for c, r, events in zip(campaigns, resumed, scans):
            if r.db.to_records() != c.db.to_records():
                self.problems.append(f"{c.experiment}@{c.system_name}: resumed "
                                     f"records differ from the uninterrupted run")
            if [str(e) for e in events] != [str(e) for e in c.regressions()]:
                self.problems.append(f"{c.experiment}@{c.system_name}: resumed "
                                     f"regressions differ")
        return elapsed


def _fom_series(campaign) -> list:
    """Every recorded FOM without provenance keys (cached/cache_provenance),
    as ``benchmarks/bench_incremental.py`` compares them; kept here so the
    benchmark does not change when that script does."""
    return [(r.benchmark, r.system, r.experiment, r.fom_name, r.value,
             r.units, r.manifest.get("epoch")) for r in campaign.db.query()]


def _wchar() -> int:
    """Bytes this process has passed to write() so far."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _llc_bytes() -> Optional[int]:
    """Size of cpu0's last-level cache from sysfs, if the kernel shows it."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


# -- timed region -----------------------------------------------------------
def timed_region(bench: Bench, seconds: float, first, store, cold,
                 tracer=None) -> tuple:
    """Repeat passes until ``seconds`` and ``MIN_STEPS`` are both
    reached.  With a tracer, untraced and traced passes alternate
    (wrappers installed for the traced ones only) until both sides are
    done, so drift over the run cancels out of ``trace.overhead``.

    Each untraced pass is resumed from its final checkpoints right after it
    ends and again between epoch rounds of the next pass.

    Returns (untraced results, traced results, resume samples).
    """
    sides: Dict[bool, List[PassResult]] = {False: [], True: []}
    resume: List[float] = []

    def done(results):
        return (sum(r.wall_s for r in results) >= seconds
                and sum(len(r.steps_ms) for r in results) >= MIN_STEPS)

    campaigns, traced, previous = first, False, None
    while True:
        if campaigns is None:
            campaigns = bench.campaigns(store)
        between = None
        if previous is not None and not traced:
            def between(done_pass=previous):
                resume.append(bench.resume_once(done_pass))
        with tracer if traced else nullcontext():
            result = bench.run_pass(campaigns, tracer if traced else None,
                                    between)
        bench.audit(campaigns, result)
        if cold is not None:
            bench.check_replay(cold, campaigns)
        if previous is not None:
            shutil.rmtree(previous[0].workdir.parent, ignore_errors=True)
            previous = None
        if traced:
            shutil.rmtree(campaigns[0].workdir.parent, ignore_errors=True)
        else:
            resume += [bench.resume_once(campaigns)
                       for _ in range(RESUME_REPEATS)]
            previous = campaigns
        sides[traced].append(result)
        if done(sides[False]) and (tracer is None or done(sides[True])):
            if previous is not None:
                shutil.rmtree(previous[0].workdir.parent, ignore_errors=True)
            return sides[False], sides[True], resume
        campaigns = None
        traced = tracer is not None and not traced


def end_to_end(bench: Bench, results: List[PassResult], setup_s: float,
               resume: List[float]) -> Dict[str, tuple]:
    steps = [ms for r in results for ms in r.steps_ms]
    runs = sum(r.runs for r in results)
    failed = sum(r.failed_runs for r in results)
    lags = [epoch - bench.onset for r in results
            for epoch in r.detected_at.values() if epoch is not None]
    print(f"# epoch_ms_tail is p{TAIL_PERCENTILE} of {len(steps)} step "
          f"samples (>= {len(steps) * (100 - TAIL_PERCENTILE) / 100:.0f} "
          f"beyond it)")
    print(f"# failed_run_ratio = {failed}/{runs} runs attempted "
          f"(reported as completed_run_ratio)")
    # the median: the mean follows the host's slow spells, and the fastest
    # follows its rare fast ones (a few samples 30% under the rest)
    print(f"# resume_s is the median of {len(resume)} resumes "
          f"(fastest {min(resume):.4f} s, mean {statistics.fmean(resume):.4f} s)")
    print(f"# detect: degradation onset at epoch {bench.onset}, "
          f"lag {max(lags) if lags else 'never'} epoch(s)")
    return {
        "setup_s": (setup_s, "s"),
        "epoch_ms_p50": (statistics.median(steps), "ms"),
        "epoch_ms_tail": (float(np.percentile(steps, TAIL_PERCENTILE)), "ms"),
        "epochs_per_s": (len(steps) / sum(r.wall_s for r in results), "1/s"),
        "resume_s": (statistics.median(resume), "s"),
        "write_mb": (sum(r.wchar for r in results) / len(results) / 1e6, "MB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "completed_run_ratio": ((runs - failed) / runs if runs else 1.0,
                                "ratio"),
        # never flagged: one more than the degraded epochs observed
        "detect_epochs": (1 + (max(lags) if lags else
                               bench.workload.epochs - bench.onset),
                          "epochs"),
    }


def per_layer(bench: Bench, untraced: List[PassResult],
              traced: List[PassResult], tracer) -> Dict[str, tuple]:
    self_ms, calls, negative, step_ms = tracing.layer_self_ms(tracer.spans)
    for name, ms in negative:
        bench.problems.append(f"span {name} has self time {ms:.6f} ms < 0: "
                              f"a child span outlasts its parent")
    unattributed = self_ms.pop(tracing.UNATTRIBUTED)
    if unattributed > UNATTRIBUTED_MAX * step_ms:
        bench.problems.append(
            f"{unattributed:.3f} of {step_ms:.3f} step ms are outside every "
            f"traced layer, over {UNATTRIBUTED_MAX:.0%}")
    n_steps = sum(len(r.steps_ms) for r in traced)
    n_passes = len(traced)
    cold_epochs = max(calls["driver.benchpark_setup"], 1)
    counts = tracer.counts

    def growth(results):
        tenth = max(bench.workload.epochs // 10, 1)
        cut = bench.workload.epochs - tenth
        second = [ms for r in results for ms, e in zip(r.steps_ms, r.epochs)
                  if tenth <= e < 2 * tenth]
        final = [ms for r in results for ms, e in zip(r.steps_ms, r.epochs)
                 if e >= cut]
        return statistics.median(final) / statistics.median(second)

    def pooled(attr):
        return sum(getattr(r, attr) for r in traced)

    memo_lookups = pooled("memo_lookups")
    cache_lookups = pooled("cache_lookups")
    analyzed = counts["fom.analyzed"]
    sizes = {k: statistics.mean(s for r in traced for s in r.checkpoint_kb[k])
             for k in ("first", "last")}
    eps = [sum(len(r.steps_ms) for r in rs) / sum(r.wall_s for r in rs)
           for rs in (untraced, traced)]
    print(f"# ratios with their bases: concretizer.memo_hit_ratio over "
          f"{memo_lookups / n_passes:g} lookups/pass, fom.success_ratio over "
          f"{analyzed / n_passes:g} experiments/pass, result_cache.hit_ratio "
          f"over {cache_lookups / n_passes:g} lookups/pass")
    print(f"# self time per step (ms), {n_steps} traced steps in "
          f"{n_passes} pass(es):")
    for metric, ms in sorted([*self_ms.items(), (tracing.UNATTRIBUTED,
                                                 unattributed)],
                             key=lambda kv: -kv[1]):
        print(f"#   {metric:28s} {ms / n_steps:9.3f}  "
              f"{100 * ms / step_ms:5.1f}%")
    return {
        # self time per step of every traced layer
        **{metric: (ms / n_steps, "ms") for metric, ms in self_ms.items()},
        "continuous.checkpoint_kb_first": (sizes["first"], "kB"),
        "continuous.checkpoint_kb_last": (sizes["last"], "kB"),
        "continuous.growth": (growth(untraced), "ratio"),
        "workspace.experiments": (counts["workspace.experiments"] / cold_epochs,
                                  "count"),
        "workspace.yaml_loads": (counts["workspace.yaml_loads"] / cold_epochs,
                                 "count"),
        "workspace.yaml_dumps": (counts["workspace.yaml_dumps"] / cold_epochs,
                                 "count"),
        "concretizer.memo_hit_ratio": (
            pooled("memo_hits") / memo_lookups if memo_lookups else 0.0,
            "ratio"),
        "concretizer.memo_lookups": (memo_lookups / n_passes, "count"),
        **{f"installer.nodes_{action}": (
            counts[f"installer.nodes_{action}"] / cold_epochs, "count")
           for action in ("source", "cache", "external", "already")},
        "executor.runs": (calls["executor.execute"] / n_passes, "count"),
        "resilience.retries": (pooled("retries") / n_passes, "count"),
        "resilience.failed_runs": (pooled("failed_runs") / n_passes, "count"),
        "kernel.stream_bytes_computed": (
            counts["kernel.stream_bytes_computed"] / n_passes, "B"),
        "fom.extracted": (counts["fom.extracted"] / n_passes, "count"),
        "fom.success_ratio": (counts["fom.succeeded"] / analyzed
                              if analyzed else 0.0, "ratio"),
        "fom.analyzed": (analyzed / n_passes, "count"),
        "metricsdb.records": (counts["metricsdb.records"] / n_passes, "count"),
        "engine.events": (pooled("events") / n_passes, "count"),
        "result_cache.hit_ratio": (
            pooled("cache_hits") / cache_lookups if cache_lookups else 0.0,
            "ratio"),
        "result_cache.lookups": (cache_lookups / n_passes, "count"),
        "result_cache.entries": (pooled("cache_entries") / n_passes, "count"),
        "trace.overhead": (eps[0] / eps[1], "ratio"),
    }


def describe(bench: Bench, seed: int) -> None:
    w = bench.workload
    cache = ("shared result cache, warmed by a cold pass in set-up"
             if w.warm else "per-campaign result cache")
    print(f"# workload {bench.name}, seed {seed}: "
          f"{', '.join(w.experiments)} on {', '.join(w.systems)}; "
          f"{w.epochs} epochs per campaign per pass; cts1 bad-dimm "
          f"(memory_bw_factor=0.5) from epoch {bench.onset}; "
          f"node-failure rate {w.fault_rate}; "
          f"{cache}; "
          f"closed loop, 1 process, 1 thread, round-robin")


def stream_note(results: List[PassResult]) -> None:
    arrays = sorted({n for r in results for n in r.stream_arrays})
    if not arrays:
        return
    llc = _llc_bytes()
    sizes = ", ".join(f"{8 * n / 1e6:.1f} MB" for n in arrays)
    print(f"# stream: arrays of {sizes} each against a last-level cache of "
          f"{f'{llc / 1e6:.0f} MB' if llc else 'unknown size'} "
          f"(cpu0 sysfs); a DRAM figure needs each array >= 4x LLC, so "
          f"stream FOMs here are cache rates, and "
          f"kernel.stream_bytes_computed is computed from array sizes, "
          f"not measured")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    problems: List[str] = []
    bench = Bench(args.workload, args.seed, problems)
    describe(bench, args.seed)

    # -- set-up: one-time process warm-up, then SETUP_REPEATS set-ups -------
    bench.warm_up()
    once_s = time.perf_counter() - T_START - bench.salt_s
    repeats, store, cold, first = [], None, None, None
    for _ in range(SETUP_REPEATS):
        if first is not None:
            shutil.rmtree(first[0].workdir.parent, ignore_errors=True)
        t = time.perf_counter()
        if bench.workload.warm:
            store = ContentStore("epoch-results")
            cold = bench.campaigns(store)
            cold_pass = bench.run_pass(cold)
        first = bench.campaigns(store)
        repeats.append(time.perf_counter() - t)
    if cold is not None:
        bench.audit(cold, cold_pass)
    setup_s = once_s + statistics.median(repeats)
    print(f"# setup_s = {once_s:.3f} s imports + warm-up, plus median "
          f"{statistics.median(repeats):.3f} s of {SETUP_REPEATS} set-ups "
          f"({bench.salt_s:.3f} s of fault-salt search left out)")

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, resume = timed_region(bench, args.seconds, first, store,
                                            cold, tracer)
    stream_note(untraced)
    if tracer is not None:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(bench, untraced, traced, tracer)
        names = [m["name"] for m in declared["per_layer"]]
        results = untraced + traced
    else:
        metrics = end_to_end(bench, untraced, setup_s, resume)
        names = [m["name"] for m in declared["end_to_end"]]
        results = untraced
    shutil.rmtree(bench.run_dir, ignore_errors=True)
    if sorted(metrics) != sorted(names):
        problems.append(f"emitted metrics {sorted(set(metrics) ^ set(names))} "
                        f"disagree with BENCHMARK.json")

    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.steps_ms) for r in results),
        "failed": sum(r.failed_steps for r in results),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
