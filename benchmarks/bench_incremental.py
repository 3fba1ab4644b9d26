"""Incremental-pipeline benchmark: content-addressed reuse end to end.

Measures the three layers of the incremental pipeline and writes the
numbers to ``BENCH_incremental.json``:

1. **Warm campaign** — a 10-epoch continuous-benchmarking campaign run
   cold, then re-run warm against the same shared result cache.  The warm
   pass must replay every epoch from cache (hit rate >= --min-hit-rate)
   and, in full mode, finish >= --min-speedup faster than the baseline — a
   fresh campaign with its own result cache, where no epoch can replay —
   while producing *identical* FOM series and regression events
   (correctness is asserted, not assumed).  Each
   campaign's journal must grow by a flat number of bytes per epoch: after
   the first epoch's append, the last epoch may append at most
   ``FLATNESS_MAX`` times what the second did.  The cold campaign sets its
   workspace up once: its ``epoch:setup`` region may be visited at most
   ``SETUP_VISITS_MAX`` times, however many epochs run.  Before the warm
   pass a foreign campaign (the same experiment on ``FOREIGN_SYSTEM``)
   runs cold into the shared cache; a journal holds only what its own
   epochs ingested, so the warm journal may be at most
   ``JOURNAL_SHARE_MAX`` times the size of the cold one.  A journal names
   no workdir: no byte of any journal the bench writes may contain the
   directory the campaigns run in, and no epoch line may name a manifest
   variable (``experiment_run_dir`` and the rest of the set-up record's
   variables), which the set-up record holds once per set-up; its size is
   reported as ``setup_record_bytes``.  Reopening the
   warm campaign with the shared cache must make no lookup or put in it,
   and the reopened campaign's report must equal the live one's.  The warm
   pass hashes its set-up inputs once and each epoch key once: it may make
   at most ``(epochs + 1) / epochs`` ``fingerprint`` encoder passes per
   replayed epoch.  Every layer times itself into the campaign's Caliper
   session: the cold campaign's tree must hold each of ``LAYER_REGIONS``,
   and every replayed epoch must enter the same regions as often as every
   other — the first adds only the ``fingerprint`` of its set-up inputs —
   so a replay's bookkeeping cannot grow with the history.
2. **Parallel DAG install** — the amg2023+caliper DAG installed in
   post-order; its critical path (:mod:`repro.spack.graph`), the makespan
   of a build farm with unlimited jobs, must lie strictly below the serial
   sum of build times.
3. **Memoized concretization** — the same environment solved cold and
   warm; the warm solve is a cache lookup.
4. **Nightly epoch as a fresh process** — the paper's loop is a scheduled
   CI job, so each epoch is a new interpreter.  This process creates a
   ``FRESH_EXPERIMENT`` campaign on ``SYSTEM``; then each of
   ``FRESH_PROCESSES`` (``FRESH_PROCESSES_QUICK`` with ``--quick``) new
   interpreters runs ``ContinuousBenchmarking.open(workdir).run(1)`` and
   ``regressions()``.  Reported: each process's wall time as seen from
   here, interpreter start included, its CPU time (user + system, from
   ``getrusage(RUSAGE_CHILDREN)``), and what it loaded: whether SciPy, how
   many ``repro.*`` modules and how many modules in all.  Every process
   must load the same modules; those counts are deterministic, where the
   wall time on a shared machine is not.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]

``--quick`` shrinks the campaign for CI and skips the wall-clock speedup
gate (timings on loaded CI runners are noisy); the hit-rate, flatness,
set-up, journal-share, workdir-free journal, manifest-free epoch line,
encoder-pass, region and resume gates always apply.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import repro
from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.spack.concretizer import Concretizer, clear_concretization_memo
from repro.spack.graph import graph_stats
from repro.spack.installer import Installer
from repro.spack.store import Store

EXPERIMENT = "stream/openmp"
SYSTEM = "cts1"
#: the last epoch's journal append over the second epoch's, at most
FLATNESS_MAX = 1.1
#: workspace set-ups a cold campaign may run, whatever its length
SETUP_VISITS_MAX = 1
#: the system of the campaign whose entries share the store with the warm
#: pass's, and the warm journal's size over the cold one's, at most
FOREIGN_SYSTEM = "ats4"
JOURNAL_SHARE_MAX = 1.1
#: the layer regions a cold campaign's session must hold, by name; the
#: kernel is the experiment's own
LAYER_REGIONS = (
    "driver.benchpark_setup", "workspace.setup",
    "concretizer.concretize_together", "installer.install",
    "executor.execute", "kernel.stream", "fom.analyze",
    "metricsdb.ingest_analysis", "fingerprint", "journal.append",
)
#: what the first replayed epoch may enter beyond a later one: the hash of
#: the set-up inputs, made once per process
FIRST_REPLAY_EXTRA = Counter({"fingerprint": 1})
#: the campaign each fresh process resumes, and how many processes run
FRESH_EXPERIMENT = "saxpy/openmp"
FRESH_PROCESSES, FRESH_PROCESSES_QUICK = 10, 3
#: one nightly epoch: resume the campaign, run an epoch, score it
NIGHTLY = """
import json, sys
from repro.core.continuous import ContinuousBenchmarking
campaign = ContinuousBenchmarking.open(sys.argv[1])
campaign.run(1)
campaign.regressions()
print(json.dumps({
    "scipy_loaded": "scipy" in sys.modules,
    "repro_modules": sum(1 for m in sys.modules if m.startswith("repro.")),
    "modules": len(sys.modules)}))
"""


def _fom_series(campaign: ContinuousBenchmarking):
    """Comparable view of every recorded FOM: provenance-tagging keys
    (cached/cache_provenance) excluded, everything that carries meaning
    included."""
    out = []
    for rec in campaign.db.query():
        out.append((
            rec.benchmark, rec.system, rec.experiment, rec.fom_name,
            rec.value, rec.units, rec.manifest.get("epoch"),
        ))
    return out


def _visits(campaign: ContinuousBenchmarking) -> Counter:
    """Visits so far of every region on the campaign's session, by path."""
    return Counter({path: node.visits
                    for path, node in campaign.session.regions().items()})


def _run(campaign: ContinuousBenchmarking, epochs: int) -> tuple:
    """Run ``epochs`` epochs; return the bytes each epoch after the first
    wrote to the campaign's journal — all of it past the prefix kept from
    the epoch before, so a rewrite counts in full and an append by size —
    and the region visits each epoch made."""
    written, before = [], b""
    visits, seen = [], _visits(campaign)
    for _ in range(epochs):
        campaign.run_epoch()
        after = campaign.checkpoint_path.read_bytes()
        written.append(len(after) - len(os.path.commonprefix([before, after])))
        before = after
        now = _visits(campaign)
        visits.append(now - seen)
        seen = now
    return written[1:], visits


def _journal_layout(campaigns, base: Path) -> dict:
    """Per campaign, the size of its set-up record; and whether any
    journal names ``base`` or holds an epoch line naming a manifest
    variable as a key."""
    setup_bytes, named, keyed = {}, False, False
    for name, campaign in campaigns.items():
        header, setup, *lines = campaign.checkpoint_path.read_bytes(
        ).splitlines(keepends=True)
        setup_bytes[name] = len(setup)
        named |= str(base).encode() in header + setup + b"".join(lines)
        variables = {f'"{v}":'.encode() for exp in json.loads(setup)[
            "experiments"] for v in exp["variables"]}
        keyed |= any(v in line for line in lines for v in variables)
    return {"setup_record_bytes": setup_bytes,
            "journal_names_workdir": named,
            "epoch_line_names_variable": keyed}


def bench_warm_campaign(epochs: int, base: Path) -> dict:
    shared = ContentStore("epoch-results")

    t0 = time.perf_counter()
    cold = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "cold", result_cache=shared,
    )
    cold_bytes, _ = _run(cold, epochs)
    cold_s = time.perf_counter() - t0
    foreign = ContinuousBenchmarking(
        EXPERIMENT, FOREIGN_SYSTEM, base / "foreign", result_cache=shared,
    ).run(epochs)

    before = shared.stats()
    # count the fingerprint encoder passes of the warm pass; the module is
    # looked up in sys.modules because the package attribute of its name is
    # the function
    fp_module, passes = sys.modules["repro.perf.fingerprint"], [0]
    dumps = fp_module._dumps

    def counted_dumps(obj):
        passes[0] += 1
        return dumps(obj)

    fp_module._dumps = counted_dumps
    try:
        t0 = time.perf_counter()
        warm = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, base / "warm", result_cache=shared,
        )
        warm_bytes, warm_visits = _run(warm, epochs)
        warm_s = time.perf_counter() - t0
    finally:
        fp_module._dumps = dumps
    after = shared.stats()
    warm_hits = after["hits"] - before["hits"]
    warm_lookups = after["lookups"] - before["lookups"]
    reopened = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "warm", result_cache=shared,
    )
    resumed = shared.stats()

    t0 = time.perf_counter()
    baseline = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "baseline",
    ).run(epochs)
    baseline_s = time.perf_counter() - t0

    # Correctness: caching must be invisible in the data.
    assert _fom_series(cold) == _fom_series(warm), \
        "warm campaign FOMs diverged from cold campaign"
    assert ([str(e) for e in cold.regressions()]
            == [str(e) for e in warm.regressions()]), \
        "warm campaign regression events diverged from cold campaign"

    cold_profile, warm_profile = cold.session.flush(), warm.session.flush()
    cold_names = {path.rsplit("/", 1)[-1] for path in cold_profile.regions()}
    steady = warm_visits[-1]
    return {
        "epochs": epochs,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "baseline_noninc_seconds": baseline_s,
        "warm_hits": warm_hits,
        "warm_lookups": warm_lookups,
        "warm_hit_rate": warm_hits / warm_lookups if warm_lookups else 0.0,
        "encoder_passes_per_replay": passes[0] / warm_hits if warm_hits
        else float("inf"),
        "speedup_vs_cold": cold_s / warm_s if warm_s else float("inf"),
        "speedup_vs_baseline": baseline_s / warm_s if warm_s else float("inf"),
        "foms_identical": True,
        "regressions_identical": True,
        "journal_bytes_per_epoch": {"cold": cold_bytes, "warm": warm_bytes},
        **_journal_layout(
            {"cold": cold, "foreign": foreign, "warm": warm}, base),
        "journal_share": (warm.checkpoint_path.stat().st_size
                          / cold.checkpoint_path.stat().st_size),
        "setup_visits": cold_profile.regions()["epoch:setup"].visits,
        "layer_regions_missing": [r for r in LAYER_REGIONS
                                  if r not in cold_names],
        "region_visits_per_replay": dict(sorted(steady.items())),
        "replay_visits_flat": (
            warm_visits[0] == steady + FIRST_REPLAY_EXTRA
            and all(v == steady for v in warm_visits[1:])),
        "resume_store_delta": {k: resumed[k] - after[k]
                               for k in ("hits", "misses", "puts")},
        "resume_report_identical": reopened.report() == warm.report(),
        "caliper_warm": warm_profile.root.to_dict(),
        "_baseline_obj_records": len(baseline.db),
        "_profiles": (cold_profile, warm_profile),
    }


def bench_parallel_install() -> dict:
    clear_concretization_memo()
    root = Concretizer().concretize_together(["amg2023+caliper"])[0]
    with tempfile.TemporaryDirectory() as d:
        t0 = time.perf_counter()
        Installer(Store(Path(d) / "store")).install(root)
        wall = time.perf_counter() - t0
    stats = graph_stats(root)
    assert stats["critical_path_seconds"] < stats["total_build_seconds"], \
        "the DAG's critical path must lie below the serial sum"
    stats["wall_seconds"] = wall
    return stats


def bench_concretize_memo(rounds: int = 5) -> dict:
    specs = ["amg2023+caliper", "saxpy", "stream", "osu-micro-benchmarks"]
    clear_concretization_memo()
    t0 = time.perf_counter()
    for _ in range(rounds):
        Concretizer().concretize_together(list(specs), unify=False)
    cold_s = time.perf_counter() - t0  # round 1 solves, rounds 2+ hit

    t0 = time.perf_counter()
    for _ in range(rounds):
        Concretizer().concretize_together(list(specs), unify=False)
    warm_s = time.perf_counter() - t0  # every round hits
    return {
        "specs": specs,
        "rounds": rounds,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
    }


def bench_fresh_process(processes: int) -> dict:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    wall_ms, cpu_ms, loaded = [], [], []
    with tempfile.TemporaryDirectory() as workdir:
        ContinuousBenchmarking(FRESH_EXPERIMENT, SYSTEM, workdir).run(1)
        for _ in range(processes):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", NIGHTLY, workdir],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            wall_ms.append((time.perf_counter() - t0) * 1e3)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu_ms.append((after.ru_utime - before.ru_utime
                           + after.ru_stime - before.ru_stime) * 1e3)
            loaded.append(json.loads(out.stdout))
        epochs = ContinuousBenchmarking.open(workdir).epochs_run
    assert epochs == processes + 1, "every fresh process must add one epoch"
    assert all(m == loaded[0] for m in loaded), \
        f"fresh processes loaded different modules: {loaded}"
    return {
        "experiment": FRESH_EXPERIMENT,
        "system": SYSTEM,
        "processes": processes,
        "wall_ms": wall_ms,
        "wall_ms_median": statistics.median(wall_ms),
        "wall_ms_min": min(wall_ms),
        "wall_ms_max": max(wall_ms),
        "cpu_ms": cpu_ms,
        "cpu_ms_median": statistics.median(cpu_ms),
        **loaded[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small campaign; skip the wall-clock speedup gate")
    parser.add_argument("--epochs", type=int, default=None,
                        help="campaign length (default: 10, or 3 with --quick)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: BENCH_incremental.json "
                             "at the repo root; omitted entirely in --quick mode "
                             "unless given)")
    parser.add_argument("--min-hit-rate", type=float, default=0.9)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    args = parser.parse_args(argv)

    epochs = args.epochs or (3 if args.quick else 10)

    with tempfile.TemporaryDirectory(prefix="bench-incremental-") as base:
        campaign = bench_warm_campaign(epochs, Path(base))
    campaign.pop("_baseline_obj_records", None)
    cold_profile, warm_profile = campaign.pop("_profiles")
    install = bench_parallel_install()
    memo = bench_concretize_memo()
    fresh = bench_fresh_process(
        FRESH_PROCESSES_QUICK if args.quick else FRESH_PROCESSES)

    results = {
        "mode": "quick" if args.quick else "full",
        "warm_campaign": campaign,
        "parallel_install": install,
        "concretize_memo": memo,
        "fresh_process": fresh,
    }
    print(json.dumps(results, indent=2))

    # Per-stage breakdown to the job log: where the warm epochs save time.
    print("\n# cold campaign stage breakdown", file=sys.stderr)
    print(cold_profile.runtime_report(), file=sys.stderr)
    print("\n# warm campaign stage breakdown", file=sys.stderr)
    print(warm_profile.runtime_report(), file=sys.stderr)

    out = args.out
    if out is None and not args.quick:
        out = str(Path(__file__).resolve().parent.parent
                  / "BENCH_incremental.json")
    if out:
        Path(out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"# wrote {out}", file=sys.stderr)

    failures = []
    if campaign["warm_hit_rate"] < args.min_hit_rate:
        failures.append(
            f"warm hit rate {campaign['warm_hit_rate']:.0%} < "
            f"{args.min_hit_rate:.0%}"
        )
    for name, appended in campaign["journal_bytes_per_epoch"].items():
        if appended and appended[-1] > FLATNESS_MAX * appended[0]:
            failures.append(
                f"{name} journal: last epoch wrote {appended[-1]} B > "
                f"{FLATNESS_MAX} x the second epoch's {appended[0]} B"
            )
    if campaign["journal_share"] > JOURNAL_SHARE_MAX:
        failures.append(
            f"warm journal is {campaign['journal_share']:.2f} x the cold "
            f"journal's size > {JOURNAL_SHARE_MAX}"
        )
    if campaign["journal_names_workdir"]:
        failures.append("a journal names the directory its campaign ran in")
    if campaign["epoch_line_names_variable"]:
        failures.append("an epoch line names a manifest variable; the "
                        "set-up record holds them")
    if campaign["layer_regions_missing"]:
        failures.append(
            f"cold campaign's Caliper session lacks the layer regions "
            f"{campaign['layer_regions_missing']}"
        )
    if not campaign["replay_visits_flat"]:
        failures.append(
            "replayed epochs entered different Caliper regions: "
            "not every epoch after the first made "
            f"{campaign['region_visits_per_replay']}, or the first made "
            f"more than {dict(FIRST_REPLAY_EXTRA)} beyond it"
        )
    if campaign["setup_visits"] > SETUP_VISITS_MAX:
        failures.append(
            f"cold campaign set its workspace up {campaign['setup_visits']} "
            f"times in {campaign['epochs']} epochs > {SETUP_VISITS_MAX}"
        )
    passes_max = (campaign["epochs"] + 1) / campaign["epochs"]
    if campaign["encoder_passes_per_replay"] > passes_max:
        failures.append(
            f"warm pass made {campaign['encoder_passes_per_replay']:.2f} "
            f"fingerprint encoder passes per replayed epoch > {passes_max:.2f}"
        )
    if any(campaign["resume_store_delta"].values()):
        failures.append(
            f"reopening the warm campaign moved the shared cache's counters "
            f"by {campaign['resume_store_delta']}"
        )
    if not campaign["resume_report_identical"]:
        failures.append("reopened warm campaign's report differs from the "
                        "live one's")
    if not args.quick and campaign["speedup_vs_baseline"] < args.min_speedup:
        failures.append(
            f"warm speedup {campaign['speedup_vs_baseline']:.1f}x < "
            f"{args.min_speedup:.1f}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
