"""Incremental-pipeline benchmark: content-addressed reuse end to end.

Measures the three layers of the incremental pipeline and writes the
numbers to ``BENCH_incremental.json``:

1. **Warm campaign** — a 10-epoch continuous-benchmarking campaign run
   cold, then re-run warm against the same shared result cache.  The warm
   pass must replay every epoch from cache (hit rate >= --min-hit-rate)
   and, in full mode, finish >= --min-speedup faster than the
   non-incremental baseline — while producing *identical* FOM series and
   regression events (correctness is asserted, not assumed).
2. **Parallel DAG install** — the amg2023+caliper DAG installed in
   post-order; the simulated makespan must be the DAG's critical path,
   strictly below the serial sum of build times.
3. **Memoized concretization** — the same environment solved cold and
   warm; the warm solve is a cache lookup.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]

``--quick`` shrinks the campaign for CI and skips the wall-clock speedup
gate (timings on loaded CI runners are noisy); the hit-rate gate always
applies.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.continuous import ContinuousBenchmarking
from repro.perf import ContentStore
from repro.spack import Concretizer, Installer, Store
from repro.spack.concretizer import clear_concretization_memo

EXPERIMENT = "stream/openmp"
SYSTEM = "cts1"


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


def bench_warm_campaign(epochs: int) -> dict:
    shared = ContentStore("epoch-results")
    base = Path(tempfile.mkdtemp(prefix="bench-incremental-"))

    t0 = time.perf_counter()
    cold = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "cold", result_cache=shared,
    ).run(epochs)
    cold_s = time.perf_counter() - t0

    before = shared.stats()
    t0 = time.perf_counter()
    warm = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "warm", result_cache=shared,
    ).run(epochs)
    warm_s = time.perf_counter() - t0
    after = shared.stats()
    warm_hits = after["hits"] - before["hits"]
    warm_lookups = after["lookups"] - before["lookups"]

    t0 = time.perf_counter()
    baseline = ContinuousBenchmarking(
        EXPERIMENT, SYSTEM, base / "baseline", incremental=False,
    ).run(epochs)
    baseline_s = time.perf_counter() - t0

    # Correctness: caching must be invisible in the data.
    assert _fom_series(cold) == _fom_series(warm), \
        "warm campaign FOMs diverged from cold campaign"
    assert ([str(e) for e in cold.regressions()]
            == [str(e) for e in warm.regressions()]), \
        "warm campaign regression events diverged from cold campaign"

    cold_profile, warm_profile = cold.session.flush(), warm.session.flush()
    return {
        "epochs": epochs,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "baseline_noninc_seconds": baseline_s,
        "warm_hits": warm_hits,
        "warm_lookups": warm_lookups,
        "warm_hit_rate": warm_hits / warm_lookups if warm_lookups else 0.0,
        "speedup_vs_cold": cold_s / warm_s if warm_s else float("inf"),
        "speedup_vs_baseline": baseline_s / warm_s if warm_s else float("inf"),
        "foms_identical": True,
        "regressions_identical": True,
        "caliper_warm": warm_profile.root.to_dict(),
        "_baseline_obj_records": len(baseline.db),
        "_profiles": (cold_profile, warm_profile),
    }


def bench_parallel_install() -> dict:
    clear_concretization_memo()
    root = Concretizer().concretize_together(["amg2023+caliper"])[0]
    with tempfile.TemporaryDirectory() as d:
        installer = Installer(Store(Path(d) / "store"))
        t0 = time.perf_counter()
        installer.install(root)
        wall = time.perf_counter() - t0
        stats = dict(installer.last_install_stats)
    assert stats["critical_path_seconds"] < stats["serial_seconds"], \
        "parallel install must charge critical-path time, not the serial sum"
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

    campaign = bench_warm_campaign(epochs)
    campaign.pop("_baseline_obj_records", None)
    cold_profile, warm_profile = campaign.pop("_profiles")
    install = bench_parallel_install()
    memo = bench_concretize_memo()

    results = {
        "mode": "quick" if args.quick else "full",
        "warm_campaign": campaign,
        "parallel_install": install,
        "concretize_memo": memo,
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
