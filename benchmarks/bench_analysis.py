"""Analysis-engine benchmark: cold row-oriented analysis vs. the warm
incremental engine, over the same synthetic multi-epoch campaign.

Per epoch the analysis stack answers three questions: which series
regressed, how do the scaling series model, and what does the dashboard
look like now.  The **cold** pass answers them the row-oriented way — a
full :meth:`RegressionDetector.detect_in_db` rescan per series, Extra-P
refit from scratch (model cache cleared), ``render_report`` over the raw
record list.  The **warm** pass answers them through one
:class:`~repro.analysis.engine.AnalysisEngine` — persistent per-series
regression state fed only new samples, memoized model fits — plus the same
``render_report`` (the one dashboard).

Correctness is asserted, not assumed: final regression events, Extra-P
model strings, and the dashboard text must be identical between passes —
the engine's contract is bit-identical results, only faster.

Writes ``BENCH_analysis.json`` and exits non-zero if the warm pass is not
at least ``--min-speedup`` times faster.  Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_analysis.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import (CaliperSession, RegressionDetector, clear_model_cache,
                            fit_model, render_report)
from repro.analysis.engine import AnalysisEngine
from repro.ci import MetricsDatabase

SYSTEMS = ("cts1", "tioga", "sierra")
BENCHMARKS = ("stream", "amg2023", "quicksilver")
FOMS = (("triad_bw", True), ("walltime", False))
NPROCS = (2, 4, 8, 16, 32)
THRESHOLD, WINDOW = 0.10, 3
SCALING_EVERY = 5  # epochs between scaling-series extensions


def _targets(systems, benchmarks):
    return [(b, s, f, hib)
            for b in benchmarks for s in systems for f, hib in FOMS]


def synthesize_epoch(epoch: int, systems, benchmarks) -> list:
    """Deterministic records for one campaign epoch: 2 experiments per
    (system, benchmark, fom) with mild noise, a 20% step regression
    injected into one third of the series at 60% of the campaign, a flaky
    retry record now and then, and — every SCALING_EVERY epochs — a
    strong-scaling sweep over NPROCS for model fitting."""
    records = []
    for bi, benchmark in enumerate(benchmarks):
        for si, system in enumerate(systems):
            rng = np.random.default_rng(epoch * 7919 + bi * 131 + si)
            for fom, hib in FOMS:
                base = 100.0 if hib else 10.0
                regressed = (bi + si) % 3 == 0 and epoch >= 12
                if regressed:
                    base *= 0.78 if hib else 1.25
                for exp in ("exp0", "exp1"):
                    manifest = {"epoch": str(epoch)}
                    if epoch % 7 == 3 and exp == "exp1" and fom == "triad_bw":
                        manifest.update(flaky="true", attempts="2")
                    value = base * (1.0 + 0.02 * rng.standard_normal())
                    records.append((benchmark, system, exp, fom,
                                    float(value), "u", manifest))
            if epoch % SCALING_EVERY == 0:
                for p in NPROCS:
                    seconds = 1.0 + 0.05 * p + 0.001 * epoch
                    records.append((benchmark, system, f"scale{p}",
                                    "total_time", float(seconds), "s",
                                    {"nprocs": str(p),
                                     "scale_epoch": str(epoch)}))
    return records


def _ingest(db: MetricsDatabase, records) -> None:
    for benchmark, system, exp, fom, value, units, manifest in records:
        db.record(benchmark, system, exp, fom, value, units, dict(manifest))


def run_cold(epoch_records, targets, session: CaliperSession):
    """Row-oriented per-epoch analysis: full rescans, fresh fits."""
    db = MetricsDatabase()
    detectors = {hib: RegressionDetector(THRESHOLD, WINDOW, hib)
                 for hib in (True, False)}
    events = models = report = None
    for records in epoch_records:
        _ingest(db, records)
        with session.region("cold:detect"):
            found = []
            for benchmark, system, fom, hib in targets:
                found.extend(detectors[hib].detect_in_db(
                    db, benchmark, system, fom))
            events = sorted(found, key=lambda e: e.epoch)
        with session.region("cold:model"):
            clear_model_cache()  # the non-incremental world refits
            models = {}
            for benchmark, system, _, _ in targets[::2]:
                pairs = db.series(benchmark, system, "total_time", "nprocs",
                                  exclude_flaky=True)
                if pairs:
                    models[(benchmark, system)] = str(fit_model(pairs))
        with session.region("cold:dashboard"):
            report = render_report(db)
    return db, events, models, report


def run_warm(epoch_records, targets):
    """The same questions answered through one persistent AnalysisEngine."""
    db = MetricsDatabase()
    engine = AnalysisEngine(db, threshold=THRESHOLD, window=WINDOW)
    events = models = report = None
    for records in epoch_records:
        _ingest(db, records)
        events = engine.scan(targets)
        models = {}
        for benchmark, system, _, _ in targets[::2]:
            model = engine.model(benchmark, system, "total_time")
            if model is not None:
                models[(benchmark, system)] = str(model)
        with engine.session.region("analysis:dashboard"):
            report = render_report(db)
    return db, engine, events, models, report


def bench(epochs: int, systems, benchmarks) -> dict:
    targets = _targets(systems, benchmarks)
    epoch_records = [synthesize_epoch(e, systems, benchmarks)
                     for e in range(epochs)]

    cold_session = CaliperSession()
    clear_model_cache()
    t0 = time.perf_counter()
    cold_db, cold_events, cold_models, cold_report = run_cold(
        epoch_records, targets, cold_session)
    cold_s = time.perf_counter() - t0

    clear_model_cache()
    t0 = time.perf_counter()
    warm_db, engine, warm_events, warm_models, warm_report = run_warm(
        epoch_records, targets)
    warm_s = time.perf_counter() - t0

    # Correctness gates: the engine must be invisible in the results.
    assert [str(e) for e in cold_events] == [str(e) for e in warm_events], \
        "incremental regression events diverged from batch recomputation"
    assert cold_models == warm_models, \
        "memoized Extra-P model strings diverged from fresh fits"
    assert cold_report == warm_report, \
        "warm dashboard diverged from the cold render_report"
    assert cold_db.to_records() == warm_db.to_records()

    from repro.analysis.extrap import model_cache
    cold_profile, warm_profile = cold_session.flush(), engine.session.flush()
    return {
        "epochs": epochs,
        "series_tracked": len(targets),
        "records": len(cold_db),
        "regression_events": len(warm_events),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
        "events_identical": True,
        "models_identical": True,
        "dashboard_identical": True,
        "model_cache": {k: v for k, v in model_cache().stats().items()
                        if k in ("hits", "misses", "hit_rate")},
        "caliper_cold": cold_profile.root.to_dict(),
        "caliper_warm": warm_profile.root.to_dict(),
        "_profiles": (cold_profile, warm_profile),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller campaign; skip the wall-clock speedup "
                             "gate (correctness asserts always apply)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="campaign length (default: 100, or 30 with --quick)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: BENCH_analysis.json "
                             "at the repo root; omitted in --quick mode "
                             "unless given)")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    args = parser.parse_args(argv)

    epochs = args.epochs or (30 if args.quick else 100)
    systems = SYSTEMS[:2] if args.quick else SYSTEMS
    benchmarks = BENCHMARKS[:2] if args.quick else BENCHMARKS

    results = bench(epochs, systems, benchmarks)
    cold_profile, warm_profile = results.pop("_profiles")
    results["mode"] = "quick" if args.quick else "full"
    print(json.dumps(results, indent=2))

    # Per-stage breakdown to the job log: where the speedup comes from.
    print("\n# cold (row-oriented) stage breakdown", file=sys.stderr)
    print(cold_profile.runtime_report(), file=sys.stderr)
    print("\n# warm (analysis engine) stage breakdown", file=sys.stderr)
    print(warm_profile.runtime_report(), file=sys.stderr)

    out = args.out
    if out is None and not args.quick:
        out = str(Path(__file__).resolve().parent.parent
                  / "BENCH_analysis.json")
    if out:
        Path(out).write_text(json.dumps(results, indent=2) + "\n")
        print(f"# wrote {out}", file=sys.stderr)

    if not args.quick and results["speedup"] < args.min_speedup:
        print(f"FAIL: analysis speedup {results['speedup']:.1f}x < "
              f"{args.min_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
