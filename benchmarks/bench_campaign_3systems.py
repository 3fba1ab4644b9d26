"""X1 — §4's demonstration claim: the Benchpark benchmarks build & run on
three systems (cts1, ats2, ats4 EAS).

Runs the full saxpy + AMG2023 campaign on all three simulated systems, loads
every FOM into the metrics database, and regenerates the benchmark × system
dashboard grid (§5's "quick glance of the multi-dimensional performance
data").  Shape checks: GPU systems beat the CPU-only system on the
memory-bound FOMs, matching the hardware the paper describes.
"""

from repro.analysis.dashboard import render_grid
from repro.ci.metricsdb import MetricsDatabase
from repro.core.driver import benchpark_setup

SYSTEMS = ("cts1", "ats2", "ats4")
EXPERIMENTS = ("saxpy/openmp", "amg2023/openmp")


def _campaign(tmp_root):
    db = MetricsDatabase()
    statuses = {}
    for system in SYSTEMS:
        for experiment in EXPERIMENTS:
            ws = tmp_root / f"{system}-{experiment.replace('/', '-')}"
            session = benchpark_setup(experiment, system, ws)
            results = session.run_all()
            db.ingest_analysis(system, results)
            statuses[(experiment, system)] = all(
                e["status"] == "SUCCESS" for e in results["experiments"]
            )
    return db, statuses


def test_campaign_three_systems(benchmark, artifact, tmp_path_factory):
    db, statuses = benchmark.pedantic(
        lambda: _campaign(tmp_path_factory.mktemp("campaign")),
        rounds=1, iterations=1,
    )

    # §4: everything builds & runs on all three systems.
    assert all(statuses.values()), {k: v for k, v in statuses.items() if not v}

    # Regenerate the benchmark × system dashboard.
    grids = []
    for fom, benchmark_name in (("bandwidth", "saxpy"),
                                ("fom_solve", "amg2023")):
        agg = {}
        for system in SYSTEMS:
            recs = db.query(benchmark=benchmark_name, system=system,
                            fom_name=fom)
            values = [float(r.value) for r in recs]
            if values:
                agg[(benchmark_name, system)] = max(values)
        grids.append(render_grid([benchmark_name], list(SYSTEMS), agg,
                                 title=f"best {fom} per system"))
    artifact("campaign_3systems", "\n\n".join(grids))

    # Shape: cts1 (120 GB/s nodes) < ats2 (170) < ats4 (205) on the
    # memory-bound saxpy bandwidth FOM.
    best = {
        system: max(float(r.value) for r in db.query(
            benchmark="saxpy", system=system, fom_name="bandwidth"))
        for system in SYSTEMS
    }
    assert best["cts1"] < best["ats2"] < best["ats4"], best


def test_amg_foms_recorded_everywhere(tmp_path_factory):
    db, _ = _campaign(tmp_path_factory.mktemp("c2"))
    for system in SYSTEMS:
        setup = db.query(benchmark="amg2023", system=system, fom_name="fom_setup")
        solve = db.query(benchmark="amg2023", system=system, fom_name="fom_solve")
        assert setup and solve, f"missing AMG FOMs on {system}"
        assert all(float(r.value) > 0 for r in setup + solve)
    usage = db.benchmark_usage()
    assert set(usage) == {"saxpy", "amg2023"}
