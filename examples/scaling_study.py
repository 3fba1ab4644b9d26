#!/usr/bin/env python3
"""Cross-system scaling study with Extra-P modeling (paper §5, Figure 14).

The scenario the paper's future-work section describes end to end:

1. run an MPI_Bcast scaling campaign (OSU collective benchmark) on each of
   the three demonstration systems at increasing rank counts;
2. store every result in the metrics database together with its experiment
   manifest (functional reproducibility: the manifest regenerates the run);
3. feed the (nprocs, total time) series to Extra-P and print each system's
   fitted scaling model — on cts1 (contended fabric) the model comes out
   linear in p, matching the paper's Figure 14; on the binomial-tree fabrics
   it comes out logarithmic.

Usage:  python examples/scaling_study.py
"""

from repro.analysis.dashboard import ascii_plot
from repro.analysis.extrap import fit_model
from repro.benchmarks.osu import run_collective
from repro.ci.metricsdb import MetricsDatabase
from repro.systems.registry import get_system

RANKS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3456)
SYSTEMS = ("cts1", "ats2", "ats4")


def main() -> int:
    db = MetricsDatabase()

    for system_name in SYSTEMS:
        system = get_system(system_name)
        for p in RANKS:
            if p > system.total_cores:
                continue
            result = run_collective(
                "bcast", n_ranks=p, max_size=1 << 20, iterations=10,
                interconnect=system.interconnect, verify=False,
            )
            db.record(
                benchmark="osu-micro-benchmarks",
                system=system_name,
                experiment=f"osu_bcast_{p}",
                fom_name="total_time",
                value=result.total_seconds,
                units="s",
                manifest={"n_ranks": str(p), "collective": "bcast",
                          "max_size": str(1 << 20)},
            )

    print("MPI_Bcast scaling models (Extra-P fits, paper Figure 14):\n")
    for system_name in SYSTEMS:
        series = db.series("osu-micro-benchmarks", system_name,
                           "total_time", "n_ranks")
        model = fit_model(series)
        algo = get_system(system_name).interconnect.collective_algo
        print(f"=== {system_name} ({algo} fabric) ===")
        print(f"  model: {model}")
        print(f"  SMAPE: {model.smape:.3f}%   R^2: {model.r_squared:.5f}")
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        print(ascii_plot(xs, ys, model_ys=list(model.predict(xs)),
                         width=56, height=10))
        print()

    cts1_model = fit_model(
        db.series("osu-micro-benchmarks", "cts1", "total_time", "n_ranks")
    )
    assert cts1_model.i == 1.0 and cts1_model.j == 0, (
        "cts1 bcast should fit a p^(1) model like the paper's Figure 14"
    )
    print("cts1 model is linear in p — consistent with the paper's "
          "Extra-P model for MPI_Bcast on CTS.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
