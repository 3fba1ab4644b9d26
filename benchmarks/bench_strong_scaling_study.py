"""X7 — §2's canonical experiment example: "a strong-scaling study of a
benchmark (a set of experiments with the same problem size, scaled on a
different number of resources) on a CPU+GPU heterogeneous system using the
GPU for the main computation."

We build exactly that: one ramble.yaml defining a fixed-size saxpy problem
swept over rank counts on ats2 (Power9 + V100), run it through the full
pipeline, feed the extracted kernel-time FOMs to the scaling analyzer, and
check the strong-scaling shape (speedup grows, efficiency decays, a scaling
limit exists on the contended comparison system).
"""

from repro.analysis.scaling import classify_scaling, strong_scaling
from repro.ci.metricsdb import MetricsDatabase
from repro.ramble.workspace import Workspace
from repro.systems.executor import SystemExecutor
from repro.systems.registry import get_system

RANKS = ["1", "2", "4", "8", "16", "32", "64"]
PROBLEM_SIZE = str(1 << 22)  # fixed total size: strong scaling


def scaling_config():
    return {
        "ramble": {
            "variables": {
                "mpi_command": "jsrun -n {n_ranks} -a 1 -g 1",
                "batch_time": "30",
            },
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {
                    "saxpy_strong_{n}_{n_ranks}": {
                        "variables": {"n": PROBLEM_SIZE, "n_ranks": RANKS},
                        "matrices": [["n_ranks"]],
                    }
                }
            }}}},
        }
    }


def _run_study(system_name, tmp):
    ws = Workspace.create(tmp / f"ws-{system_name}",
                          config=scaling_config())
    ws.setup()
    ws.run(SystemExecutor(get_system(system_name)))
    results = ws.analyze()
    db = MetricsDatabase()
    db.ingest_analysis(system_name, results)
    series = db.series("saxpy", system_name, "kernel_time", "n_ranks")
    assert len(series) == len(RANKS)
    return series


def test_section2_strong_scaling_study(benchmark, artifact, tmp_path_factory):
    series = benchmark.pedantic(
        lambda: _run_study("ats2", tmp_path_factory.mktemp("study")),
        rounds=2, iterations=1,
    )
    table = strong_scaling(series)

    # Strong-scaling shape: monotone speedup at small p, eventual comm tax.
    assert table[1].speedup > 1.2  # 2 ranks beat 1
    assert max(pt.speedup for pt in table) > 3.0
    result = classify_scaling(series, efficiency_floor=0.5)

    lines = [
        "§2 strong-scaling study: saxpy, fixed n = " + PROBLEM_SIZE +
        ", ats2 (Power9+V100), jsrun",
        "",
        f"{'ranks':>6} {'time(s)':>12} {'speedup':>9} {'efficiency':>11}",
    ]
    for pt in table:
        lines.append(f"{pt.p:>6g} {pt.time:>12.6f} {pt.speedup:>9.2f} "
                     f"{pt.efficiency:>11.2f}")
    lines.append("")
    lines.append(f"classification: {result['label']} "
                 f"(useful up to p = {result['scaling_limit_p']:g})")
    artifact("strong_scaling_study", "\n".join(lines))


def test_scaling_limit_lower_on_contended_fabric(tmp_path_factory):
    """The same study on cts1 (contended Omni-Path) hits its scaling limit
    no later than on ats2's binomial InfiniBand."""
    tmp = tmp_path_factory.mktemp("pair")
    ats2 = classify_scaling(_run_study("ats2", tmp), efficiency_floor=0.5)
    cts1 = classify_scaling(_run_study("cts1", tmp), efficiency_floor=0.5)
    assert cts1["scaling_limit_p"] <= ats2["scaling_limit_p"]
