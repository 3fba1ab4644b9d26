#!/usr/bin/env python3
"""Co-design study: scoring vendor proposals before hardware exists.

§1: benchmarking "enables performance modeling across different hardware
… helps evaluate which of the proposed HPC systems will result in the best
performance for a particular HPC center workload, and is useful for
co-designing future HPC system procurements."

This example plays the procurement committee: three hypothetical vendor
proposals (a fat-memory CPU machine, a GPU-dense machine, and a
network-optimized machine) are scored against the incumbent (cts1) on the
procurement workload, using the same analytic performance models that
drive the simulated executors — so the paper benchmarks and the co-design
predictions share one calibrated model.

Usage:  python examples/codesign_study.py
"""

from repro.analysis.dashboard import render_grid
from repro.systems.codesign import compare_systems
from repro.systems.descriptor import GpuSpec, InterconnectSpec, SystemDescriptor
from repro.systems.registry import get_system


def proposal(name, **kw) -> SystemDescriptor:
    base = dict(
        name=name, site="vendor", nodes=1024, cores_per_node=96,
        core_gflops=28.0, node_mem_bw_gbs=300.0, memory_per_node_gb=512.0,
        cpu_target="zen3",
        interconnect=InterconnectSpec("ndr", 0.8, 50.0, "binomial"),
    )
    base.update(kw)
    return SystemDescriptor(**base)


PROPOSALS = [
    proposal("vendor-a-fatmem", node_mem_bw_gbs=800.0),
    proposal(
        "vendor-b-gpu",
        gpu=GpuSpec("HX-100", 4, 96.0, 30000.0, 3300.0, runtime="cuda"),
    ),
    proposal(
        "vendor-c-network",
        interconnect=InterconnectSpec("ultra", 0.25, 200.0, "binomial"),
    ),
]


def main() -> int:
    reference = get_system("cts1")
    rows = compare_systems(PROPOSALS, reference=reference)

    print(f"procurement scoring vs incumbent {reference.name} "
          f"(geometric-mean speedup across the workload):\n")
    print(f"{'rank':<5} {'proposal':<18} {'score':>8}")
    for rank, row in enumerate(rows, 1):
        print(f"{rank:<5} {row['system']:<18} {row['score']:>8.2f}x")

    print("\nper-FOM speedups over the incumbent:")
    fom_names = list(rows[0]["speedups"])
    cells = {
        (row["system"], fom): row["speedups"][fom]
        for row in rows for fom in fom_names
    }
    print(render_grid([r["system"] for r in rows], fom_names, cells))

    print("\nreading the table:")
    print("- the GPU proposal wins the solver FOM (amg_fom_per_cycle),")
    print("- but at 512 ranks against cts1's contended fabric, *network*")
    print("  quality dominates everything that communicates — so the")
    print("  network-optimized proposal takes the overall score.")
    print("This is precisely the §1 trade-off a committee weighs: the")
    print("ranking flips with the workload mix, and the model quantifies")
    print("it before any hardware is built.")

    by_name = {row["system"]: row for row in rows}
    # The GPU machine must win the compute-bound FOM...
    assert max(rows, key=lambda r: r["speedups"]["amg_fom_per_cycle"])[
        "system"] == "vendor-b-gpu"
    # ...while the network machine wins overall against a contended-fabric
    # incumbent at scale.
    assert rows[0]["system"] == "vendor-c-network"
    assert by_name["vendor-c-network"]["speedups"]["bcast_seconds"] > \
        by_name["vendor-a-fatmem"]["speedups"]["bcast_seconds"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
