"""X6 — §1's co-design claim: "benchmarking … is useful for co-designing
future HPC system procurements."

Scores the paper's three real systems against each other with the
calibrated performance models and checks the predictions reproduce the
known hardware ordering; then scores a hypothetical GPU-dense proposal to
show the forward-prediction use.  Benchmarks the full comparison sweep.
"""

from repro.systems.codesign import compare_systems, predict_suite
from repro.systems.descriptor import GpuSpec, InterconnectSpec, SystemDescriptor
from repro.systems.registry import get_system


def test_codesign_paper_systems(benchmark, artifact):
    systems = [get_system(n) for n in ("cts1", "ats2", "ats4")]
    rows = benchmark(compare_systems, systems, get_system("cts1"))

    ranked = [r["system"] for r in rows]
    # ats4 (2022 GPU machine) > ats2 (2018 GPU machine) > cts1 (2016 CPU)
    assert ranked == ["ats4", "ats2", "cts1"], ranked
    assert rows[-1]["score"] == 1.0  # reference against itself

    lines = ["co-design scores vs cts1 (geometric-mean speedup):", ""]
    for row in rows:
        lines.append(f"  {row['system']:<8} {row['score']:8.2f}x")
    lines.append("")
    lines.append("per-FOM predictions:")
    for row in rows:
        lines.append(f"  {row['system']}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in row["predictions"].items()))
    artifact("codesign_scores", "\n".join(lines))


def test_hypothetical_system_prediction():
    """A proposal that doesn't exist yet gets a full predicted FOM table."""
    proposal = SystemDescriptor(
        name="elcap-like", site="vendor", nodes=4096, cores_per_node=96,
        core_gflops=35.0, node_mem_bw_gbs=500.0, memory_per_node_gb=768.0,
        cpu_target="zen3",
        interconnect=InterconnectSpec("ss-12", 0.5, 100.0, "binomial"),
        gpu=GpuSpec("MI300", 4, 128.0, 60000.0, 5300.0, runtime="rocm"),
    )
    rows = compare_systems([proposal], reference=get_system("ats4"))
    assert rows[0]["score"] > 1.0  # strictly better than the 2022 machine
    pred = predict_suite(proposal)
    assert pred["stream_triad_mbs"] > predict_suite(
        get_system("ats4"))["stream_triad_mbs"]
