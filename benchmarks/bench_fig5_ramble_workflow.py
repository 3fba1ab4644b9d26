"""F5 — Figure 5: the five-command Ramble workflow.

    ramble workspace create
    ramble workspace edit
    ramble workspace setup
    ramble on
    ramble workspace analyze

Drives each command's programmatic equivalent for the saxpy workload on the
local executor (real kernel execution) and benchmarks the full lifecycle.
"""

from repro.ramble.workspace import Workspace
from repro.systems.executor import LocalExecutor


CONFIG = {
    "ramble": {
        "variables": {"mpi_command": "", "n_ranks": "1"},
        "applications": {
            "saxpy": {
                "workloads": {
                    "problem": {
                        "experiments": {
                            "saxpy_{n}": {
                                "variables": {"n": ["1024", "4096"]},
                                "matrices": [["n"]],
                            }
                        }
                    }
                }
            }
        },
    }
}


def test_figure5_lifecycle(benchmark, artifact, tmp_path_factory):
    def lifecycle():
        ws_dir = tmp_path_factory.mktemp("ws")
        ws = Workspace.create(ws_dir)            # ramble workspace create
        ws.write_config(CONFIG)                  # ramble workspace edit
        experiments = ws.setup()                 # ramble workspace setup
        outcomes = ws.run(LocalExecutor())       # ramble on
        results = ws.analyze()                   # ramble workspace analyze
        return experiments, outcomes, results

    experiments, outcomes, results = benchmark.pedantic(
        lifecycle, rounds=3, iterations=1
    )

    assert len(experiments) == 2
    assert all(o["returncode"] == 0 for o in outcomes)
    assert all(e["status"] == "SUCCESS" for e in results["experiments"])
    foms = {f["name"] for e in results["experiments"]
            for f in e["figures_of_merit"]}
    assert {"success", "kernel_time", "bandwidth"} <= foms

    lines = [
        "Figure 5 workflow:",
        "  $ ramble workspace create",
        "  $ ramble workspace edit",
        "  $ ramble workspace setup",
        "  $ ramble on",
        "  $ ramble workspace analyze",
        "",
    ]
    for e in results["experiments"]:
        fom_text = ", ".join(f"{f['name']}={f['value']}"
                             for f in e["figures_of_merit"])
        lines.append(f"{e['name']}: {e['status']}  [{fom_text}]")
    artifact("fig5_ramble_workflow", "\n".join(lines))
