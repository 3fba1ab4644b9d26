#!/usr/bin/env python3
"""Adding a new benchmark to Benchpark (paper §4).

"To add a benchmark to Benchpark, a full specification of the benchmark,
its build, and its run instructions for at least one platform is required"
— i.e. exactly one package.py and one application.py, both system-agnostic.

This example adds a fictional ``pingpong`` latency benchmark from scratch:

1. a Spack package class (build space: versions, variants, dependencies);
2. a Ramble application class (run command, workload, input variables,
   figures of merit, success criteria);
3. registration in overlay repositories (Benchpark's ``repo/`` directory);
4. a workspace that runs it on cts1 — with **no cts1-specific code added**:
   the system half comes entirely from the existing system profile, which is
   the orthogonality claim of Table 1.

Usage:  python examples/add_benchmark.py
"""

import tempfile
from pathlib import Path

from repro.core.layout import system_variables_yaml
from repro.ramble.application import (
    SpackApplication,
    executable,
    figure_of_merit,
    success_criteria,
    workload,
    workload_variable,
)
from repro.ramble.apps import ApplicationRepository, builtin_applications
from repro.ramble.workspace import Workspace
from repro.spack.package import AutotoolsPackage, depends_on, version
from repro.spack.repository import Repository, RepoPath, builtin_repo
from repro.systems.registry import get_system


# ---------------------------------------------------------------------------
# 1. Benchmark-specific build recipe (package.py)
# ---------------------------------------------------------------------------
class Pingpong(AutotoolsPackage):
    """Point-to-point latency microbenchmark."""

    version("2.1")
    version("2.0")
    depends_on("mpi")


# ---------------------------------------------------------------------------
# 2. Benchmark-specific run recipe (application.py)
# ---------------------------------------------------------------------------
class PingpongApp(SpackApplication):
    """Ramble definition for pingpong (same shape as the paper's Fig 8)."""

    name = "pingpong"

    # Reuse the OSU driver with op=barrier as a stand-in executable; a real
    # benchmark would ship its own binary.
    executable("pp", "osu_bcast --op barrier --ranks {n_ranks} "
               "--max-size {msg_size} --iterations {iters}", use_mpi=True)
    workload("latency", executables=["pp"])
    workload_variable("msg_size", default="1024",
                      description="message size in bytes", workloads=["latency"])
    workload_variable("iters", default="50", description="iterations",
                      workloads=["latency"])
    figure_of_merit("total_time",
                    fom_regex=r"Total time: (?P<t>[0-9.eE+-]+) s",
                    group_name="t", units="s")
    success_criteria("complete", mode="string", match=r"Benchmark complete",
                     file="{experiment_run_dir}/{experiment_name}.out")


def main() -> int:
    # -----------------------------------------------------------------
    # 3. Register both halves in overlay repos (Benchpark repo/ dir).
    # -----------------------------------------------------------------
    overlay_packages = Repository("benchpark-overlay")
    overlay_packages.register(Pingpong)
    repo_path = RepoPath(overlay_packages, builtin_repo())
    print(f"package repo: {repo_path}")
    print(f"  pingpong versions: "
          f"{[str(v) for v in repo_path.get_class('pingpong').available_versions()]}")

    apps = builtin_applications()
    apps.register(PingpongApp)
    print(f"application repo now has: {apps.all_names()}\n")

    # -----------------------------------------------------------------
    # 4. Run it on cts1 using only the existing system profile.
    # -----------------------------------------------------------------
    system = get_system("cts1")
    config = {
        "ramble": {
            "variables": system_variables_yaml(system)["variables"],
            "applications": {
                "pingpong": {
                    "workloads": {
                        "latency": {
                            "experiments": {
                                "pingpong_{msg_size}_{n_ranks}": {
                                    "variables": {
                                        "n_ranks": ["2", "4", "8"],
                                        "msg_size": "4096",
                                    },
                                    "matrices": [["n_ranks"]],
                                }
                            }
                        }
                    }
                }
            },
        }
    }

    with tempfile.TemporaryDirectory() as tmp:
        ws = Workspace.create(Path(tmp) / "ws", config=config)
        experiments = ws.setup()
        print(f"generated {len(experiments)} experiments on {system.name}:")
        for e in experiments:
            print(f"  {e.name}")

        from repro.systems.executor import SystemExecutor

        ws.run(SystemExecutor(system))
        results = ws.analyze()
        print(f"\n{'experiment':<22} {'status':<9} total_time")
        for record in results["experiments"]:
            foms = {f["name"]: f["value"] for f in record["figures_of_merit"]}
            print(f"{record['name']:<22} {record['status']:<9} "
                  f"{foms.get('total_time', '—')} s")

        ok = all(r["status"] == "SUCCESS" for r in results["experiments"])
        print("\nA new benchmark ran on an existing system with zero "
              "system-specific additions — Table 1's orthogonality in action."
              if ok else "\nsome experiments failed")
        return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
