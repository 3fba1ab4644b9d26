"""Benchpark repository layout — Figure 1a.

Generates and validates the four-subdirectory Benchpark tree::

    benchpark/           the driver script
      bin/benchpark.sh
    configs/             HPC System-specific
      <system>/compilers.yaml packages.yaml spack.yaml variables.yaml
    experiments/         Experiment-specific
      <benchmark>/<variant>/execute_experiment.tpl ramble.yaml
    repo/                Spack/Ramble overlay
      repo.yaml
      <benchmark>/application.py package.py

System config files are generated from the
:class:`~repro.systems.descriptor.SystemDescriptor` registry, so adding a
system to Benchpark is exactly "give a full specification of the system"
(§4) — one descriptor.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

import yaml

from repro.ramble.templates import DEFAULT_EXECUTE_TEMPLATE
from repro.systems.descriptor import SystemDescriptor
from repro.systems.registry import SYSTEMS, get_system

__all__ = [
    "EXPERIMENT_VARIANTS",
    "generate_benchpark_tree",
    "system_compilers_yaml",
    "system_packages_yaml",
    "system_spack_yaml",
    "system_variables_yaml",
    "experiment_ramble_yaml",
    "validate_tree",
    "render_tree",
]

#: Which programming-model variants exist per benchmark (Figure 1a lines
#: 20-40 show amg2023/{cuda,openmp,rocm} and saxpy/{cuda,openmp,rocm}).
EXPERIMENT_VARIANTS: Dict[str, List[str]] = {
    "saxpy": ["openmp", "cuda", "rocm"],
    "amg2023": ["openmp", "cuda", "rocm"],
    "stream": ["openmp"],
    "osu-micro-benchmarks": ["mpi"],
    "quicksilver": ["openmp", "cuda"],
}

#: spack spec fragment per programming-model variant
_VARIANT_SPECS = {
    "openmp": "+openmp",
    "cuda": "+cuda cuda_arch=70 ~openmp",
    "rocm": "+rocm amdgpu_target=gfx90a ~openmp",
    "mpi": "",
}
_VARIANT_SPECS["cuda"] = "+cuda cuda_arch=70 ~openmp"

_BENCHMARK_BASE_SPECS = {
    "saxpy": "saxpy@1.0.0",
    "amg2023": "amg2023@1.2",
    "stream": "stream@5.10",
    "osu-micro-benchmarks": "osu-micro-benchmarks@7.2",
    "quicksilver": "quicksilver@1.0",
}


# ---------------------------------------------------------------------------
# system-specific config file generation (Table 1's System column)
# ---------------------------------------------------------------------------
def system_compilers_yaml(system: SystemDescriptor) -> Dict[str, Any]:
    return {
        "compilers": [
            {"compiler": dict(c, operating_system="linux",
                              target=system.cpu_target)}
            for c in system.compilers
        ]
    }


def system_packages_yaml(system: SystemDescriptor) -> Dict[str, Any]:
    return {"packages": dict(system.packages_config)}


def system_spack_yaml(system: SystemDescriptor) -> Dict[str, Any]:
    """Figure 9: named package definitions for this system."""
    compiler = system.compilers[0]["spec"] if system.compilers else "gcc@12.1.1"
    mpi_provider = _default_mpi_spec(system)
    packages = {
        "default-compiler": {"spack_spec": compiler},
        "default-mpi": {"spack_spec": mpi_provider},
    }
    return {"spack": {"packages": packages}}


def _default_mpi_spec(system: SystemDescriptor) -> str:
    providers = (
        (system.packages_config.get("mpi") or {}).get("providers", {}).get("mpi")
    )
    if providers:
        name = providers[0]
        externals = (system.packages_config.get(name) or {}).get("externals")
        if externals:
            return externals[0]["spec"]
        return name
    return "mvapich2@2.3.7"


def system_variables_yaml(system: SystemDescriptor) -> Dict[str, Any]:
    """Figure 12: scheduler and launcher commands for this system."""
    directives = {
        "slurm": ("#SBATCH -N {n_nodes}", "#SBATCH -n {n_ranks}",
                  "#SBATCH -t {batch_time}:00"),
        "lsf": ("#BSUB -nnodes {n_nodes}", "#BSUB -n {n_ranks}",
                "#BSUB -W {batch_time}"),
        "flux": ("# flux: -N {n_nodes}", "# flux: -n {n_ranks}",
                 "# flux: -t {batch_time}m"),
    }[system.scheduler]
    return {
        "variables": {
            "mpi_command": system.mpi_command,
            "batch_submit": system.batch_submit,
            "batch_nodes": directives[0],
            "batch_ranks": directives[1],
            "batch_timeout": directives[2],
        }
    }


# ---------------------------------------------------------------------------
# experiment-specific ramble.yaml generation (Table 1's Experiment column)
# ---------------------------------------------------------------------------
def experiment_ramble_yaml(benchmark: str, variant: str,
                           system: SystemDescriptor) -> Dict[str, Any]:
    if benchmark not in EXPERIMENT_VARIANTS:
        raise KeyError(
            f"unknown benchmark {benchmark!r}; known: {sorted(EXPERIMENT_VARIANTS)}"
        )
    if variant not in EXPERIMENT_VARIANTS[benchmark]:
        raise KeyError(
            f"{benchmark} has no {variant!r} variant; "
            f"known: {EXPERIMENT_VARIANTS[benchmark]}"
        )
    spec = f"{_BENCHMARK_BASE_SPECS[benchmark]} {_VARIANT_SPECS[variant]}".strip()
    workloads = {
        "saxpy": ("problem", "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}",
                  {"processes_per_node": ["8", "4"], "n_nodes": ["1", "2"],
                   "n_threads": ["2", "4"], "n": ["512", "1024"]},
                  [{"size_threads": ["n", "n_threads"]}]),
        "amg2023": ("problem1", "amg_{n}_{n_nodes}_{n_ranks}",
                    {"processes_per_node": "8", "n_nodes": ["1", "2"],
                     "n": "10"}, [{"nodes": ["n_nodes"]}]),
        "stream": ("standard", "stream_{array_size}",
                   {"array_size": ["200000", "400000"], "n_nodes": "1"}, []),
        "osu-micro-benchmarks": (
            "collective", "osu_{collective}_{n_ranks}",
            {"collective": "bcast", "n_nodes": "1",
             "n_ranks": ["2", "4", "8"], "max_size": "65536"}, []),
        "quicksilver": ("slab", "qs_{n_particles}_{n_ranks}",
                        {"n_particles": "50000", "n_nodes": "1",
                         "n_ranks": ["1", "4"]},
                        [{"ranks": ["n_ranks"]}]),
    }[benchmark]
    wl_name, exp_template, exp_vars, matrices = workloads
    experiment: Dict[str, Any] = {"variables": exp_vars}
    if matrices:
        experiment["matrices"] = matrices
    return {
        "ramble": {
            "include": [
                f"./configs/{system.name}/spack.yaml",
                f"./configs/{system.name}/variables.yaml",
            ],
            "config": {"deprecated": True,
                       "spack_flags": {"install": "--add --keep-stage",
                                       "concretize": "-U -f"}},
            "applications": {
                benchmark: {
                    "workloads": {wl_name: {"experiments": {exp_template: experiment}}}
                }
            },
            "spack": {
                "packages": {
                    benchmark: {
                        "spack_spec": spec,
                        "compiler": "default-compiler",
                    }
                },
                "environments": {
                    benchmark: {"packages": ["default-mpi", benchmark]}
                },
            },
        }
    }


# ---------------------------------------------------------------------------
# tree generation / validation (Figure 1a)
# ---------------------------------------------------------------------------
DRIVER_SCRIPT = """\
#!/bin/bash
# Benchpark driver (Figure 1c step 2):
#   benchpark.sh $experiment $system $workspace_dir
exec python3 -m repro.core.cli setup "$@"
"""


def ci_config_for(benchmarks: List[str], systems: List[str]) -> str:
    """Generate the repository's ``.gitlab-ci.yml`` (Table 1 row 6,
    Benchmark-specific column): one build+bench job per (benchmark, system)
    pair, tagged so site runners pick up only their own system's jobs."""
    import yaml as _yaml

    config: Dict[str, Any] = {"stages": ["build", "bench"]}
    for benchmark in benchmarks:
        for system in systems:
            variant = EXPERIMENT_VARIANTS[benchmark][0]
            config[f"build-{benchmark}-{system}"] = {
                "stage": "build",
                "tags": [system],
                "script": [f"benchpark setup {benchmark}/{variant} {system} "
                           f"$CI_WORKSPACE"],
            }
            config[f"bench-{benchmark}-{system}"] = {
                "stage": "bench",
                "tags": [system],
                "script": [f"benchpark run $CI_WORKSPACE {system}",
                           f"benchpark analyze $CI_WORKSPACE"],
            }
    return _yaml.safe_dump(config, sort_keys=False)


def generate_benchpark_tree(
    root: Path | str,
    systems: Optional[List[str]] = None,
    benchmarks: Optional[List[str]] = None,
) -> Path:
    """Materialize the Figure 1a directory structure on disk."""
    root = Path(root)
    systems = systems or sorted(SYSTEMS)
    benchmarks = benchmarks or sorted(EXPERIMENT_VARIANTS)

    (root / "benchpark" / "bin").mkdir(parents=True, exist_ok=True)
    driver = root / "benchpark" / "bin" / "benchpark.sh"
    driver.write_text(DRIVER_SCRIPT)
    driver.chmod(0o755)

    for sys_name in systems:
        system = get_system(sys_name)
        sys_dir = root / "configs" / sys_name
        sys_dir.mkdir(parents=True, exist_ok=True)
        (sys_dir / "compilers.yaml").write_text(
            yaml.safe_dump(system_compilers_yaml(system), sort_keys=False))
        (sys_dir / "packages.yaml").write_text(
            yaml.safe_dump(system_packages_yaml(system), sort_keys=False))
        (sys_dir / "spack.yaml").write_text(
            yaml.safe_dump(system_spack_yaml(system), sort_keys=False))
        (sys_dir / "variables.yaml").write_text(
            yaml.safe_dump(system_variables_yaml(system), sort_keys=False))

    for benchmark in benchmarks:
        for variant in EXPERIMENT_VARIANTS[benchmark]:
            exp_dir = root / "experiments" / benchmark / variant
            exp_dir.mkdir(parents=True, exist_ok=True)
            (exp_dir / "execute_experiment.tpl").write_text(
                DEFAULT_EXECUTE_TEMPLATE)
            # the per-system include is resolved at workspace-generation
            # time; the stored template targets a placeholder system
            template_system = get_system(systems[0])
            (exp_dir / "ramble.yaml").write_text(yaml.safe_dump(
                experiment_ramble_yaml(benchmark, variant, template_system),
                sort_keys=False))

    # CI testing component (Table 1 row 6): the repository's pipeline file.
    (root / ".gitlab-ci.yml").write_text(ci_config_for(benchmarks, systems))

    repo_dir = root / "repo"
    repo_dir.mkdir(exist_ok=True)
    (repo_dir / "repo.yaml").write_text(
        yaml.safe_dump({"repo": {"namespace": "benchpark"}}))
    for benchmark in benchmarks:
        bdir = repo_dir / benchmark
        bdir.mkdir(exist_ok=True)
        (bdir / "application.py").write_text(
            f"# overlay: see repro.ramble.apps.{benchmark}\n"
            f"from repro.ramble.apps import builtin_applications\n"
            f"APPLICATION = builtin_applications().get({benchmark!r})\n")
        (bdir / "package.py").write_text(
            f"# overlay: see repro.spack.builtin\n"
            f"from repro.spack.repository import builtin_repo\n"
            f"PACKAGE = builtin_repo().get_class({benchmark!r})\n")
    return root


def validate_tree(root: Path | str,
                  systems: Optional[List[str]] = None,
                  benchmarks: Optional[List[str]] = None) -> List[str]:
    """Check a tree against Figure 1a; returns a list of problems
    (empty = valid)."""
    root = Path(root)
    systems = systems or sorted(SYSTEMS)
    benchmarks = benchmarks or sorted(EXPERIMENT_VARIANTS)
    problems = []
    if not (root / "benchpark" / "bin" / "benchpark.sh").exists():
        problems.append("missing benchpark/bin/benchpark.sh")
    for sys_name in systems:
        for fname in ("compilers.yaml", "packages.yaml", "spack.yaml",
                      "variables.yaml"):
            path = root / "configs" / sys_name / fname
            if not path.exists():
                problems.append(f"missing configs/{sys_name}/{fname}")
    for benchmark in benchmarks:
        for variant in EXPERIMENT_VARIANTS[benchmark]:
            for fname in ("ramble.yaml", "execute_experiment.tpl"):
                path = root / "experiments" / benchmark / variant / fname
                if not path.exists():
                    problems.append(
                        f"missing experiments/{benchmark}/{variant}/{fname}")
    if not (root / "repo" / "repo.yaml").exists():
        problems.append("missing repo/repo.yaml")
    return problems


def render_tree(root: Path | str, max_depth: int = 4) -> str:
    """ASCII rendering of the tree (the Figure 1a listing)."""
    root = Path(root)
    lines = [root.name or str(root)]

    def walk(directory: Path, prefix: str, depth: int) -> None:
        if depth > max_depth:
            return
        entries = sorted(directory.iterdir(), key=lambda p: (p.is_file(), p.name))
        for i, entry in enumerate(entries):
            connector = "└── " if i == len(entries) - 1 else "├── "
            lines.append(prefix + connector + entry.name)
            if entry.is_dir():
                extension = "    " if i == len(entries) - 1 else "│   "
                walk(entry, prefix + extension, depth + 1)

    walk(root, "", 1)
    return "\n".join(lines)
