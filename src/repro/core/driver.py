"""The Benchpark driver — the nine-step workflow of Figure 1c.

    1. user clones the Benchpark repository
    2. user runs Benchpark with a system profile + benchmark suite template
       (``/bin/benchpark $experiment $system $workspace_dir``)
    3. Benchpark clones Spack and Ramble
    4. Benchpark generates the workspace config
    5. user calls Ramble within the workspace (``ramble workspace setup``)
    6. Ramble uses Spack to build each benchmark
    7. Ramble renders batch experiment scripts
    8. user calls Ramble to submit/execute the scripts (``ramble on``)
    9. user calls Ramble to analyze output and extract metrics
       (``ramble workspace analyze``)

:func:`benchpark_setup` performs steps 2–4; :class:`BenchparkSession` wraps
the full loop (and is what the CLI, the examples, and the Figure 1 bench
drive).  Steps 5–9 delegate to the mini-Ramble workspace with the
per-system :class:`~repro.core.runtime.SpackRuntime`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

import yaml

from repro.analysis.caliper import annotate
from repro.ramble.workspace import Workspace
from repro.spack.binary_cache import BinaryCache
from repro.systems.descriptor import SystemDescriptor
from repro.systems.executor import SystemExecutor
from repro.systems.registry import get_system

from .layout import (
    EXPERIMENT_VARIANTS,
    experiment_ramble_yaml,
    system_spack_yaml,
    system_variables_yaml,
)
from .runtime import SpackRuntime

__all__ = ["benchpark_setup", "workspace_config", "BenchparkSession",
           "BenchparkError", "WORKFLOW_STEPS"]

WORKFLOW_STEPS = [
    "1: User clones Benchpark repository",
    "2: User runs Benchpark with a system profile and benchmark suite template",
    "3: Benchpark clones Spack and Ramble",
    "4: Benchpark generates workspace config",
    "5: User calls Ramble within workspace (ramble workspace setup)",
    "6: Ramble uses Spack to build each benchmark",
    "7: Ramble renders batch experiment scripts",
    "8: User calls Ramble to submit batch experiment scripts (ramble on)",
    "9: User calls Ramble to analyze output and extract metrics",
]


class BenchparkError(RuntimeError):
    pass


def _parse_experiment_id(experiment: str) -> tuple:
    """'saxpy/openmp' → (benchmark, variant); bare 'saxpy' picks the first
    declared variant."""
    benchmark, _, variant = experiment.partition("/")
    if benchmark not in EXPERIMENT_VARIANTS:
        raise BenchparkError(
            f"unknown benchmark {benchmark!r}; "
            f"known: {sorted(EXPERIMENT_VARIANTS)}"
        )
    if not variant:
        variant = EXPERIMENT_VARIANTS[benchmark][0]
    if variant not in EXPERIMENT_VARIANTS[benchmark]:
        raise BenchparkError(
            f"benchmark {benchmark!r} has no variant {variant!r}; "
            f"known: {EXPERIMENT_VARIANTS[benchmark]}"
        )
    return benchmark, variant


def workspace_config(experiment: str,
                     desc: SystemDescriptor) -> Dict[str, Any]:
    """The ramble.yaml :func:`benchpark_setup` writes for ``experiment`` on
    ``desc``: the experiment template with the system's variables and
    package definitions inlined instead of included, so the workspace is
    self-contained (Ramble's design goal, §3.2)."""
    config = experiment_ramble_yaml(*_parse_experiment_id(experiment), desc)
    config["ramble"].pop("include", None)
    variables = dict(config["ramble"].get("variables") or {})
    variables.update(system_variables_yaml(desc)["variables"])
    config["ramble"]["variables"] = variables
    # the system-side spack.yaml package definitions (Figure 9) the
    # include would have provided — default-compiler, default-mpi
    system_packages = system_spack_yaml(desc)["spack"]["packages"]
    spack_section = config["ramble"].setdefault("spack", {})
    merged_packages = dict(system_packages)
    merged_packages.update(spack_section.get("packages") or {})
    spack_section["packages"] = merged_packages
    return config


@annotate("driver.benchpark_setup")
def benchpark_setup(experiment: str, system: str,
                    workspace_dir: Path | str,
                    log: Optional[List[str]] = None) -> "BenchparkSession":
    """Steps 2–4: create a ready-to-setup workspace for (experiment, system).

    ``experiment`` is ``<benchmark>[/<variant>]``, e.g. ``saxpy/openmp`` or
    ``amg2023/cuda`` — exactly the Figure 1a experiment directories.
    """
    steps = log if log is not None else []
    benchmark, variant = _parse_experiment_id(experiment)
    desc = get_system(system)  # raises on unknown system
    steps.append(WORKFLOW_STEPS[1])

    workspace_dir = Path(workspace_dir)
    # Step 3 — "Benchpark clones Spack and Ramble": offline, cloning means
    # provisioning the embedded substrates and recording their provenance.
    (workspace_dir / ".benchpark").mkdir(parents=True, exist_ok=True)
    (workspace_dir / ".benchpark" / "provenance.json").write_text(json.dumps({
        "spack": "repro.spack (embedded mini-Spack)",
        "ramble": "repro.ramble (embedded mini-Ramble)",
        "benchmark": benchmark,
        "variant": variant,
        "system": system,
    }, indent=2))
    steps.append(WORKFLOW_STEPS[2])

    # Step 4 — generate workspace config from the experiment template plus
    # the system profile.
    config = workspace_config(experiment, desc)
    ws = Workspace.create(workspace_dir, config=config)
    # Also drop per-system configs next to the workspace for inspection.
    configs_dir = workspace_dir / "configs" / desc.name
    configs_dir.mkdir(parents=True, exist_ok=True)
    (configs_dir / "variables.yaml").write_text(
        yaml.safe_dump(system_variables_yaml(desc), sort_keys=False))
    steps.append(WORKFLOW_STEPS[3])

    return BenchparkSession(ws, desc, benchmark, variant, steps)


class BenchparkSession:
    """A live (workspace, system) pair driving workflow steps 5–9."""

    def __init__(self, workspace: Workspace, system: SystemDescriptor,
                 benchmark: str, variant: str,
                 steps: Optional[List[str]] = None):
        self.workspace = workspace
        self.system = system
        self.benchmark = benchmark
        self.variant = variant
        self.steps: List[str] = steps if steps is not None else []
        self.runtime: Optional[SpackRuntime] = None
        self._build_results = []

    # -- step 5 + 6: ramble workspace setup ------------------------------
    def setup(self, binary_cache: Optional[BinaryCache] = None):
        self.runtime = SpackRuntime(
            self.system,
            store_root=self.workspace.path / "software" / "store",
            binary_cache=binary_cache,
        )
        self.steps.append(WORKFLOW_STEPS[4])
        experiments = self.workspace.setup(spack_runtime=self.runtime)
        self.steps.append(WORKFLOW_STEPS[5])
        self.steps.append(WORKFLOW_STEPS[6])
        return experiments

    # -- step 8: ramble on ------------------------------------------------
    def run(self, executor=None) -> List[Dict[str, Any]]:
        """Execute the workspace.  ``executor`` defaults to a plain
        :class:`SystemExecutor`; the continuous-benchmarking loop passes a
        :class:`~repro.resilience.FaultTolerantExecutor` here instead."""
        if not self.workspace.experiments:
            raise BenchparkError("run before setup(); call setup() first")
        outcomes = self.workspace.run(executor or SystemExecutor(self.system))
        self.steps.append(WORKFLOW_STEPS[7])
        return outcomes

    # -- step 9: ramble workspace analyze ---------------------------------
    def analyze(self) -> Dict[str, Any]:
        results = self.workspace.analyze()
        self.steps.append(WORKFLOW_STEPS[8])
        return results

    def run_all(self, binary_cache: Optional[BinaryCache] = None,
                executor=None) -> Dict[str, Any]:
        """Steps 5–9 in one call."""
        self.setup(binary_cache=binary_cache)
        self.run(executor=executor)
        return self.analyze()
