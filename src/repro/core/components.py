"""The Benchpark component model — Table 1 of the paper.

Benchpark's central design idea is **orthogonalization**: every artifact in
the system is *benchmark-specific*, *system-specific*, or
*experiment-specific*, and the six benchmarking concerns (source code, build
instructions, benchmark input, run instructions, experiment evaluation, CI
testing) each draw from all three axes.  This module encodes that matrix and
verifies, introspectively, that our implementation provides each cell — the
regenerated Table 1 is printed from here by ``benchmarks/bench_table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = ["Axis", "ComponentCell", "TABLE1", "render_table1", "verify_cells"]


class Axis:
    BENCHMARK = "Benchmark-specific"
    SYSTEM = "HPC System-specific"
    EXPERIMENT = "Experiment-specific"


@dataclass(frozen=True)
class ComponentCell:
    """One cell of Table 1: which artifact covers (component, axis), and
    which of our modules implements it."""

    component: str
    axis: str
    artifact: str
    module: str
    check: Callable[[], bool]


def _importable(path: str) -> Callable[[], bool]:
    def check() -> bool:
        import importlib

        module, _, attr = path.partition(":")
        mod = importlib.import_module(module)
        return hasattr(mod, attr) if attr else True

    return check


#: Rows of Table 1 in paper order.
COMPONENT_ORDER = [
    "1 Source code",
    "2 Build instructions",
    "3 Benchmark input",
    "4 Run instructions",
    "5 Experiment evaluation",
    "6 CI testing",
]

TABLE1: List[ComponentCell] = [
    # 1 — Source code
    ComponentCell("1 Source code", Axis.BENCHMARK, "package.py",
                  "repro.spack.package:PackageBase",
                  _importable("repro.spack.package:PackageBase")),
    ComponentCell("1 Source code", Axis.SYSTEM, "archspec (Sec. 3.1.3)",
                  "repro.archspec.database:get_target",
                  _importable("repro.archspec.database:get_target")),
    ComponentCell("1 Source code", Axis.EXPERIMENT, "ramble.yaml: spack",
                  "repro.ramble.software:resolve_environment",
                  _importable("repro.ramble.software:resolve_environment")),
    # 2 — Build instructions
    ComponentCell("2 Build instructions", Axis.BENCHMARK, "package.py",
                  "repro.spack.installer:Installer",
                  _importable("repro.spack.installer:Installer")),
    ComponentCell("2 Build instructions", Axis.SYSTEM,
                  "Spack config. files, spack.yaml",
                  "repro.spack.config:Configuration",
                  _importable("repro.spack.config:Configuration")),
    ComponentCell("2 Build instructions", Axis.EXPERIMENT, "ramble.yaml: spack",
                  "repro.ramble.software:merge_spack_sections",
                  _importable("repro.ramble.software:merge_spack_sections")),
    # 3 — Benchmark input
    ComponentCell("3 Benchmark input", Axis.BENCHMARK,
                  "application.py, (optional) data",
                  "repro.ramble.application:workload_variable",
                  _importable("repro.ramble.application:workload_variable")),
    ComponentCell("3 Benchmark input", Axis.SYSTEM, "variables.yaml",
                  "repro.core.layout:system_variables_yaml",
                  _importable("repro.core.layout:system_variables_yaml")),
    ComponentCell("3 Benchmark input", Axis.EXPERIMENT,
                  "ramble.yaml: experiments",
                  "repro.ramble.matrices:expand_matrix",
                  _importable("repro.ramble.matrices:expand_matrix")),
    # 4 — Run instructions
    ComponentCell("4 Run instructions", Axis.BENCHMARK, "application.py",
                  "repro.ramble.application:executable",
                  _importable("repro.ramble.application:executable")),
    ComponentCell("4 Run instructions", Axis.SYSTEM,
                  "variables.yaml: scheduler, launcher",
                  "repro.systems.scheduler:BatchScheduler",
                  _importable("repro.systems.scheduler:BatchScheduler")),
    ComponentCell("4 Run instructions", Axis.EXPERIMENT,
                  "ramble.yaml: experiments",
                  "repro.ramble.workspace:Workspace",
                  _importable("repro.ramble.workspace:Workspace")),
    # 5 — Experiment evaluation
    ComponentCell("5 Experiment evaluation", Axis.BENCHMARK,
                  "(optional) application.py",
                  "repro.ramble.application:figure_of_merit",
                  _importable("repro.ramble.application:figure_of_merit")),
    ComponentCell("5 Experiment evaluation", Axis.SYSTEM,
                  "(optional) hardware counters, etc.",
                  "repro.ramble.modifiers:HardwareCountersModifier",
                  _importable("repro.ramble.modifiers:HardwareCountersModifier")),
    ComponentCell("5 Experiment evaluation", Axis.EXPERIMENT,
                  "ramble.yaml: success_criteria",
                  "repro.ramble.analysis:analyze_experiment",
                  _importable("repro.ramble.analysis:analyze_experiment")),
    # 6 — CI testing
    ComponentCell("6 CI testing", Axis.BENCHMARK, ".gitlab-ci.yml",
                  "repro.ci.pipeline:parse_ci_config",
                  _importable("repro.ci.pipeline:parse_ci_config")),
    ComponentCell("6 CI testing", Axis.SYSTEM, "Hubcast@LLNL/RIKEN/AWS/...",
                  "repro.ci.hubcast:Hubcast",
                  _importable("repro.ci.hubcast:Hubcast")),
    ComponentCell("6 CI testing", Axis.EXPERIMENT, "Benchpark executable",
                  "repro.core.driver:benchpark_setup",
                  _importable("repro.core.driver:benchpark_setup")),
]


def verify_cells() -> Dict[Tuple[str, str], bool]:
    """Run every cell's implementation check."""
    return {(c.component, c.axis): c.check() for c in TABLE1}


def render_table1() -> str:
    """Regenerate Table 1 as text, in the paper's layout."""
    axes = [Axis.BENCHMARK, Axis.SYSTEM, Axis.EXPERIMENT]
    cells = {(c.component, c.axis): c.artifact for c in TABLE1}
    widths = [26, 30, 36, 28]
    header = (
        f"{'Component':<{widths[0]}}"
        + "".join(f"{a:<{w}}" for a, w in zip(axes, widths[1:]))
    )
    lines = [
        "Table 1: Components of Benchpark, a collaborative continuous "
        "benchmark suite",
        header,
        "-" * len(header),
    ]
    for component in COMPONENT_ORDER:
        row = f"{component:<{widths[0]}}"
        for axis, w in zip(axes, widths[1:]):
            row += f"{cells[(component, axis)]:<{w}}"
        lines.append(row.rstrip())
    return "\n".join(lines)
