"""F12/F13 — Figures 12 & 13: variables.yaml + execute_experiment.tpl.

Figure 12 defines the system-side scheduler/launcher variables; Figure 13
is the template each experiment instantiates.  This bench renders the batch
script for each of the paper's three systems (Slurm on cts1, LSF/jsrun on
ats2, Flux on ats4) from one shared template and checks every ``{var}``
resolves.  Benchmarks template rendering throughput.
"""

from repro.core.layout import system_variables_yaml
from repro.ramble.templates import DEFAULT_EXECUTE_TEMPLATE, render_template
from repro.systems.registry import get_system


def _context(system_name: str) -> dict:
    system = get_system(system_name)
    ctx = dict(system_variables_yaml(system)["variables"])
    ctx.update({
        "n_nodes": "2",
        "n_ranks": "16",
        "batch_time": "120",
        "experiment_run_dir": f"/ws/experiments/saxpy/{system_name}",
        "spack_setup": "# spack environment loaded",
        "command": ctx["mpi_command"] + " saxpy -n 512",
    })
    return ctx


def test_figure12_13_render_three_systems(benchmark, artifact):
    def render_all():
        return {
            name: render_template(DEFAULT_EXECUTE_TEMPLATE, _context(name))
            for name in ("cts1", "ats2", "ats4")
        }

    scripts = benchmark(render_all)

    # fully expanded, no dangling {var}
    for name, script in scripts.items():
        assert "{" not in script, f"{name} script has unexpanded variables"
        assert script.startswith("#!/bin/bash")

    # system-specific scheduler directives and launchers (Figure 12's role)
    assert "#SBATCH -N 2" in scripts["cts1"]
    assert "srun -N 2 -n 16 saxpy -n 512" in scripts["cts1"]
    assert "#BSUB -nnodes 2" in scripts["ats2"]
    assert "jsrun" in scripts["ats2"]
    assert "flux run" in scripts["ats4"]

    blob = []
    for name, script in scripts.items():
        blob += [f"=== {name} ===", script, ""]
    artifact("fig12_13_batch_scripts", "\n".join(blob))


def test_render_throughput_at_campaign_scale(benchmark):
    """One render per experiment; campaigns render thousands."""
    ctx = _context("cts1")

    def render_many():
        return [render_template(DEFAULT_EXECUTE_TEMPLATE, ctx)
                for _ in range(100)]

    scripts = benchmark(render_many)
    assert len(scripts) == 100
