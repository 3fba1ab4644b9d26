"""F2 — Figure 2: the Spack environment workflow.

    spack env create --dir .
    spack env activate --dir .
    spack add amg2023+caliper
    spack --config-scope /path/to/configs concretize
    spack install

Reproduces the exact command sequence programmatically (with cts1's config
scope standing in for /path/to/configs), benchmarks the concretize+install
phase, and checks the manifest-and-lock model behaves as §3.1.1 describes.
"""

import json

from repro.core.layout import system_compilers_yaml, system_packages_yaml
from repro.spack.compiler import CompilerRegistry
from repro.spack.concretizer import Concretizer
from repro.spack.config import ConfigScope, Configuration
from repro.spack.environment import Environment
from repro.spack.installer import Installer
from repro.spack.store import Store
from repro.systems.registry import get_system


def _cts1_concretizer():
    system = get_system("cts1")
    scope = ConfigScope("cts1", {
        "packages": system_packages_yaml(system)["packages"],
        "compilers": system_compilers_yaml(system)["compilers"],
    })
    config = Configuration(scope)
    return Concretizer(config=config,
                       compilers=CompilerRegistry.from_config(config),
                       default_target=system.cpu_target)


def test_figure2_environment_workflow(benchmark, artifact, tmp_path_factory):
    concretizer = _cts1_concretizer()

    def workflow():
        env_dir = tmp_path_factory.mktemp("env")
        env = Environment.create(env_dir)          # spack env create --dir .
        env.add("amg2023+caliper")                  # spack add amg2023+caliper
        roots = env.concretize(concretizer)         # spack concretize
        store = Store(env_dir / "store")
        results = env.install(Installer(store))     # spack install
        return env, roots, results

    env, roots, results = benchmark.pedantic(workflow, rounds=3, iterations=1)

    # manifest (user input) and lockfile (concretizer output) both exist
    assert env.manifest_path.exists()
    lock = json.loads(env.lock_path.read_text())
    assert lock["roots"][0]["name"] == "amg2023"

    root = roots[0]
    assert root.concrete
    assert root.variants["caliper"] is True
    assert "caliper" in root and "adiak" in root  # conditional deps active
    assert "hypre" in root

    # install covered the whole DAG
    installed = {r.spec.name for r in results}
    assert {"amg2023", "hypre", "caliper", "adiak"} <= installed

    lines = [
        "Figure 2 workflow (on cts1 configuration):",
        "  $ spack env create --dir .",
        "  $ spack env activate --dir .",
        "  $ spack add amg2023+caliper",
        "  $ spack --config-scope configs/cts1 concretize",
        "  $ spack install",
        "",
        f"concretized root: {root.format()}",
        "DAG nodes:",
    ]
    lines += [f"  {n.format()}" for n in root.traverse()]
    artifact("fig2_spack_env_workflow", "\n".join(lines))
