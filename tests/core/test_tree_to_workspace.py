"""Integration: the Figure 1a repository tree's generated artifacts are
*executable*, not just present — a user who clones the tree can run the
stored experiment definitions verbatim."""

import shutil

import pytest
import yaml

from repro.core.layout import generate_benchpark_tree
from repro.ramble.workspace import Workspace
from repro.systems.executor import SystemExecutor
from repro.systems.registry import get_system


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    return generate_benchpark_tree(
        tmp_path_factory.mktemp("bp"),
        systems=["cts1", "ats2"],
        benchmarks=["saxpy", "quicksilver"],
    )


def workspace_from_tree(tree, tmp_path, benchmark, variant, system):
    """What the driver does: experiment ramble.yaml + per-system configs
    become a workspace."""
    config = yaml.safe_load(
        (tree / "experiments" / benchmark / variant / "ramble.yaml").read_text()
    )
    template = (tree / "experiments" / benchmark / variant /
                "execute_experiment.tpl").read_text()
    ws = Workspace.create(tmp_path / "ws", config=config, template=template)
    # satisfy the config's `include: ./configs/<system>/...` references
    dest = tmp_path / "ws" / "configs" / system
    dest.mkdir(parents=True, exist_ok=True)
    for fname in ("spack.yaml", "variables.yaml"):
        shutil.copy(tree / "configs" / system / fname, dest / fname)
    # the stored template targets the first generated system; retarget the
    # includes at the requested one
    cfg = ws.read_config()
    cfg["ramble"]["include"] = [f"./configs/{system}/spack.yaml",
                                f"./configs/{system}/variables.yaml"]
    ws.write_config(cfg)
    return ws


class TestTreeArtifactsRun:
    def test_saxpy_tree_config_runs_on_cts1(self, tree, tmp_path):
        ws = workspace_from_tree(tree, tmp_path, "saxpy", "openmp", "cts1")
        experiments = ws.setup()
        assert len(experiments) == 8  # the stored Figure 10 matrix
        ws.run(SystemExecutor(get_system("cts1")))
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_quicksilver_tree_config_runs(self, tree, tmp_path):
        ws = workspace_from_tree(tree, tmp_path, "quicksilver", "openmp",
                                 "cts1")
        experiments = ws.setup()
        assert experiments
        ws.run(SystemExecutor(get_system("cts1")))
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_tree_configs_parse_for_every_pair(self, tree):
        """Every stored ramble.yaml is valid YAML naming a known app."""
        from repro.ramble.apps import builtin_applications

        apps = builtin_applications()
        for ramble_yaml in tree.glob("experiments/*/*/ramble.yaml"):
            config = yaml.safe_load(ramble_yaml.read_text())
            for app_name in config["ramble"]["applications"]:
                assert apps.exists(app_name), ramble_yaml

    def test_driver_script_invokes_cli(self, tree):
        script = (tree / "benchpark" / "bin" / "benchpark.sh").read_text()
        assert "repro.core.cli" in script
