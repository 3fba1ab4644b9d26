"""Tests for ramble.yaml's include mechanism (Figure 10 lines 2-4:
``include: [./configs/spack.yaml, ./configs/variables.yaml]``)."""

import yaml

from repro.ramble.workspace import Workspace
from repro.systems.executor import LocalExecutor


def build_workspace_with_includes(tmp_path):
    """A workspace whose system-side config arrives via includes, exactly
    like the paper's Figure 10."""
    ws_dir = tmp_path / "ws"
    config = {
        "ramble": {
            "include": [
                "./configs/spack.yaml",
                "./configs/variables.yaml",
            ],
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}": {"variables": {"n": "128"}}}
            }}}},
            "spack": {
                "packages": {
                    "saxpy": {"spack_spec": "saxpy@1.0.0 +openmp",
                              "compiler": "default-compiler"},
                },
                "environments": {"saxpy": {"packages": ["default-mpi", "saxpy"]}},
            },
        }
    }
    ws = Workspace.create(ws_dir, config=config)
    # Figure 9-style system spack.yaml
    (ws_dir / "configs" / "spack.yaml").write_text(yaml.safe_dump({
        "spack": {"packages": {
            "default-compiler": {"spack_spec": "gcc@12.1.1"},
            "default-mpi": {"spack_spec": "mvapich2@2.3.7"},
        }}
    }))
    # Figure 12-style variables.yaml
    (ws_dir / "configs" / "variables.yaml").write_text(yaml.safe_dump({
        "variables": {
            "mpi_command": "srun -N {n_nodes} -n {n_ranks}",
            "batch_submit": "sbatch {execute_experiment}",
            "n_ranks": "2",
        }
    }))
    return ws


class TestIncludes:
    def test_included_variables_used(self, tmp_path):
        ws = build_workspace_with_includes(tmp_path)
        exps = ws.setup()
        script = exps[0].script_path.read_text()
        assert "srun -N 1 -n 2 saxpy -n 128" in script

    def test_included_spack_definitions_resolve(self, tmp_path):
        ws = build_workspace_with_includes(tmp_path)
        exps = ws.setup()
        # environment resolution pulled default-mpi from the included file
        names = {s.name for s in exps[0].env_specs}
        assert names == {"mvapich2", "saxpy"}

    def test_workspace_variables_override_included(self, tmp_path):
        ws = build_workspace_with_includes(tmp_path)
        config = ws.read_config()
        config["ramble"]["variables"] = {"n_ranks": "8"}
        ws.write_config(config)
        exps = ws.setup()
        assert exps[0].variables["n_ranks"] == "8"

    def test_missing_include_tolerated(self, tmp_path):
        ws = build_workspace_with_includes(tmp_path)
        config = ws.read_config()
        config["ramble"]["include"].append("./configs/nonexistent.yaml")
        ws.write_config(config)
        exps = ws.setup()  # must not raise
        assert exps

    def test_runs_end_to_end(self, tmp_path):
        ws = build_workspace_with_includes(tmp_path)
        ws.setup()
        ws.run(LocalExecutor())
        results = ws.analyze()
        assert results["experiments"][0]["status"] == "SUCCESS"

    def test_extra_variables_param(self, tmp_path):
        """The harness hook: extra_variables beat everything."""
        ws = build_workspace_with_includes(tmp_path)
        exps = ws.setup(extra_variables={"n": "4096"})
        assert exps[0].variables["n"] == "4096"
        assert exps[0].name == "saxpy_4096"
