"""Tests for workload env_vars (Figure 10 lines 14-16)."""

from repro.ramble.workspace import Workspace
from repro.systems.executor import LocalExecutor


def _config():
    return {
        "ramble": {
            "variables": {"mpi_command": "", "n_ranks": "1"},
            "applications": {"saxpy": {"workloads": {"problem": {
                "env_vars": {"set": {"OMP_NUM_THREADS": "{n_threads}"}},
                "experiments": {"saxpy_{n}_{n_threads}": {
                    "variables": {"n": "256", "n_threads": ["2", "4"]},
                    "matrices": [["n_threads"]],
                }},
            }}}},
        }
    }


class TestEnvVars:
    def test_export_lines_in_script(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        exps = ws.setup()
        by_name = {e.name: e for e in exps}
        script2 = by_name["saxpy_256_2"].script_path.read_text()
        script4 = by_name["saxpy_256_4"].script_path.read_text()
        assert "export OMP_NUM_THREADS=2" in script2
        assert "export OMP_NUM_THREADS=4" in script4

    def test_recorded_in_variables(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        exps = ws.setup()
        assert exps[0].variables["env_OMP_NUM_THREADS"] in ("2", "4")

    def test_export_does_not_break_execution(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        ws.setup()
        outcomes = ws.run(LocalExecutor())
        assert all(o["returncode"] == 0 for o in outcomes)
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_no_env_vars_section_ok(self, tmp_path):
        cfg = _config()
        del cfg["ramble"]["applications"]["saxpy"]["workloads"]["problem"]["env_vars"]
        ws = Workspace.create(tmp_path / "ws", config=cfg)
        exps = ws.setup()
        assert "export" not in exps[0].script_path.read_text()
