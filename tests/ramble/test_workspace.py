"""Integration tests for the Ramble workspace lifecycle (Figure 5) and the
software resolution of Figures 9/10."""

import json

import pytest

from repro.ramble.modifiers import Modifier
from repro.ramble.software import SoftwareError, merge_spack_sections, resolve_environment
from repro.ramble.templates import DEFAULT_EXECUTE_TEMPLATE, TemplateError, render_template
from repro.ramble.workspace import Workspace, WorkspaceError
from repro.systems.executor import LocalExecutor, SystemExecutor
from repro.systems.registry import get_system


def figure10_config(n_values=("512", "1024")):
    return {
        "ramble": {
            "variables": {
                "n_ranks": "{processes_per_node}*{n_nodes}",
                "batch_time": "120",
                "mpi_command": "srun -N {n_nodes} -n {n_ranks}",
            },
            "applications": {
                "saxpy": {
                    "workloads": {
                        "problem": {
                            "experiments": {
                                "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}": {
                                    "variables": {
                                        "processes_per_node": ["8", "4"],
                                        "n_nodes": ["1", "2"],
                                        "n_threads": ["2", "4"],
                                        "n": list(n_values),
                                    },
                                    "matrices": [
                                        {"size_threads": ["n", "n_threads"]}
                                    ],
                                }
                            }
                        }
                    }
                }
            },
        }
    }


class TestLifecycle:
    def test_create_layout(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws")
        assert ws.config_path.exists()
        assert ws.template_path.exists()
        assert (tmp_path / "ws" / "experiments").is_dir()

    def test_open_nonworkspace(self, tmp_path):
        with pytest.raises(WorkspaceError, match="not a ramble workspace"):
            Workspace(tmp_path)

    def test_setup_generates_figure10_matrix(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=figure10_config())
        exps = ws.setup()
        assert len(exps) == 8
        names = {e.name for e in exps}
        assert "saxpy_512_1_8_2" in names
        assert "saxpy_1024_2_8_4" in names

    def test_rank_derivation(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=figure10_config())
        exps = ws.setup()
        by_name = {e.name: e for e in exps}
        assert by_name["saxpy_512_1_8_2"].variables["n_ranks"] == "8"
        assert by_name["saxpy_512_2_8_2"].variables["n_ranks"] == "8"

    def test_scripts_rendered(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=figure10_config())
        exps = ws.setup()
        script = exps[0].script_path.read_text()
        assert script.startswith("#!/bin/bash")
        assert "srun -N 1 -n 8" in script
        assert "saxpy -n 512" in script
        assert "{" not in script.replace("{}", "")  # fully expanded

    def test_setup_requires_experiments(self, tmp_path):
        cfg = {"ramble": {"applications": {"saxpy": {"workloads": {"problem": {}}}}}}
        ws = Workspace.create(tmp_path / "ws", config=cfg)
        with pytest.raises(WorkspaceError, match="no experiments"):
            ws.setup()

    def test_setup_requires_applications(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws")
        with pytest.raises(WorkspaceError, match="no applications"):
            ws.setup()

    def test_run_before_setup(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=figure10_config())
        with pytest.raises(WorkspaceError, match="setup"):
            ws.run(LocalExecutor())

    def test_run_and_analyze_local(self, tmp_path):
        ws = Workspace.create(
            tmp_path / "ws", config=figure10_config(n_values=("256",))
        )
        ws.setup()
        outcomes = ws.run(LocalExecutor())
        assert all(o["returncode"] == 0 for o in outcomes)
        results = ws.analyze()
        assert all(
            e["status"] == "SUCCESS" for e in results["experiments"]
        )
        assert (tmp_path / "ws" / "results.latest.json").exists()

    def test_analysis_foms_numeric(self, tmp_path):
        ws = Workspace.create(
            tmp_path / "ws", config=figure10_config(n_values=("256",))
        )
        ws.setup()
        ws.run(LocalExecutor())
        results = ws.analyze()
        foms = results["experiments"][0]["figures_of_merit"]
        by_name = {f["name"]: f for f in foms}
        assert isinstance(by_name["kernel_time"]["value"], float)
        assert by_name["bandwidth"]["units"] == "GB/s"

    def test_not_run_status(self, tmp_path):
        ws = Workspace.create(
            tmp_path / "ws", config=figure10_config(n_values=("256",))
        )
        ws.setup()
        results = ws.analyze()
        assert all(e["status"] == "NOT_RUN" for e in results["experiments"])

    def test_experiment_index_persists(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=figure10_config())
        ws.setup()
        reopened = Workspace(tmp_path / "ws")
        assert len(reopened.experiments) == 8

    def test_rerooted_run(self, tmp_path):
        """A set-up workspace run into another directory: logs, run dirs
        and results land there, the scripts stay shared, and a
        ``{log_file}`` criterion reads the rerooted log."""
        config = figure10_config(n_values=("256",))
        experiments = config["ramble"]["applications"]["saxpy"]["workloads"][
            "problem"]["experiments"]
        next(iter(experiments.values()))["success_criteria"] = [
            {"name": "logged", "mode": "string", "match": "Kernel done"}]
        ws = Workspace.create(tmp_path / "ws", config=config)
        ws.setup()
        run = ws.rerooted(tmp_path / "epoch-0")
        run.run(LocalExecutor())
        results = run.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])
        assert (tmp_path / "epoch-0" / "results.latest.json").exists()
        assert not (tmp_path / "ws" / "results.latest.json").exists()
        for shared, exp in zip(ws.experiments, run.experiments):
            assert exp.log_file.exists() and not shared.log_file.exists()
            assert exp.script_path == shared.script_path
            assert exp.variables["log_file"] == str(exp.log_file)
            assert exp.variables["execute_experiment"] == str(shared.script_path)
            assert exp.variables is not shared.variables

    def test_rerooted_modifiers_stay_in_their_copies(self, tmp_path):
        """A rerooted run's modifiers write ``env_*`` keys into its own
        copies of the experiments only: neither the set-up experiments nor
        a later rerooted run sees them."""

        class Tag(Modifier):
            def env_vars(self, experiment):
                return {"FIRST_RUN_ONLY": "set"}

        ws = Workspace.create(
            tmp_path / "ws", config=figure10_config(n_values=("256",)))
        ws.setup()
        first = ws.rerooted(tmp_path / "epoch-0")
        first.run(LocalExecutor(), [Tag()])
        assert first.experiments and all(
            e.variables["env_FIRST_RUN_ONLY"] == "set"
            for e in first.experiments)
        later = ws.rerooted(tmp_path / "epoch-1")
        later.run(LocalExecutor())
        for experiments in (ws.experiments, later.experiments):
            assert experiments and not any(
                "env_FIRST_RUN_ONLY" in e.variables for e in experiments)

    def test_reopened_experiments_keep_software(self, tmp_path):
        from repro.core.driver import benchpark_setup

        session = benchpark_setup("amg2023/cuda", "ats2", tmp_path / "ws")
        session.setup()
        reopened = Workspace(tmp_path / "ws")
        assert [e.to_dict() for e in reopened.experiments] == [
            e.to_dict() for e in session.workspace.experiments]
        built = reopened.experiments[0].env_specs[-1]
        assert built.concrete and "+cuda" in str(built)

    def test_system_executor_runs(self, tmp_path):
        ws = Workspace.create(
            tmp_path / "ws", config=figure10_config(n_values=("256",))
        )
        ws.setup()
        outcomes = ws.run(SystemExecutor(get_system("cts1")))
        assert all(o["returncode"] == 0 for o in outcomes)
        log = ws.experiments[0].log_file.read_text()
        assert "# executing on cts1" in log

    def test_amg_workspace(self, tmp_path):
        cfg = {
            "ramble": {
                "variables": {"mpi_command": "srun -N {n_nodes} -n {n_ranks}"},
                "applications": {
                    "amg2023": {
                        "workloads": {
                            "problem1": {
                                "experiments": {
                                    "amg_{n}_{n_ranks}": {
                                        "variables": {
                                            "n": "8",
                                            "n_ranks": ["1", "4"],
                                        }
                                    }
                                }
                            }
                        }
                    }
                },
            }
        }
        ws = Workspace.create(tmp_path / "ws", config=cfg)
        exps = ws.setup()
        assert len(exps) == 2
        ws.run(LocalExecutor())
        results = ws.analyze()
        for e in results["experiments"]:
            assert e["status"] == "SUCCESS"
            names = {f["name"] for f in e["figures_of_merit"]}
            assert {"fom_setup", "fom_solve", "iterations"} <= names


class TestSoftwareResolution:
    SYSTEM_SPACK = {  # Figure 9
        "packages": {
            "default-compiler": {"spack_spec": "gcc@12.1.1"},
            "default-mpi": {"spack_spec": "mvapich2@2.3.7-gcc12.1.1"},
            "gcc1211": {"spack_spec": "gcc@12.1.1"},
            "lapack": {"spack_spec": "intel-oneapi-mkl@2022.1.0"},
        }
    }
    EXPERIMENT_SPACK = {  # Figure 10 lines 31-40
        "packages": {
            "saxpy": {
                "spack_spec": "saxpy@1.0.0 +openmp ^cmake@3.23.1",
                "compiler": "default-compiler",
            }
        },
        "environments": {"saxpy": {"packages": ["default-mpi", "saxpy"]}},
    }

    def test_merge(self):
        merged = merge_spack_sections(self.SYSTEM_SPACK, self.EXPERIMENT_SPACK)
        assert "default-mpi" in merged["packages"]
        assert "saxpy" in merged["packages"]
        assert "saxpy" in merged["environments"]

    def test_resolve_environment(self):
        merged = merge_spack_sections(self.SYSTEM_SPACK, self.EXPERIMENT_SPACK)
        roots = resolve_environment(merged, "saxpy")
        names = [r.name for r in roots]
        assert names == ["mvapich2", "saxpy"]
        saxpy = roots[1]
        assert saxpy.compiler.name == "gcc"
        assert str(saxpy.compiler.versions) == "12.1.1"
        assert "cmake" in saxpy.dependencies

    def test_unknown_environment(self):
        with pytest.raises(SoftwareError, match="not defined"):
            resolve_environment(self.EXPERIMENT_SPACK, "ghost")

    def test_undefined_package_reference(self):
        bad = {
            "packages": {},
            "environments": {"e": {"packages": ["nothing"]}},
        }
        with pytest.raises(SoftwareError, match="undefined package"):
            resolve_environment(bad, "e")

    def test_undefined_compiler_reference(self):
        bad = {
            "packages": {"p": {"spack_spec": "saxpy@1.0.0", "compiler": "ghost"}},
            "environments": {"e": {"packages": ["p"]}},
        }
        with pytest.raises(SoftwareError, match="compiler reference"):
            resolve_environment(bad, "e")

    def test_missing_spack_spec(self):
        with pytest.raises(SoftwareError, match="spack_spec"):
            resolve_environment(
                {"packages": {"p": {}}, "environments": {"e": {"packages": ["p"]}}},
                "e",
            )


class TestTemplates:
    def test_figure13_render(self):
        variables = {
            "batch_nodes": "#SBATCH -N {n_nodes}",
            "batch_ranks": "#SBATCH -n {n_ranks}",
            "batch_timeout": "#SBATCH -t {batch_time}:00",
            "n_nodes": "2",
            "n_ranks": "16",
            "batch_time": "120",
            "experiment_run_dir": "/tmp/exp",
            "spack_setup": "# spack loaded",
            "command": "srun -N 2 -n 16 saxpy -n 512",
        }
        script = render_template(DEFAULT_EXECUTE_TEMPLATE, variables)
        assert "#SBATCH -N 2" in script
        assert "#SBATCH -n 16" in script
        assert "#SBATCH -t 120:00" in script
        assert "cd /tmp/exp" in script

    def test_undefined_variable_names_culprit(self):
        with pytest.raises(TemplateError, match="batch_nodes"):
            render_template("{batch_nodes}", {})


class TestInputFiles:
    def test_declared_inputs_materialized(self, tmp_path):
        """§3.2.3: workspace setup downloads declared input files."""
        from repro.ramble.application import (
            SpackApplication, executable, input_file, workload,
        )
        from repro.ramble.apps import builtin_applications

        class Withinputs(SpackApplication):
            name = "withinputs"
            executable("e", "stream -n {array_size}", use_mpi=False)
            workload("w", executables=["e"])
            input_file("mesh.dat", url="https://example.org/mesh.dat",
                       description="test mesh")

        builtin_applications().register(Withinputs)
        config = {"ramble": {"applications": {"withinputs": {"workloads": {
            "w": {"experiments": {"run_{array_size}": {
                "variables": {"array_size": "1000"}}}}
        }}}}}
        ws = Workspace.create(tmp_path / "ws", config=config)
        ws.setup()
        mesh = tmp_path / "ws" / "inputs" / "withinputs" / "mesh.dat"
        assert mesh.exists()
        assert "https://example.org/mesh.dat" in mesh.read_text()
