"""Tests for the Benchpark core: component model (Table 1), repository
layout (Figure 1a), the driver workflow (Figure 1c), and the CLI."""

import json

import pytest
import yaml

from repro.core import (
    EXPERIMENT_VARIANTS,
    SpackRuntime,
    WORKFLOW_STEPS,
    benchpark_setup,
    experiment_ramble_yaml,
    generate_benchpark_tree,
    render_table1,
    render_tree,
    validate_tree,
    verify_cells,
)
from repro.core.cli import main as cli_main
from repro.core.driver import BenchparkError
from repro.core.layout import (
    system_compilers_yaml,
    system_packages_yaml,
    system_spack_yaml,
    system_variables_yaml,
)
from repro.systems import get_system


class TestComponents:
    def test_all_18_cells_implemented(self):
        cells = verify_cells()
        assert len(cells) == 18  # 6 components x 3 axes (Table 1)
        missing = [k for k, ok in cells.items() if not ok]
        assert not missing, f"unimplemented Table 1 cells: {missing}"

    def test_render_contains_paper_artifacts(self):
        text = render_table1()
        for artifact in ("package.py", "application.py", "archspec",
                         "variables.yaml", "success_criteria", ".gitlab-ci.yml",
                         "Hubcast"):
            assert artifact in text

    def test_render_row_order(self):
        text = render_table1()
        assert text.index("1 Source code") < text.index("6 CI testing")


class TestLayout:
    def test_generate_and_validate(self, tmp_path):
        root = generate_benchpark_tree(tmp_path / "benchpark")
        assert validate_tree(root) == []

    def test_validation_catches_missing(self, tmp_path):
        root = generate_benchpark_tree(tmp_path / "benchpark")
        (root / "configs" / "cts1" / "spack.yaml").unlink()
        problems = validate_tree(root)
        assert problems == ["missing configs/cts1/spack.yaml"]

    def test_figure1a_directories(self, tmp_path):
        root = generate_benchpark_tree(tmp_path / "bp")
        for sub in ("benchpark/bin", "configs", "experiments", "repo"):
            assert (root / sub).is_dir()
        # Figure 1a lines 20-40: per-benchmark variant dirs
        assert (root / "experiments" / "saxpy" / "openmp" / "ramble.yaml").exists()
        assert (root / "experiments" / "amg2023" / "rocm" /
                "execute_experiment.tpl").exists()

    def test_render_tree_text(self, tmp_path):
        root = generate_benchpark_tree(tmp_path / "bp")
        text = render_tree(root)
        assert "benchpark" in text and "configs" in text and "repo" in text

    def test_system_variables_yaml_figure12(self):
        data = system_variables_yaml(get_system("cts1"))["variables"]
        assert data["mpi_command"] == "srun -N {n_nodes} -n {n_ranks}"
        assert data["batch_submit"] == "sbatch {execute_experiment}"
        assert data["batch_nodes"] == "#SBATCH -N {n_nodes}"

    def test_scheduler_specific_directives(self):
        lsf = system_variables_yaml(get_system("ats2"))["variables"]
        assert lsf["batch_nodes"].startswith("#BSUB")
        flux = system_variables_yaml(get_system("ats4"))["variables"]
        assert "flux" in flux["batch_submit"]

    def test_system_packages_yaml_figure4(self):
        pkgs = system_packages_yaml(get_system("cts1"))["packages"]
        mkl = pkgs["intel-oneapi-mkl"]["externals"][0]
        assert mkl["spec"] == "intel-oneapi-mkl@2022.1.0"
        assert pkgs["mvapich2"]["buildable"] is False

    def test_system_spack_yaml_figure9(self):
        spack = system_spack_yaml(get_system("cts1"))["spack"]["packages"]
        assert spack["default-compiler"]["spack_spec"] == "gcc@12.1.1"
        assert "mvapich2" in spack["default-mpi"]["spack_spec"]

    def test_experiment_ramble_yaml_shapes(self):
        cfg = experiment_ramble_yaml("saxpy", "openmp", get_system("cts1"))
        apps = cfg["ramble"]["applications"]
        assert "saxpy" in apps
        spec = cfg["ramble"]["spack"]["packages"]["saxpy"]["spack_spec"]
        assert "+openmp" in spec

    def test_experiment_gpu_variants(self):
        cuda = experiment_ramble_yaml("saxpy", "cuda", get_system("ats2"))
        assert "+cuda" in cuda["ramble"]["spack"]["packages"]["saxpy"]["spack_spec"]
        with pytest.raises(KeyError, match="no 'quantum' variant|no variant"):
            experiment_ramble_yaml("saxpy", "quantum", get_system("ats2"))

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            experiment_ramble_yaml("hpl", "openmp", get_system("cts1"))


class TestDriver:
    def test_setup_creates_workspace(self, tmp_path):
        session = benchpark_setup("saxpy/openmp", "cts1", tmp_path / "ws")
        assert session.workspace.config_path.exists()
        assert (tmp_path / "ws" / ".benchpark" / "provenance.json").exists()
        assert session.steps[:3] == WORKFLOW_STEPS[1:4]

    def test_unknown_benchmark_rejected(self, tmp_path):
        with pytest.raises(BenchparkError, match="unknown benchmark"):
            benchpark_setup("hpl", "cts1", tmp_path / "ws")

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(BenchparkError, match="variant"):
            benchpark_setup("saxpy/tpu", "cts1", tmp_path / "ws")

    def test_unknown_system_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown system"):
            benchpark_setup("saxpy", "frontier", tmp_path / "ws")

    def test_default_variant(self, tmp_path):
        session = benchpark_setup("saxpy", "cts1", tmp_path / "ws")
        assert session.variant == "openmp"

    def test_full_workflow_nine_steps(self, tmp_path):
        session = benchpark_setup("saxpy/openmp", "cts1", tmp_path / "ws")
        results = session.run_all()
        assert session.steps == WORKFLOW_STEPS[1:]
        assert len(results["experiments"]) == 8  # the Figure 10 matrix
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_software_installed_during_setup(self, tmp_path):
        session = benchpark_setup("saxpy/openmp", "cts1", tmp_path / "ws")
        session.setup()
        installed = [r.spec.name for r in session.runtime.store.all_records()]
        assert "saxpy" in installed

    def test_external_mpi_on_cts1(self, tmp_path):
        session = benchpark_setup("saxpy/openmp", "cts1", tmp_path / "ws")
        session.setup()
        mpi_specs = session.runtime.store.query()
        mvapich = [s for s in mpi_specs if s.name == "mvapich2"]
        assert mvapich and mvapich[0].external

    def test_run_before_setup_rejected(self, tmp_path):
        session = benchpark_setup("saxpy/openmp", "cts1", tmp_path / "ws")
        with pytest.raises(BenchparkError, match="setup"):
            session.run()

    def test_gpu_variant_builds_gpu_software(self, tmp_path):
        session = benchpark_setup("amg2023/cuda", "ats2", tmp_path / "ws")
        session.setup()
        names = {r.spec.name for r in session.runtime.store.all_records()}
        assert "cuda" in names

    def test_workflow_step_count_matches_figure1c(self):
        assert len(WORKFLOW_STEPS) == 9


class TestSpackRuntime:
    def test_target_from_archspec(self, tmp_path):
        rt = SpackRuntime(get_system("ats4"), tmp_path / "store")
        spec = rt.concretize_together(["saxpy"])[0]
        assert spec.target == "zen3_trento"

    def test_optimization_flags(self, tmp_path):
        rt = SpackRuntime(get_system("ats4"), tmp_path / "store")
        assert "znver3" in rt.optimization_flags("gcc", "12.1.1")

    def test_compilers_from_system(self, tmp_path):
        rt = SpackRuntime(get_system("ats2"), tmp_path / "store")
        spec = rt.concretize_together(["saxpy"])[0]
        assert spec.compiler.name in ("gcc", "clang")


class TestCli:
    def test_list_systems(self, capsys):
        assert cli_main(["list", "systems"]) == 0
        out = capsys.readouterr().out
        assert "cts1" in out and "ats2" in out and "ats4" in out

    def test_list_experiments(self, capsys):
        assert cli_main(["list", "experiments"]) == 0
        assert "saxpy/openmp" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_tree(self, tmp_path, capsys):
        assert cli_main(["tree", str(tmp_path / "bp")]) == 0
        assert "configs" in capsys.readouterr().out

    def test_setup_and_analyze(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert cli_main(["setup", "stream/openmp", "cloud-c6i", str(ws),
                         "--full"]) == 0
        out = capsys.readouterr().out
        assert "all SUCCESS" in out
        assert cli_main(["analyze", str(ws)]) == 0
        results = json.loads(capsys.readouterr().out)
        assert results["experiments"]

    def test_reopened_workspace_runs_like_setup_full(self, tmp_path, capsys):
        """A workspace set up by ``setup --full`` and run again through
        ``run`` + ``analyze`` reopens its experiments from the index with
        their software: the CUDA build still offloads, with the same
        statuses."""
        ws = tmp_path / "ws"
        assert cli_main(["setup", "amg2023/cuda", "ats2", str(ws),
                         "--full"]) == 0
        logs = sorted(ws.glob("experiments/*/*/*/*.out"))

        def outcome():
            results = json.loads((ws / "results.latest.json").read_text())
            return ({e["name"]: e["status"] for e in results["experiments"]},
                    ["# offloading to V100" in p.read_text() for p in logs])

        full = outcome()
        assert logs and full[1] == [True] * len(logs)
        assert cli_main(["run", str(ws), "ats2"]) == 0
        assert cli_main(["analyze", str(ws)]) == 0
        capsys.readouterr()
        assert outcome() == full

    def test_setup_unknown_system_exit_code(self, tmp_path, capsys):
        assert cli_main(["setup", "saxpy", "nonexistent", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestCliSuite:
    def test_suite_command(self, tmp_path, capsys):
        assert cli_main(["suite", "smoke", "cts1", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "saxpy/openmp" in out

    def test_suite_unknown(self, tmp_path, capsys):
        assert cli_main(["suite", "ghost", "cts1", str(tmp_path)]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestCliReport:
    def test_report_from_dump(self, tmp_path, capsys):
        from repro.core.continuous import ContinuousBenchmarking

        ContinuousBenchmarking("saxpy/openmp", "cts1", tmp_path).run(1)
        assert cli_main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out and "cts1" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestCliArchive:
    def test_archive_restore_roundtrip(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        assert cli_main(["setup", "stream/openmp", "cts1", str(ws),
                         "--full"]) == 0
        capsys.readouterr()
        archive = tmp_path / "bundle.json"
        assert cli_main(["archive", str(ws), str(archive)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out

        restored = tmp_path / "restored"
        assert cli_main(["restore", str(archive), str(restored)]) == 0
        out = capsys.readouterr().out
        assert "restored workspace" in out
        assert (restored / "configs" / "ramble.yaml").exists()

    def test_restore_bad_archive(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli_main(["restore", str(bad), str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err
