"""Tests for layout extras: generated .gitlab-ci.yml, spec tree rendering,
and the markdown dashboard report."""

import pytest

from repro.ci.metricsdb import MetricsDatabase
from repro.ci.pipeline import parse_ci_config
from repro.core.layout import ci_config_for, generate_benchpark_tree
from repro.spack.concretizer import Concretizer


class TestCiConfigGeneration:
    def test_parses_as_valid_pipeline(self):
        text = ci_config_for(["saxpy", "amg2023"], ["cts1", "ats2"])
        parsed = parse_ci_config(text)
        assert parsed["stages"] == ["build", "bench"]
        assert len(parsed["jobs"]) == 2 * 2 * 2  # 2 stages × 2 bm × 2 sys

    def test_jobs_tagged_per_system(self):
        text = ci_config_for(["saxpy"], ["cts1", "ats4"])
        jobs = parse_ci_config(text)["jobs"]
        tags = {j.name: j.tags for j in jobs}
        assert tags["bench-saxpy-cts1"] == ["cts1"]
        assert tags["bench-saxpy-ats4"] == ["ats4"]

    def test_written_into_tree(self, tmp_path):
        root = generate_benchpark_tree(tmp_path / "bp",
                                       systems=["cts1"],
                                       benchmarks=["saxpy"])
        ci = (root / ".gitlab-ci.yml").read_text()
        parsed = parse_ci_config(ci)
        assert any(j.name == "build-saxpy-cts1" for j in parsed["jobs"])

    def test_runs_on_simulated_gitlab(self, tmp_path):
        """The generated pipeline executes end to end on a tagged runner."""
        from repro.ci.gitlab import GitLab, Runner

        root = generate_benchpark_tree(tmp_path / "bp",
                                       systems=["cts1"],
                                       benchmarks=["saxpy"])
        lab = GitLab()
        lab.register_runner(Runner("cts1", ["cts1"], lambda job: (True, "ok")))
        project = lab.create_project("benchpark")
        project.git.commit("main", "ci", "bot", {
            ".gitlab-ci.yml": (root / ".gitlab-ci.yml").read_text()})
        pipeline = project.trigger_pipeline("main")
        assert pipeline.succeeded


class TestSpecTree:
    def test_tree_shape(self):
        spec = Concretizer().concretize("amg2023+caliper")
        tree = spec.tree()
        lines = tree.splitlines()
        assert lines[0].startswith("amg2023@")
        assert any(line.startswith("    ^") for line in lines)
        # deeper nesting exists (hypre's deps)
        assert any(line.startswith("        ^") for line in lines)

    def test_tree_hashes(self):
        spec = Concretizer().concretize("saxpy")
        tree = spec.tree(show_hashes=True)
        assert f"[{spec.dag_hash(7)}]" in tree

    def test_tree_deduplicates_shared_deps(self):
        spec = Concretizer().concretize("amg2023+caliper")
        tree = spec.tree()
        # mvapich2 is a dep of amg2023, hypre, and caliper; its own subtree
        # is only expanded once but it may appear as a leaf multiple times.
        top_level_lines = [l for l in tree.splitlines() if l.strip()]
        assert len(top_level_lines) < 3 * len(list(spec.traverse()))


class TestDashboardReport:
    def _db(self):
        db = MetricsDatabase()
        db.record("saxpy", "cts1", "e1", "bandwidth", 2.0, "GB/s")
        db.record("saxpy", "cts1", "e2", "bandwidth", 4.0, "GB/s")
        db.record("saxpy", "ats2", "e1", "bandwidth", 9.0, "GB/s")
        db.record("amg2023", "cts1", "a1", "fom_solve", 5e7, "nnz*iter/s")
        db.record("saxpy", "cts1", "e1", "success", "Kernel done", "")
        return db

    def test_report_sections(self):
        from repro.analysis.dashboard import render_report

        report = render_report(self._db())
        assert report.startswith("# Benchpark results dashboard")
        assert "## bandwidth [GB/s] (mean)" in report
        assert "## fom_solve" in report
        assert "## benchmark usage" in report

    def test_report_averages(self):
        from repro.analysis.dashboard import render_report

        report = render_report(self._db())
        # cts1 bandwidth mean of 2.0 and 4.0 = 3.0
        line = [l for l in report.splitlines()
                if l.startswith("saxpy") and "3" in l]
        assert line

    def test_non_numeric_foms_skipped(self):
        from repro.analysis.dashboard import render_report

        report = render_report(self._db())
        assert "## success" not in report

    def test_empty_db(self):
        from repro.analysis.dashboard import render_report

        report = render_report(MetricsDatabase())
        assert "0 records" in report

    def test_report_tracks_appends(self):
        from repro.analysis.dashboard import render_report

        db = self._db()
        render_report(db)
        db.record("quicksilver", "sierra", "q0", "fom_segments", 7.5, "seg/s",
                  {"epoch": "0"})
        report = render_report(db)
        assert "## fom_segments [seg/s] (mean)" in report
        assert report == render_report(
            MetricsDatabase.from_records(db.to_records()))
