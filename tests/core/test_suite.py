"""Tests for benchmark suite templates (Figure 1c step 2) and archspec
flags flowing into builds."""

import pytest

from repro.core.driver import BenchparkError
from repro.core.suite import (
    BUILTIN_SUITES,
    SuiteDefinition,
    get_suite,
    run_suite,
)


class TestSuiteDefinitions:
    def test_builtin_suites_valid(self):
        for name in BUILTIN_SUITES:
            get_suite(name)  # validates

    def test_unknown_suite(self):
        with pytest.raises(BenchparkError, match="unknown suite"):
            get_suite("imaginary")

    def test_empty_suite_invalid(self):
        s = SuiteDefinition("empty", "nothing", ())
        with pytest.raises(BenchparkError, match="no experiments"):
            s.validate()

    def test_unknown_benchmark_invalid(self):
        s = SuiteDefinition("bad", "x", ("hpl/openmp",))
        with pytest.raises(BenchparkError, match="unknown benchmark"):
            s.validate()

    def test_unknown_variant_invalid(self):
        s = SuiteDefinition("bad", "x", ("saxpy/fpga",))
        with pytest.raises(BenchparkError, match="no variant"):
            s.validate()


class TestSuiteRuns:
    def test_smoke_suite_on_cts1(self, tmp_path):
        run = run_suite("smoke", "cts1", tmp_path)
        assert run.passed
        assert set(run.statuses) == {"saxpy/openmp", "stream/openmp"}
        assert len(run.db) > 0
        assert "PASS" in run.summary()

    def test_gpu_suite_on_gpu_system(self, tmp_path):
        run = run_suite("gpu-acceptance", "ats2", tmp_path)
        assert run.passed

    def test_shared_db_across_systems(self, tmp_path):
        from repro.ci.metricsdb import MetricsDatabase

        db = MetricsDatabase()
        run_suite("smoke", "cts1", tmp_path / "a", db=db)
        run_suite("smoke", "ats4", tmp_path / "b", db=db)
        systems = {r.system for r in db.query()}
        assert systems == {"cts1", "ats4"}

    def test_unknown_system_fails_fast(self, tmp_path):
        with pytest.raises(KeyError, match="unknown system"):
            run_suite("smoke", "perlmutter", tmp_path)


class TestArchspecFlagsInBuilds:
    def test_build_log_carries_target_flags(self, tmp_path):
        """§3.1.3 role 1: the build is tailored to the target uarch."""
        from repro.core.runtime import SpackRuntime
        from repro.systems.registry import get_system

        rt = SpackRuntime(get_system("ats4"), tmp_path / "store")
        spec = rt.concretize_together(["saxpy"])[0]
        rt.install(spec)
        rec = rt.store.get_record(spec)
        from pathlib import Path

        log = (Path(rec.prefix) / ".spack" / "build.log").read_text()
        assert "archspec: CFLAGS=" in log
        assert "znver3" in log  # ats4 is zen3_trento

    def test_different_targets_different_flags(self, tmp_path):
        from repro.core.runtime import SpackRuntime
        from repro.systems.registry import get_system
        from pathlib import Path

        logs = {}
        for system in ("cts1", "ats4"):
            rt = SpackRuntime(get_system(system), tmp_path / system)
            spec = rt.concretize_together(["saxpy"])[0]
            rt.install(spec)
            rec = rt.store.get_record(spec)
            logs[system] = (Path(rec.prefix) / ".spack" / "build.log").read_text()
        assert "broadwell" in logs["cts1"]
        assert "znver3" in logs["ats4"]
