"""Tests for spack ci generate + pipeline `needs` execution."""

import pytest

from repro.ci.pipeline import CiConfigError, build_pipeline, parse_ci_config, run_pipeline
from repro.spack.binary_cache import BinaryCache
from repro.spack.ci_pipeline import generate_ci_pipeline, job_name_for
from repro.spack.concretizer import Concretizer
from repro.spack.environment import Environment
from repro.spack.installer import Installer
from repro.spack.spec import Spec, SpecError
from repro.spack.store import Store


@pytest.fixture
def amg_env(tmp_path):
    env = Environment.create(tmp_path / "env", specs=["amg2023+caliper"])
    env.concretize(Concretizer())
    return env


class TestGeneration:
    def test_requires_concretized_env(self, tmp_path):
        env = Environment.create(tmp_path / "env", specs=["saxpy"])
        with pytest.raises(SpecError, match="not concretized"):
            generate_ci_pipeline(env)

    def test_one_job_per_node(self, amg_env):
        parsed = parse_ci_config(generate_ci_pipeline(amg_env))
        root = amg_env.concrete_roots[0]
        expected = {job_name_for(n) for n in root.traverse() if not n.external}
        assert {j.name for j in parsed["jobs"]} == expected

    def test_needs_mirror_dependencies(self, amg_env):
        parsed = parse_ci_config(generate_ci_pipeline(amg_env))
        root = amg_env.concrete_roots[0]
        by_name = {j.name: j for j in parsed["jobs"]}
        amg_job = by_name[job_name_for(root)]
        expected_needs = {
            job_name_for(d) for d in root.dependencies.values() if not d.external
        }
        assert set(amg_job.needs) == expected_needs

    def test_tags_applied(self, amg_env):
        parsed = parse_ci_config(generate_ci_pipeline(amg_env, tags=["cts1"]))
        assert all(j.tags == ["cts1"] for j in parsed["jobs"])

    def test_cached_specs_pruned(self, amg_env, tmp_path):
        cache = BinaryCache()
        root = amg_env.concrete_roots[0]
        # Pre-populate the cache with everything.
        Installer(Store(tmp_path / "store"), binary_cache=cache).install(root)
        text = generate_ci_pipeline(amg_env, binary_cache=cache)
        parsed = parse_ci_config(text)
        assert [j.name for j in parsed["jobs"]] == ["no-specs-to-rebuild"]

    def test_partial_cache_prunes_needs(self, amg_env, tmp_path):
        cache = BinaryCache()
        root = amg_env.concrete_roots[0]
        cmake = root["cmake"]
        # Cache only cmake.
        store = Store(tmp_path / "store")
        installer = Installer(store, binary_cache=cache)
        installer.install(cmake)
        parsed = parse_ci_config(
            generate_ci_pipeline(amg_env, binary_cache=cache))
        names = {j.name for j in parsed["jobs"]}
        assert job_name_for(cmake) not in names
        for job in parsed["jobs"]:
            assert job_name_for(cmake) not in job.needs


class TestNeedsExecution:
    def test_needs_order_respected(self, amg_env):
        text = generate_ci_pipeline(amg_env)
        pipeline = build_pipeline("main", "abc", text)
        executed = []
        run_pipeline(pipeline, lambda job: (executed.append(job.name) or True, ""))
        position = {name: i for i, name in enumerate(executed)}
        for job in pipeline.jobs:
            for need in job.needs:
                assert position[need] < position[job.name]
        assert pipeline.succeeded

    def test_failed_need_skips_dependents(self, amg_env):
        text = generate_ci_pipeline(amg_env)
        pipeline = build_pipeline("main", "abc", text)
        root = amg_env.concrete_roots[0]
        hypre_job = job_name_for(root["hypre"])
        amg_job = job_name_for(root)

        def execute(job):
            return (job.name != hypre_job), "log"

        run_pipeline(pipeline, execute)
        statuses = {j.name: j.status for j in pipeline.jobs}
        assert statuses[hypre_job] == "failed"
        assert statuses[amg_job] == "skipped"
        assert not pipeline.succeeded

    def test_pipeline_actually_builds_the_env(self, amg_env, tmp_path):
        """End-to-end: CI jobs install their spec into a shared store in
        needs order; afterwards the whole environment is installed."""
        store = Store(tmp_path / "store")
        installer = Installer(store)
        root = amg_env.concrete_roots[0]
        by_job = {job_name_for(n): n for n in root.traverse() if not n.external}

        def execute(job):
            spec = by_job[job.name]
            # deps must already be present — the needs edges guarantee it
            results = installer.install(spec)
            return all(r.action != "failed" for r in results), "built"

        pipeline = build_pipeline("main", "abc",
                                  generate_ci_pipeline(amg_env))
        run_pipeline(pipeline, execute)
        assert pipeline.succeeded
        assert all(store.is_installed(n) for n in root.traverse())

    def test_unknown_need_rejected_at_parse(self):
        bad = """
stages: [build]
a:
  stage: build
  script: [x]
  needs: [ghost]
"""
        with pytest.raises(CiConfigError, match="unknown job"):
            parse_ci_config(bad)

    def test_circular_needs_fail_pipeline(self):
        text = """
stages: [build]
a:
  stage: build
  script: [x]
  needs: [b]
b:
  stage: build
  script: [x]
  needs: [a]
"""
        pipeline = build_pipeline("main", "abc", text)
        run_pipeline(pipeline, lambda job: (True, ""))
        assert not pipeline.succeeded
        assert all(j.status == "skipped" for j in pipeline.jobs)
