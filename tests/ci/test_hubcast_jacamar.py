"""Tests for Hubcast mirroring (§3.3.1), Jacamar execution (§3.3.2),
the object store, and the metrics database — plus the full Figure 6 loop."""

import json

import pytest

from repro.ci.github import GitHub
from repro.ci.gitlab import GitLab, Runner
from repro.ci.hubcast import STATUS_CONTEXT, Hubcast, SecurityCriteria
from repro.ci.jacamar import JacamarError, JacamarExecutor, SiteAccounts
from repro.ci.metricsdb import MetricsDatabase
from repro.ci.objectstore import ObjectStore, ObjectStoreError

CI_YAML = """
stages: [bench]
saxpy-cts1:
  stage: bench
  tags: [cts1]
  script: ["saxpy -n 512"]
"""


def make_world(runner_ok=True, trusted=(), accounts=("site_admin", "olga")):
    hub = GitHub()
    canonical = hub.create_repo("llnl", "benchpark")
    canonical.git.commit("main", "seed", "olga", {
        ".gitlab-ci.yml": CI_YAML,
        "README.md": "benchpark",
    })
    lab = GitLab("llnl-gitlab")
    site = SiteAccounts("LLNL", users=set(accounts))
    jacamar = JacamarExecutor(site, lambda job, user: (runner_ok, f"ran as {user}"))

    hubcast = Hubcast(canonical, lab,
                      SecurityCriteria(trusted_users=set(trusted)))

    def open_pr(author="contributor", files=None):
        fork = canonical.fork(author)
        fork.git.create_branch("fix")
        fork.git.commit("fix", "change", author,
                        files or {"experiments/saxpy/ramble.yaml": "new"})
        pr = canonical.open_pull_request(fork, "fix", "change", author)
        # register the jacamar-bound runner for this PR's trigger context
        lab.runners.clear()
        lab.register_runner(Runner(
            "cts1-runner", ["cts1"],
            jacamar.bound_runner(pr.author, approved_by=pr.admin_approver),
        ))
        return pr

    return hub, canonical, lab, jacamar, hubcast, open_pr


class TestHubcast:
    def test_pr_opening_sets_pending(self):
        *_, open_pr = make_world()
        pr = open_pr()
        assert pr.statuses[STATUS_CONTEXT].state == "pending"

    def test_untrusted_pr_blocked_without_approval(self):
        *_, hubcast, open_pr = make_world()[3:]  # jacamar, hubcast, open_pr
        pr = open_pr()
        assert hubcast.process_pr(pr) is None
        assert pr.statuses[STATUS_CONTEXT].state == "pending"
        assert any("blocked" in line for line in hubcast.audit_log)

    def test_approved_pr_mirrors_and_runs(self):
        _, _, lab, jacamar, hubcast, open_pr = make_world()
        pr = open_pr()
        pr.approve("site_admin", is_admin=True)
        # refresh runner binding with the approver identity
        lab.runners.clear()
        lab.register_runner(Runner(
            "cts1-runner", ["cts1"],
            jacamar.bound_runner(pr.author, approved_by=pr.admin_approver),
        ))
        pipeline = hubcast.process_pr(pr)
        assert pipeline is not None and pipeline.succeeded
        assert pr.statuses[STATUS_CONTEXT].state == "success"
        assert f"pr-{pr.number}" in hubcast.mirror.git.branches

    def test_trusted_user_skips_approval(self):
        _, _, lab, jacamar, hubcast, open_pr = make_world(trusted=("olga",))
        pr = open_pr(author="olga")
        pipeline = hubcast.process_pr(pr)
        assert pipeline is not None

    def test_untrusted_pr_touching_ci_config_blocked(self):
        _, _, lab, jacamar, hubcast, open_pr = make_world()
        pr = open_pr(files={".gitlab-ci.yml": "stages: [pwn]\np:\n  script: [x]\n"})
        pr.approve("site_admin", is_admin=True)
        assert hubcast.process_pr(pr) is None
        assert any("protected" in line for line in hubcast.audit_log)

    def test_failed_pipeline_streams_failure(self):
        _, _, lab, jacamar, hubcast, open_pr = make_world(runner_ok=False)
        pr = open_pr()
        pr.approve("site_admin", is_admin=True)
        lab.runners.clear()
        lab.register_runner(Runner(
            "cts1-runner", ["cts1"],
            jacamar.bound_runner(pr.author, approved_by=pr.admin_approver),
        ))
        pipeline = hubcast.process_pr(pr)
        assert pipeline is not None and not pipeline.succeeded
        assert pr.statuses[STATUS_CONTEXT].state == "failure"


class TestJacamar:
    def test_runs_as_triggering_user_with_account(self):
        site = SiteAccounts("LLNL", users={"olga"})
        jac = JacamarExecutor(site, lambda job, user: (True, user))
        assert jac.resolve_user("olga", None) == "olga"

    def test_falls_back_to_approver(self):
        """§3.3.2: job by a user without a site account runs as the approver."""
        site = SiteAccounts("LLNL", users={"site_admin"})
        jac = JacamarExecutor(site, lambda job, user: (True, user))
        assert jac.resolve_user("outsider", "site_admin") == "site_admin"

    def test_refuses_service_account(self):
        site = SiteAccounts("LLNL", users=set())
        jac = JacamarExecutor(site, lambda job, user: (True, user))
        with pytest.raises(JacamarError, match="refusing"):
            jac.resolve_user("outsider", "also_outsider")

    def test_audit_log_attributes_user(self):
        from repro.ci.pipeline import CiJob

        site = SiteAccounts("LLNL", users={"site_admin"})
        jac = JacamarExecutor(site, lambda job, user: (True, "ok"))
        job = CiJob("j", "test", ["x"])
        jac.execute(job, "outsider", "site_admin")
        assert jac.audit_log[0]["triggered_by"] == "outsider"
        assert jac.audit_log[0]["ran_as"] == "site_admin"
        assert job.run_as_user == "site_admin"


class TestObjectStore:
    def test_put_get(self):
        store = ObjectStore()
        bucket = store.create_bucket("cache")
        bucket.put("k", b"data")
        assert bucket.get("k") == b"data"
        assert bucket.has("k")

    def test_missing_raises(self):
        bucket = ObjectStore().create_bucket("b")
        with pytest.raises(ObjectStoreError):
            bucket.get_or_raise("nope")

    def test_list_prefix(self):
        bucket = ObjectStore().create_bucket("b")
        bucket.put("buildcache/a", b"1")
        bucket.put("buildcache/b", b"2")
        bucket.put("other", b"3")
        assert bucket.list("buildcache/") == ["buildcache/a", "buildcache/b"]

    def test_non_bytes_rejected(self):
        bucket = ObjectStore().create_bucket("b")
        with pytest.raises(TypeError):
            bucket.put("k", "string")

    def test_binary_cache_backend(self):
        """The §7.2 rolling binary cache: mini-Spack cache on S3 bucket."""
        from repro.spack.binary_cache import BinaryCache
        from repro.spack.concretizer import Concretizer
        from repro.spack.installer import Installer
        from repro.spack.store import Store
        import tempfile

        bucket = ObjectStore().create_bucket("spack-binaries")
        cache = BinaryCache(backend=bucket)
        spec = Concretizer().concretize("cmake")
        with tempfile.TemporaryDirectory() as tmp:
            Installer(Store(f"{tmp}/a"), binary_cache=cache).install(spec)
        assert bucket.list("buildcache/")  # binaries published to S3


class TestMetricsDatabase:
    def _db(self):
        db = MetricsDatabase()
        for p in (2, 4, 8):
            db.record("osu-micro-benchmarks", "cts1", f"osu_bcast_{p}",
                      "total_time", 0.01 * p, "s", {"n_ranks": str(p)})
        db.record("saxpy", "ats2", "saxpy_512", "bandwidth", 800.0, "GB/s")
        return db

    def test_query_filters(self):
        db = self._db()
        assert len(db.query(system="cts1")) == 3
        assert len(db.query(benchmark="saxpy")) == 1
        assert len(db.query(fom_name="total_time", system="ats2")) == 0

    def test_series_for_extrap(self):
        series = self._db().series(
            "osu-micro-benchmarks", "cts1", "total_time", "n_ranks")
        assert series == [(2.0, 0.02), (4.0, 0.04), (8.0, 0.08)]

    def test_aggregate(self):
        agg = self._db().aggregate("total_time", group_by="system")
        assert agg["cts1"]["count"] == 3

    def test_usage_metrics(self):
        usage = self._db().benchmark_usage()
        assert usage["osu-micro-benchmarks"] == 3

    def test_ingest_analysis(self):
        db = MetricsDatabase()
        analysis = {"experiments": [{
            "name": "saxpy_512", "application": "saxpy",
            "variables": {"n": "512"}, "status": "SUCCESS",
            "figures_of_merit": [
                {"name": "bandwidth", "value": 5.0, "units": "GB/s"},
                {"name": "kernel_time", "value": 0.001, "units": "s"},
            ]}]}
        assert db.ingest_analysis("cts1", analysis) == 2
        assert db.query(fom_name="bandwidth")[0].manifest["n"] == "512"
        # one copy of the experiment's variables, shared by its records
        first, second = db.query(experiment="saxpy_512")
        assert first.manifest is second.manifest
        assert first.manifest is not analysis["experiments"][0]["variables"]
        assert db.to_records() == [
            {"seq": seq, "benchmark": "saxpy", "system": "cts1",
             "experiment": "saxpy_512", "fom_name": name, "value": value,
             "units": units, "manifest": {"n": "512"}}
            for seq, name, value, units in ((1, "bandwidth", 5.0, "GB/s"),
                                            (2, "kernel_time", 0.001, "s"))]

    def test_dump_load_roundtrip(self):
        db = self._db()
        again = MetricsDatabase.from_records(
            json.loads(json.dumps(db.to_records())))
        assert len(again) == len(db)
        assert again.series("osu-micro-benchmarks", "cts1", "total_time",
                            "n_ranks") == db.series(
            "osu-micro-benchmarks", "cts1", "total_time", "n_ranks")
