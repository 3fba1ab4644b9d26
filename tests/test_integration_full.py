"""Cross-subsystem integration tests: the scenarios that exercise several
layers at once, beyond what any single subsystem's tests cover.

1. Federated continuous benchmarking: a PR triggers real benchmark runs at
   multiple sites through Jacamar, FOMs land in one metrics DB, the
   dashboard renders, and the PR merges only when all sites are green.
2. Queue-aware campaign: workspace → batch scheduler → execution → analysis
   → archive → restore → identical re-run.
3. Reuse-concretized second campaign installs nothing new.
"""

from pathlib import Path

import pytest

from repro.analysis.dashboard import render_report
from repro.ci.federation import Federation
from repro.ci.github import GitHub
from repro.ci.gitlab import Runner
from repro.ci.jacamar import JacamarExecutor, SiteAccounts
from repro.ci.metricsdb import MetricsDatabase
from repro.core.driver import benchpark_setup
from repro.ramble.archive import archive_workspace, restore_workspace
from repro.ramble.workspace import Workspace
from repro.systems.batch_executor import BatchExecutor
from repro.systems.registry import get_system

CI_YAML = """
stages: [bench]
bench-saxpy:
  stage: bench
  script: ["benchpark saxpy"]
"""


class TestFederatedContinuousBenchmarking:
    def test_pr_to_dashboard(self, tmp_path):
        hub = GitHub()
        canonical = hub.create_repo("llnl", "benchpark")
        canonical.git.commit("main", "seed", "olga",
                             {".gitlab-ci.yml": CI_YAML})
        fed = Federation(canonical)
        db = MetricsDatabase()

        site_systems = {"LLNL": "cts1", "AWS": "cloud-c6i"}
        jacamars = {}
        for site_name, system in site_systems.items():
            site = fed.add_site(site_name, [system])
            accounts = SiteAccounts(site_name, users={"site_admin"})

            def body(job, user, system=system, site_name=site_name):
                session = benchpark_setup(
                    "saxpy/openmp", system,
                    tmp_path / site_name / job.name)
                results = session.run_all()
                db.ingest_analysis(system, results)
                ok = all(e["status"] == "SUCCESS"
                         for e in results["experiments"])
                return ok, f"{site_name}: ran as {user}"

            jacamar = JacamarExecutor(accounts, body)
            jacamars[site_name] = jacamar
            site.gitlab.register_runner(Runner(
                f"{site_name}-runner", [],
                jacamar.bound_runner("contributor", approved_by="site_admin"),
            ))

        fork = canonical.fork("contributor")
        fork.git.create_branch("exp")
        fork.git.commit("exp", "new experiment", "contributor",
                        {"experiments/saxpy/openmp/ramble.yaml": "v2"})
        pr = canonical.open_pull_request(fork, "exp", "new exp", "contributor")
        pr.approve("site_admin", is_admin=True)

        results = fed.process_pr(pr)
        assert all(p is not None and p.succeeded for p in results.values())
        assert fed.all_sites_green(pr)
        canonical.merge(pr.number)
        assert pr.state == "merged"

        # Both sites contributed to the shared metrics DB.
        assert {r.system for r in db.query()} == {"cts1", "cloud-c6i"}
        report = render_report(db)
        assert "cts1" in report and "cloud-c6i" in report
        # Jacamar attributed every job to the approver (contributor has no
        # account at either site).
        for jacamar in jacamars.values():
            assert all(e["ran_as"] == "site_admin" for e in jacamar.audit_log)


class TestQueuedCampaignWithArchive:
    CONFIG = {
        "ramble": {
            "variables": {"mpi_command": "srun -N {n_nodes} -n {n_ranks}",
                          "n_ranks": "4", "batch_time": "5"},
            "applications": {"amg2023": {"workloads": {"problem1": {
                "experiments": {"amg_{n}_{n_nodes}": {
                    "variables": {"n": "8", "n_nodes": ["1", "2"]},
                    "matrices": [["n_nodes"]],
                }}
            }}}},
        }
    }

    def test_queue_run_archive_restore(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=self.CONFIG)
        ws.setup()
        executor = BatchExecutor(get_system("cts1"))
        outcomes = executor.run_workspace(ws)
        assert all(o["state"] == "completed" for o in outcomes)
        assert executor.makespan > 0
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

        bundle = archive_workspace(ws)
        assert bundle["results"]["experiments"]

        restored = restore_workspace(bundle, tmp_path / "restored")
        experiments = restored.setup()
        assert [e.name for e in experiments] == \
            [e["name"] for e in bundle["experiments"]]


class TestReuseAcrossCampaigns:
    def test_second_campaign_installs_nothing(self, tmp_path):
        from repro.spack.concretizer import Concretizer
        from repro.spack.installer import Installer
        from repro.spack.store import Store

        store = Store(tmp_path / "store")
        first = Concretizer()
        spec = first.concretize("amg2023+caliper")
        Installer(store).install(spec)
        n_before = len(store)

        # Second campaign wants a looser request; reuse satisfies it
        # entirely from what's installed.
        second = Concretizer(reuse_store=store)
        solved = second.concretize("amg2023")
        results = Installer(store).install(solved)
        assert all(r.action in ("already", "external") for r in results)
        assert len(store) == n_before
