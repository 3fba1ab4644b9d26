"""Cross-subsystem integration tests: the scenarios that exercise several
layers at once, beyond what any single subsystem's tests cover.

1. Federated continuous benchmarking: a PR triggers real benchmark runs at
   two sites, each with its own Hubcast, GitLab and Jacamar; FOMs land in
   one metrics DB, the dashboard renders, and Jacamar attributes every job.
2. Campaign with archive: workspace → system executor → analysis →
   archive → restore → identical re-setup.
3. Reuse-concretized second campaign installs nothing new.
"""

from repro.analysis.dashboard import render_report
from repro.ci.github import GitHub
from repro.ci.gitlab import GitLab, Runner
from repro.ci.hubcast import Hubcast
from repro.ci.jacamar import JacamarExecutor, SiteAccounts
from repro.ci.metricsdb import MetricsDatabase
from repro.core.driver import benchpark_setup
from repro.ramble.archive import archive_workspace, restore_workspace
from repro.ramble.workspace import Workspace
from repro.systems.executor import SystemExecutor
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
        db = MetricsDatabase()

        site_systems = {"LLNL": "cts1", "AWS": "cloud-c6i"}
        hubcasts, jacamars = {}, {}
        for site_name, system in site_systems.items():
            gitlab = GitLab(f"{site_name.lower()}-gitlab")
            hubcasts[site_name] = Hubcast(canonical, gitlab)
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
            gitlab.register_runner(Runner(
                f"{site_name}-runner", [],
                jacamar.bound_runner("contributor", approved_by="site_admin"),
            ))

        fork = canonical.fork("contributor")
        fork.git.create_branch("exp")
        fork.git.commit("exp", "new experiment", "contributor",
                        {"experiments/saxpy/openmp/ramble.yaml": "v2"})
        pr = canonical.open_pull_request(fork, "exp", "new exp", "contributor")
        pr.approve("site_admin", is_admin=True)

        pipelines = [hubcast.process_pr(pr) for hubcast in hubcasts.values()]
        assert all(p is not None and p.succeeded for p in pipelines)
        # each site mirrored the PR into its own GitLab
        for hubcast in hubcasts.values():
            assert f"pr-{pr.number}" in hubcast.mirror.git.branches

        # Both sites contributed to the shared metrics DB.
        assert {r.system for r in db.query()} == {"cts1", "cloud-c6i"}
        report = render_report(db)
        assert "cts1" in report and "cloud-c6i" in report
        # Jacamar attributed every job to the approver (contributor has no
        # account at either site).
        for jacamar in jacamars.values():
            assert jacamar.audit_log
            assert all(e["ran_as"] == "site_admin" for e in jacamar.audit_log)


class TestCampaignWithArchive:
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

    def test_run_archive_restore(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=self.CONFIG)
        ws.setup()
        outcomes = ws.run(SystemExecutor(get_system("cts1")))
        assert len(outcomes) == 2
        assert all(o["returncode"] == 0 for o in outcomes)
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
