"""Tests for multi-site Hubcast federation (Table 1 row 6:
Hubcast@LLNL/RIKEN/AWS)."""

import pytest

from repro.ci.federation import Federation
from repro.ci.github import GitHub
from repro.ci.gitlab import Runner
from repro.ci.hubcast import SecurityCriteria

CI_YAML = """
stages: [bench]
bench-job:
  stage: bench
  script: ["run benchmarks"]
"""


def make_federation(runner_ok=None):
    runner_ok = runner_ok or {}
    hub = GitHub()
    canonical = hub.create_repo("llnl", "benchpark")
    canonical.git.commit("main", "seed", "olga", {".gitlab-ci.yml": CI_YAML})
    fed = Federation(canonical)
    for site_name, systems in (("LLNL", ["cts1", "ats2", "ats4"]),
                               ("RIKEN", ["fugaku-sim"]),
                               ("AWS", ["cloud-c6i", "cloud-p4d"])):
        site = fed.add_site(site_name, systems)
        ok = runner_ok.get(site_name, True)
        site.gitlab.register_runner(
            Runner(f"{site_name}-runner", [], lambda job, ok=ok: (ok, site_name))
        )
    return hub, canonical, fed


def open_pr(canonical, author="contributor"):
    fork = canonical.fork(author)
    fork.git.create_branch("fix")
    fork.git.commit("fix", "change", author, {"experiments/x.yaml": "new"})
    return canonical.open_pull_request(fork, "fix", "change", author)


class TestFederation:
    def test_three_sites(self):
        _, _, fed = make_federation()
        assert set(fed.sites) == {"LLNL", "RIKEN", "AWS"}

    def test_duplicate_site_rejected(self):
        _, _, fed = make_federation()
        with pytest.raises(ValueError, match="already federated"):
            fed.add_site("LLNL", [])

    def test_pr_fans_out_after_approval(self):
        _, canonical, fed = make_federation()
        pr = open_pr(canonical)
        pr.approve("site_admin", is_admin=True)
        results = fed.process_pr(pr)
        assert all(p is not None and p.succeeded for p in results.values())
        for site in ("LLNL", "RIKEN", "AWS"):
            assert pr.statuses[f"hubcast/gitlab-ci@{site}"].state == "success"
        assert fed.all_sites_green(pr)

    def test_unapproved_pr_blocked_everywhere(self):
        _, canonical, fed = make_federation()
        pr = open_pr(canonical)
        results = fed.process_pr(pr)
        assert all(p is None for p in results.values())
        assert not fed.all_sites_green(pr)

    def test_one_site_failure_blocks_merge(self):
        _, canonical, fed = make_federation(runner_ok={"RIKEN": False})
        pr = open_pr(canonical)
        pr.approve("site_admin", is_admin=True)
        results = fed.process_pr(pr)
        assert results["LLNL"].succeeded
        assert not results["RIKEN"].succeeded
        assert pr.statuses["hubcast/gitlab-ci@RIKEN"].state == "failure"
        assert not fed.all_sites_green(pr)

    def test_per_site_mirrors_isolated(self):
        _, canonical, fed = make_federation()
        pr = open_pr(canonical)
        pr.approve("site_admin", is_admin=True)
        fed.process_pr(pr)
        for site in fed.sites.values():
            assert f"pr-{pr.number}" in site.hubcast.mirror.git.branches
        # distinct GitLab instances
        labs = {id(site.gitlab) for site in fed.sites.values()}
        assert len(labs) == 3

    def test_site_for_system(self):
        _, _, fed = make_federation()
        assert fed.site_for_system("ats4").name == "LLNL"
        assert fed.site_for_system("cloud-c6i").name == "AWS"
        assert fed.site_for_system("frontier") is None

    def test_empty_federation_never_green(self):
        hub = GitHub()
        canonical = hub.create_repo("o", "r")
        canonical.git.commit("main", "s", "a", {".gitlab-ci.yml": CI_YAML})
        fed = Federation(canonical)
        pr = open_pr(canonical)
        assert not fed.all_sites_green(pr)
