"""Tests for the git model and the GitHub/GitLab service models."""

import pytest

from repro.ci.git import GitError, GitRepository
from repro.ci.github import GitHub
from repro.ci.gitlab import GitLab, GitLabError, Runner
from repro.ci.pipeline import CiConfigError, parse_ci_config


class TestGit:
    def test_commit_advances_branch(self):
        repo = GitRepository("r")
        c1 = repo.commit("main", "add file", "alice", {"a.txt": "1"})
        assert repo.head("main") is c1
        assert repo.files_at("main") == {"a.txt": "1"}

    def test_commits_accumulate_files(self):
        repo = GitRepository("r")
        repo.commit("main", "a", "alice", {"a.txt": "1"})
        repo.commit("main", "b", "alice", {"b.txt": "2"})
        assert repo.files_at("main") == {"a.txt": "1", "b.txt": "2"}

    def test_branching(self):
        repo = GitRepository("r")
        repo.commit("main", "base", "alice", {"a": "1"})
        repo.create_branch("feature")
        repo.commit("feature", "change", "bob", {"a": "2"})
        assert repo.files_at("main")["a"] == "1"
        assert repo.files_at("feature")["a"] == "2"

    def test_duplicate_branch(self):
        repo = GitRepository("r")
        with pytest.raises(GitError, match="already exists"):
            repo.create_branch("main")

    def test_unknown_branch(self):
        with pytest.raises(GitError, match="no branch"):
            GitRepository("r").head("ghost")

    def test_log_order(self):
        repo = GitRepository("r")
        repo.commit("main", "first", "a", {})
        repo.commit("main", "second", "a", {})
        messages = [c.message for c in repo.log()]
        assert messages == ["second", "first", "initial commit"]

    def test_fork_shares_history(self):
        repo = GitRepository("upstream")
        c = repo.commit("main", "x", "a", {"f": "1"})
        fork = repo.fork("fork")
        assert fork.head("main") is c
        fork.commit("main", "fork change", "b", {"f": "2"})
        assert repo.files_at("main")["f"] == "1"  # upstream untouched

    def test_fetch(self):
        upstream = GitRepository("up")
        upstream.commit("main", "x", "a", {"f": "1"})
        mirror = GitRepository("mirror")
        head = mirror.fetch(upstream, "main", as_branch="pr-1")
        assert mirror.head("pr-1") is head
        assert mirror.files_at("pr-1") == {"f": "1"}

    def test_unique_shas(self):
        repo = GitRepository("r")
        c1 = repo.commit("main", "same", "a", {"f": "1"})
        repo2 = GitRepository("r2")
        c2 = repo2.commit("main", "same", "a", {"f": "1"})
        assert c1.sha != c2.sha  # global counter breaks ties


class TestGitHub:
    def test_pr_flow(self):
        hub = GitHub()
        canonical = hub.create_repo("llnl", "benchpark")
        canonical.git.commit("main", "seed", "olga", {"README": "v1"})
        fork = canonical.fork("contributor")
        fork.git.create_branch("fix")
        fork.git.commit("fix", "improve", "contributor", {"README": "v2"})
        pr = canonical.open_pull_request(fork, "fix", "Improve", "contributor")
        assert pr.number == 1
        assert pr.state == "open"

    def test_empty_pr_rejected(self):
        hub = GitHub()
        canonical = hub.create_repo("llnl", "benchpark")
        fork = canonical.fork("c")
        with pytest.raises(GitError, match="no changes"):
            canonical.open_pull_request(fork, "main", "noop", "c")

    def test_admin_approval_logic(self):
        hub = GitHub()
        canonical = hub.create_repo("llnl", "benchpark")
        fork = canonical.fork("c")
        fork.git.create_branch("fix")
        fork.git.commit("fix", "x", "c", {"f": "1"})
        pr = canonical.open_pull_request(fork, "fix", "t", "c")
        assert not pr.approved_by_admin
        pr.approve("random_user", is_admin=False)
        assert not pr.approved_by_admin
        pr.approve("site_admin", is_admin=True)
        assert pr.approved_by_admin
        assert pr.admin_approver == "site_admin"

    def test_merge_requires_checks(self):
        hub = GitHub()
        canonical = hub.create_repo("llnl", "benchpark")
        fork = canonical.fork("c")
        fork.git.create_branch("fix")
        fork.git.commit("fix", "x", "c", {"f": "1"})
        pr = canonical.open_pull_request(fork, "fix", "t", "c")
        with pytest.raises(GitError, match="status checks"):
            canonical.merge(pr.number)
        pr.set_status("ci", "success")
        head = canonical.merge(pr.number)
        assert pr.state == "merged"
        assert canonical.git.files_at("main")["f"] == "1"
        assert head.files["f"] == "1"

    def test_webhook_fires(self):
        hub = GitHub()
        events = []
        hub.register_webhook(lambda repo, pr: events.append(pr.number))
        canonical = hub.create_repo("llnl", "benchpark")
        fork = canonical.fork("c")
        fork.git.create_branch("fix")
        fork.git.commit("fix", "x", "c", {"f": "1"})
        canonical.open_pull_request(fork, "fix", "t", "c")
        assert events == [1]


SIMPLE_CI = """
stages: [build, test]
build-job:
  stage: build
  script: ["echo build"]
test-job:
  stage: test
  tags: [cts1]
  script: ["echo test"]
"""


class TestCiConfig:
    def test_parse(self):
        parsed = parse_ci_config(SIMPLE_CI)
        assert parsed["stages"] == ["build", "test"]
        assert len(parsed["jobs"]) == 2

    def test_missing_script(self):
        with pytest.raises(CiConfigError, match="no script"):
            parse_ci_config("job:\n  stage: test\nstages: [test]\n")

    def test_unknown_stage(self):
        with pytest.raises(CiConfigError, match="unknown stage"):
            parse_ci_config("stages: [a]\nj:\n  stage: b\n  script: [x]\n")

    def test_no_jobs(self):
        with pytest.raises(CiConfigError, match="no jobs"):
            parse_ci_config("stages: [test]\n")

    def test_hidden_jobs_skipped(self):
        text = SIMPLE_CI + "\n.hidden:\n  script: [x]\n"
        parsed = parse_ci_config(text)
        assert all(j.name != ".hidden" for j in parsed["jobs"])

    def test_variables_merge(self):
        text = """
stages: [test]
variables: {GLOBAL: "1"}
j:
  stage: test
  script: [x]
  variables: {LOCAL: "2"}
"""
        job = parse_ci_config(text)["jobs"][0]
        assert job.variables == {"GLOBAL": "1", "LOCAL": "2"}


class TestGitLab:
    def _lab_with_runner(self, ok=True):
        lab = GitLab()
        lab.register_runner(
            Runner("runner-cts1", ["cts1"], lambda job: (ok, "log"))
        )
        return lab

    def test_pipeline_runs(self):
        lab = self._lab_with_runner()
        project = lab.create_project("mirror/benchpark")
        project.git.commit("main", "ci", "bot", {".gitlab-ci.yml": SIMPLE_CI})
        pipeline = project.trigger_pipeline("main")
        assert pipeline.succeeded
        assert all(j.status == "success" for j in pipeline.jobs)

    def test_pipeline_failure_skips_later_stages(self):
        lab = self._lab_with_runner(ok=False)
        project = lab.create_project("mirror/benchpark")
        project.git.commit("main", "ci", "bot", {".gitlab-ci.yml": SIMPLE_CI})
        pipeline = project.trigger_pipeline("main")
        assert pipeline.status == "failed"
        test_job = [j for j in pipeline.jobs if j.stage == "test"][0]
        assert test_job.status == "skipped"

    def test_no_ci_file(self):
        lab = self._lab_with_runner()
        project = lab.create_project("mirror/x")
        with pytest.raises(GitLabError, match="no .gitlab-ci.yml"):
            project.trigger_pipeline("main")

    def test_missing_runner_tag_fails_job(self):
        lab = GitLab()
        lab.register_runner(Runner("other", ["ats2"], lambda j: (True, "")))
        project = lab.create_project("mirror/x")
        project.git.commit("main", "ci", "bot", {".gitlab-ci.yml": SIMPLE_CI})
        pipeline = project.trigger_pipeline("main")
        assert pipeline.status == "failed"

    def test_duplicate_project(self):
        lab = GitLab()
        lab.create_project("p")
        with pytest.raises(GitLabError, match="already exists"):
            lab.create_project("p")
