"""Property-based tests for the CI substrate: git DAG invariants and
pipeline execution invariants."""

from hypothesis import given, settings, strategies as st

from repro.ci.git import GitRepository
from repro.ci.pipeline import build_pipeline, parse_ci_config, run_pipeline

import yaml


# ---------------------------------------------------------------------------
# git
# ---------------------------------------------------------------------------
file_edits = st.lists(
    st.tuples(st.sampled_from("abcde"), st.text(max_size=8)),
    min_size=1, max_size=12,
)


@given(file_edits)
def test_git_head_reflects_all_edits(edits):
    repo = GitRepository("r")
    expected = {}
    for name, content in edits:
        repo.commit("main", f"edit {name}", "user", {name: content})
        expected[name] = content
    assert repo.files_at("main") == expected


@given(file_edits)
def test_git_log_length_matches_commits(edits):
    repo = GitRepository("r")
    for name, content in edits:
        repo.commit("main", "m", "u", {name: content})
    assert len(repo.log("main")) == len(edits) + 1  # + initial commit


@given(file_edits, file_edits)
def test_fork_isolation(upstream_edits, fork_edits):
    upstream = GitRepository("up")
    for name, content in upstream_edits:
        upstream.commit("main", "m", "u", {name: content})
    snapshot = upstream.files_at("main")
    fork = upstream.fork("fork")
    for name, content in fork_edits:
        fork.commit("main", "m", "f", {name: content})
    assert upstream.files_at("main") == snapshot


@given(file_edits)
def test_fetch_is_idempotent(edits):
    upstream = GitRepository("up")
    for name, content in edits:
        upstream.commit("main", "m", "u", {name: content})
    mirror = GitRepository("mirror")
    h1 = mirror.fetch(upstream, "main", as_branch="x")
    h2 = mirror.fetch(upstream, "main", as_branch="x")
    assert h1 is h2
    assert mirror.files_at("x") == upstream.files_at("main")


@given(file_edits)
def test_commit_shas_unique(edits):
    repo = GitRepository("r")
    for name, content in edits:
        repo.commit("main", "same message", "same author", {name: content})
    shas = [c.sha for c in repo.log("main")]
    assert len(shas) == len(set(shas))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------
def _chain_pipeline_yaml(n_jobs: int, fail_at: int) -> str:
    """n jobs in one stage, each needing the previous; job `fail_at` fails."""
    config = {"stages": ["build"]}
    for i in range(n_jobs):
        job = {"stage": "build", "script": [f"step {i}"]}
        if i > 0:
            job["needs"] = [f"job{i - 1}"]
        config[f"job{i}"] = job
    return yaml.safe_dump(config, sort_keys=False)


@given(st.integers(min_value=1, max_value=10), st.data())
@settings(max_examples=30, deadline=None)
def test_chain_failure_skips_exactly_the_suffix(n_jobs, data):
    fail_at = data.draw(st.integers(min_value=0, max_value=n_jobs - 1))
    pipeline = build_pipeline("main", "sha", _chain_pipeline_yaml(n_jobs, fail_at))

    def execute(job):
        index = int(job.name[3:])
        return index != fail_at, ""

    run_pipeline(pipeline, execute)
    statuses = {j.name: j.status for j in pipeline.jobs}
    for i in range(n_jobs):
        if i < fail_at:
            assert statuses[f"job{i}"] == "success"
        elif i == fail_at:
            assert statuses[f"job{i}"] == "failed"
        else:
            assert statuses[f"job{i}"] == "skipped"
    assert not pipeline.succeeded


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_all_green_chain_succeeds(n_jobs):
    pipeline = build_pipeline("main", "sha", _chain_pipeline_yaml(n_jobs, -1))
    executed = []
    run_pipeline(pipeline, lambda j: (executed.append(j.name) or True, ""))
    assert pipeline.succeeded
    assert executed == [f"job{i}" for i in range(n_jobs)]  # needs order


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                max_size=4, unique=True))
@settings(max_examples=20, deadline=None)
def test_independent_jobs_all_run(names):
    config = {"stages": ["t"]}
    for name in names:
        config[name] = {"stage": "t", "script": ["x"]}
    pipeline = build_pipeline("main", "sha", yaml.safe_dump(config))
    run_pipeline(pipeline, lambda j: (True, ""))
    assert all(j.status == "success" for j in pipeline.jobs)
