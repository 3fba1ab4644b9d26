"""F6 — Figure 6: the Benchpark automation workflow.

    Users → GitHub repo → (Hubcast bot) → GitLab repo → CI builders →
    S3 cache → benchmark runners → metrics database

Replays the full loop: a fork PR, admin approval, Hubcast mirroring, a
GitLab pipeline whose build job publishes to the S3-backed binary cache and
whose bench job runs saxpy and records FOMs in the metrics database, with
status streamed back to GitHub.  Benchmarks one full loop iteration.
"""

from pathlib import Path

from repro.ci.github import GitHub
from repro.ci.gitlab import GitLab, Runner
from repro.ci.hubcast import Hubcast, SecurityCriteria
from repro.ci.jacamar import JacamarExecutor, SiteAccounts
from repro.ci.metricsdb import MetricsDatabase
from repro.ci.objectstore import ObjectStore
from repro.core.driver import benchpark_setup
from repro.spack.binary_cache import BinaryCache

CI_YAML = """
stages: [build, bench]
build-saxpy:
  stage: build
  tags: [cts1]
  script: ["spack install saxpy"]
bench-saxpy:
  stage: bench
  tags: [cts1]
  script: ["ramble on"]
"""


def _one_loop(tmp: Path):
    github = GitHub()
    canonical = github.create_repo("llnl", "benchpark")
    canonical.git.commit("main", "seed", "olga",
                         {".gitlab-ci.yml": CI_YAML})
    gitlab = GitLab()
    s3 = ObjectStore()
    cache = BinaryCache(backend=s3.create_bucket("cache"))
    metrics = MetricsDatabase()
    site = SiteAccounts("LLNL", users={"site_admin"})

    state = {"ws": 0}

    def job_body(job, user):
        if job.name.startswith("build"):
            session = benchpark_setup("saxpy/openmp", "cts1",
                                      tmp / f"ws{state['ws']}")
            state["ws"] += 1
            session.setup(binary_cache=cache)
            return True, f"built as {user}, cache pushes={cache.stats.pushes}"
        session = benchpark_setup("saxpy/openmp", "cts1",
                                  tmp / f"ws{state['ws']}")
        state["ws"] += 1
        results = session.run_all(binary_cache=cache)
        n = metrics.ingest_analysis("cts1", results)
        ok = all(e["status"] == "SUCCESS" for e in results["experiments"])
        return ok, f"ran as {user}, {n} FOMs recorded"

    jacamar = JacamarExecutor(site, job_body)
    hubcast = Hubcast(canonical, gitlab, SecurityCriteria())

    fork = canonical.fork("contributor")
    fork.git.create_branch("feature")
    fork.git.commit("feature", "tweak", "contributor",
                    {"experiments/saxpy/openmp/ramble.yaml": "changed"})
    pr = canonical.open_pull_request(fork, "feature", "tweak", "contributor")
    pr.approve("site_admin", is_admin=True)
    gitlab.register_runner(Runner(
        "cts1", ["cts1"],
        jacamar.bound_runner(pr.author, approved_by=pr.admin_approver),
    ))
    pipeline = hubcast.process_pr(pr)
    return pr, pipeline, cache, metrics, jacamar, hubcast


def test_figure6_automation_loop(benchmark, artifact, tmp_path_factory):
    pr, pipeline, cache, metrics, jacamar, hubcast = benchmark.pedantic(
        lambda: _one_loop(tmp_path_factory.mktemp("loop")),
        rounds=2, iterations=1,
    )

    # Every arrow of Figure 6 fired:
    assert pipeline is not None and pipeline.succeeded          # CI ran
    assert cache.stats.pushes > 0                               # S3 cache fed
    assert cache.stats.hits > 0                                 # ...and reused
    assert len(metrics) > 0                                     # metrics DB fed
    assert pr.statuses["hubcast/gitlab-ci"].state == "success"  # status back
    assert all(e["ran_as"] == "site_admin" for e in jacamar.audit_log)

    lines = ["Figure 6 automation loop trace:", ""]
    lines += [f"  {entry}" for entry in hubcast.audit_log]
    lines.append("")
    lines += [f"  jacamar: job={e['job']} triggered_by={e['triggered_by']} "
              f"ran_as={e['ran_as']} outcome={e['outcome']}"
              for e in jacamar.audit_log]
    lines.append("")
    lines.append(f"  cache: {cache.stats!r}")
    lines.append(f"  metrics DB records: {len(metrics)}")
    artifact("fig6_automation_loop", "\n".join(lines))
