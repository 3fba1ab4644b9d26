#!/usr/bin/env python3
"""The Figure 6 automation loop, end to end.

A contributor without an LLNL account forks Benchpark on GitHub and opens a
pull request adding an experiment.  The example walks the paper's §3.3
security workflow:

1. the PR sits at *pending* until a site administrator reviews it;
2. on approval, **Hubcast** mirrors the branch to the site GitLab;
3. GitLab CI runs the pipeline through **Jacamar**, which executes the jobs
   as the *approver* (the contributor has no site account — §3.3.2);
4. the CI job actually builds (mini-Spack, publishing to the S3-backed
   binary cache) and runs the benchmark, recording FOMs in the metrics DB;
5. the pipeline status streams back to GitHub as a native check, and the
   PR becomes mergeable.

Usage:  python examples/ci_collaboration.py
"""

import tempfile
from pathlib import Path

from repro.ci.github import GitHub
from repro.ci.gitlab import GitLab, Runner
from repro.ci.hubcast import Hubcast, SecurityCriteria
from repro.ci.jacamar import JacamarExecutor, SiteAccounts
from repro.ci.metricsdb import MetricsDatabase
from repro.ci.objectstore import ObjectStore
from repro.ci.pipeline import CiJob
from repro.core.driver import benchpark_setup
from repro.spack.binary_cache import BinaryCache

CI_YAML = """
stages: [bench]
saxpy-cts1:
  stage: bench
  tags: [cts1]
  script: ["benchpark setup saxpy/openmp cts1 $WORKSPACE --full"]
"""


def main() -> int:
    # -- infrastructure ---------------------------------------------------
    github = GitHub()
    canonical = github.create_repo("llnl", "benchpark")
    canonical.git.commit("main", "seed benchpark", "olga", {
        ".gitlab-ci.yml": CI_YAML,
        "README.md": "Benchpark",
    })
    gitlab = GitLab("llnl-gitlab")
    s3 = ObjectStore()
    cache = BinaryCache(backend=s3.create_bucket("spack-binary-cache"))
    metrics = MetricsDatabase()
    site = SiteAccounts("LLNL", users={"site_admin", "olga"})

    tmp = tempfile.mkdtemp()

    def run_benchmark_job(job: CiJob, user: str):
        """The CI job body: a real Benchpark run on the simulated system."""
        workspace = Path(tmp) / f"ws-{job.name}"
        session = benchpark_setup("saxpy/openmp", "cts1", workspace)
        session.setup(binary_cache=cache)
        session.run()
        results = session.analyze()
        n = metrics.ingest_analysis("cts1", results)
        ok = all(e["status"] == "SUCCESS" for e in results["experiments"])
        return ok, (f"ran as {user}: {len(results['experiments'])} experiments, "
                    f"{n} FOMs recorded")

    jacamar = JacamarExecutor(site, run_benchmark_job)
    hubcast = Hubcast(canonical, gitlab,
                      SecurityCriteria(trusted_users={"olga"}))

    # -- the collaboration story --------------------------------------------
    print("1. contributor (no LLNL account) forks and opens a PR")
    fork = canonical.fork("grad_student")
    fork.git.create_branch("add-experiment")
    fork.git.commit("add-experiment", "add saxpy strong-scaling experiment",
                    "grad_student",
                    {"experiments/saxpy/openmp/ramble.yaml": "# new experiment"})
    pr = canonical.open_pull_request(fork, "add-experiment",
                                     "Add saxpy strong-scaling", "grad_student")
    print(f"   PR #{pr.number} status: {pr.statuses['hubcast/gitlab-ci'].state}")

    print("\n2. Hubcast refuses to mirror before admin review")
    assert hubcast.process_pr(pr) is None
    print(f"   {hubcast.audit_log[-1]}")

    print("\n3. site administrator reviews and approves")
    pr.approve("site_admin", is_admin=True, comment="experiment looks safe")
    gitlab.runners.clear()
    gitlab.register_runner(Runner(
        "cts1-runner", ["cts1"],
        jacamar.bound_runner(pr.author, approved_by=pr.admin_approver),
    ))

    print("\n4. Hubcast mirrors; GitLab CI runs via Jacamar")
    pipeline = hubcast.process_pr(pr)
    assert pipeline is not None
    for job in pipeline.jobs:
        print(f"   job {job.name}: {job.status} "
              f"(ran as {job.run_as_user!r} on runner {job.runner!r})")
        print(f"     log: {job.log}")
    print(f"   jacamar audit: {jacamar.audit_log[-1]}")

    print("\n5. status streams back to GitHub; PR becomes mergeable")
    print(f"   PR #{pr.number} check: {pr.statuses['hubcast/gitlab-ci'].state}")
    canonical.merge(pr.number)
    print(f"   PR #{pr.number} state: {pr.state}")

    print(f"\nbinary cache now holds {len(s3.bucket('spack-binary-cache').list())} "
          f"package binaries; metrics DB holds {len(metrics)} FOM records")
    usage = metrics.benchmark_usage()
    print(f"benchmark usage metrics (§5): {usage}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
