"""X5 — §7.2's Spack build pipeline + rolling binary cache, end to end.

``spack ci generate`` turns a concretized environment into a GitLab
pipeline (one job per package, needs-wired along the dependency DAG); CI
runners build and push to the cache.  We run the loop twice:

* **cold**: the first pipeline builds every node of amg2023+caliper and
  publishes binaries;
* **warm**: the regenerated pipeline prunes everything ("no specs to
  rebuild") — the rolling-cache property that "focuses the time to build
  applications on only the dependencies with special requirements".
"""

from repro.ci.gitlab import GitLab, Runner
from repro.ci.pipeline import parse_ci_config
from repro.spack.binary_cache import BinaryCache
from repro.spack.ci_pipeline import generate_ci_pipeline, job_name_for
from repro.spack.concretizer import Concretizer
from repro.spack.environment import Environment
from repro.spack.installer import Installer
from repro.spack.store import Store


def test_spack_ci_cold_and_warm(benchmark, artifact, tmp_path_factory):
    env = Environment.create(tmp_path_factory.mktemp("env"),
                             specs=["amg2023+caliper"])
    env.concretize(Concretizer())
    root = env.concrete_roots[0]
    cache = BinaryCache()
    store = Store(tmp_path_factory.mktemp("store"))
    installer = Installer(store, binary_cache=cache)
    by_job = {job_name_for(n): n for n in root.traverse() if not n.external}

    def ci_runner_body(job):
        if job.name == "no-specs-to-rebuild":
            return True, "nothing to do"
        results = installer.install(by_job[job.name])
        return True, f"{results[-1].action}"

    lab = GitLab()
    lab.register_runner(Runner("builder", [], ci_runner_body))
    project = lab.create_project("spack-ci")

    # cold pipeline
    cold_yaml = benchmark(generate_ci_pipeline, env, None, cache)
    project.git.commit("main", "cold", "bot", {".gitlab-ci.yml": cold_yaml})
    cold = project.trigger_pipeline("main")
    assert cold.succeeded
    cold_jobs = [j for j in cold.jobs if j.status == "success"]
    assert len(cold_jobs) == len(by_job)
    assert cache.stats.pushes == len(by_job)

    # warm pipeline: everything pruned
    warm_yaml = generate_ci_pipeline(env, binary_cache=cache)
    parsed = parse_ci_config(warm_yaml)
    assert [j.name for j in parsed["jobs"]] == ["no-specs-to-rebuild"]
    project.git.commit("main", "warm", "bot", {".gitlab-ci.yml": warm_yaml})
    warm = project.trigger_pipeline("main")
    assert warm.succeeded

    artifact("spack_ci_pipeline", "\n".join([
        f"cold pipeline: {len(cold_jobs)} build jobs "
        f"(pushed {cache.stats.pushes} binaries)",
        "cold job DAG:",
        *[f"  {j.name} needs={j.needs}" for j in cold.jobs],
        "",
        f"warm pipeline: {[j.name for j in warm.jobs]} "
        f"(rolling cache pruned all rebuilds)",
    ]))


def test_incremental_rebuild_after_one_change(tmp_path_factory):
    """Changing one leaf package rebuilds only the affected subtree."""
    conc = Concretizer()
    env = Environment.create(tmp_path_factory.mktemp("env"),
                             specs=["amg2023+caliper"])
    env.concretize(conc)
    cache = BinaryCache()
    store = Store(tmp_path_factory.mktemp("store"))
    Installer(store, binary_cache=cache).install(env.concrete_roots[0])

    # "Change" adiak by requesting a different version: its hash — and its
    # dependents' hashes — change, so exactly that subtree rebuilds.
    env2 = Environment.create(tmp_path_factory.mktemp("env2"),
                              specs=["amg2023+caliper ^adiak@0.2.2"])
    env2.concretize(conc)
    parsed = parse_ci_config(generate_ci_pipeline(env2, binary_cache=cache))
    names = {j.name.rsplit("-", 1)[0] for j in parsed["jobs"]}
    # adiak changed; caliper and amg2023 depend on it (directly or not)
    assert "adiak" in names
    assert "amg2023" in names
    assert "caliper" in names
    # cmake, mpi, hypre, blas are unchanged and stay cached
    assert "cmake" not in names
    assert "hypre" not in names
