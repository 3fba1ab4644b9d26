"""X2 — §7.1/§7.2: on-premise vs cloud benchmarking.

The paper's collaboration story: a microbenchmark behaved differently
between an on-prem machine and "cloud instances of similar architecture",
traced (after days) to a math-library bug keyed on a hardware feature
missing in the cloud.  §7.2 adds that cloud resources are "another
platform" for portability testing.

This bench treats cloud-c6i exactly like a fourth system: the same saxpy
experiment spec runs on cts1 and cloud-c6i, the archspec feature diff that
caused the paper's anecdote is computed, and the noise model (multi-tenant
jitter) shows up as higher run-to-run variance on the cloud system.
"""

import statistics

from repro.archspec.database import get_target
from repro.ci.metricsdb import MetricsDatabase
from repro.core.driver import benchpark_setup
from repro.systems.executor import SystemExecutor
from repro.systems.registry import get_system

PAIR = ("cts1", "cloud-c6i")


def _run_pair(tmp_root):
    db = MetricsDatabase()
    for system in PAIR:
        session = benchpark_setup("saxpy/openmp", system, tmp_root / system)
        results = session.run_all()
        db.ingest_analysis(system, results)
    return db


def test_same_spec_runs_on_prem_and_cloud(benchmark, artifact, tmp_path_factory):
    db = benchmark.pedantic(
        lambda: _run_pair(tmp_path_factory.mktemp("pair")),
        rounds=1, iterations=1,
    )
    for system in PAIR:
        recs = db.query(benchmark="saxpy", system=system, fom_name="bandwidth")
        assert len(recs) == 8, f"{system}: expected the 8 Figure-10 experiments"

    onprem = get_target(get_system("cts1").cpu_target)
    cloud = get_target(get_system("cloud-c6i").cpu_target)
    cloud_only = sorted(cloud.features - onprem.features)
    artifact("cloud_onprem_divergence", "\n".join([
        "§7.1 on-prem vs cloud comparison (saxpy, identical spec):",
        "",
        f"cts1 target      : {onprem.name} ({onprem.vendor})",
        f"cloud-c6i target : {cloud.name} ({cloud.vendor})",
        f"features only in cloud: {', '.join(cloud_only)}",
        f"binary compatibility (cloud >= onprem): {cloud >= onprem}",
        "",
        "bandwidth records per system: "
        + str({s: len(db.query(benchmark='saxpy', system=s,
                               fom_name='bandwidth')) for s in PAIR}),
    ]))

    # The paper's root-cause class exists: a non-empty feature diff between
    # "similar architecture" machines.
    assert cloud_only, "feature diff must be non-empty for the §7.1 scenario"


def test_cloud_noise_exceeds_onprem():
    """Multi-tenant jitter: the cloud system's deterministic noise envelope
    is wider than the on-prem system's."""
    cts1, cloud = get_system("cts1"), get_system("cloud-c6i")
    assert cloud.noise > cts1.noise

    def jitter_spread(system):
        ex = SystemExecutor(system)
        samples = [ex._noise(f"exp{i}") for i in range(64)]
        return statistics.pstdev(samples)

    assert jitter_spread(cloud) > jitter_spread(cts1)


def test_feature_keyed_library_reproduction():
    """Reproduce the anecdote's mechanism directly: a 'math library' that
    dispatches on a CPU feature crashes where the feature is absent, and
    archspec predicts exactly where."""
    def mathlib_kernel(target_name: str) -> str:
        target = get_target(target_name)
        if "avx512_vnni" in target:
            return "fast-path"        # the on-prem-only code path
        if "avx2" in target:
            return "portable-path"
        raise RuntimeError("illegal instruction")

    # cascadelake (on-prem class) takes the feature path; broadwell (older
    # on-prem) and zen3 (cloud AMD) take the portable path — no crash, but
    # *different code executed from the same binary*, the §7.1 hazard.
    assert mathlib_kernel("cascadelake") == "fast-path"
    assert mathlib_kernel("zen3") == "portable-path"
    assert mathlib_kernel("broadwell") == "portable-path"
    # and archspec answers "which systems run the fast path" without running:
    fast_systems = [n for n in ("cascadelake", "icelake", "zen3", "broadwell")
                    if "avx512_vnni" in get_target(n)]
    assert fast_systems == ["cascadelake", "icelake"]
