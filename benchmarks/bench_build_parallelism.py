"""X4 — build-DAG parallelism analysis (extends the §7.2 cache discussion).

Spack builds a DAG; the binary cache is valuable precisely because source
builds are long critical paths.  This bench computes, for the amg2023+caliper
DAG: the serial cost, the critical path (unbounded-parallelism bound), and
makespans at 1/2/4/8 build jobs — then verifies the cache turns all of it
into near-free extracts.
"""

from repro.spack.binary_cache import BinaryCache
from repro.spack.concretizer import Concretizer
from repro.spack.graph import critical_path, graph_stats, parallel_makespan
from repro.spack.installer import Installer
from repro.spack.store import Store


def test_build_parallelism(benchmark, artifact):
    spec = Concretizer().concretize("amg2023+caliper")

    stats = graph_stats(spec)
    path, cp_seconds = critical_path(spec)
    makespans = {w: parallel_makespan(spec, w) for w in (1, 2, 4, 8)}
    benchmark(parallel_makespan, spec, 4)

    # sanity: serial == total, parallel bounded below by critical path
    assert makespans[1] == stats["total_build_seconds"]
    assert all(m >= cp_seconds - 1e-9 for m in makespans.values())
    assert makespans[8] <= makespans[1]

    lines = [
        f"amg2023+caliper build DAG: {stats['nodes']:.0f} packages, "
        f"{stats['edges']:.0f} edges",
        f"critical path: {' -> '.join(path)} = {cp_seconds:.0f}s",
        f"max parallel speedup: {stats['max_parallel_speedup']:.2f}x",
        "",
    ]
    for workers, makespan in makespans.items():
        lines.append(f"  {workers} build jobs: {makespan:8.0f}s "
                     f"({makespans[1] / makespan:.2f}x)")
    artifact("build_parallelism", "\n".join(lines))


def test_cache_beats_any_parallelism(tmp_path_factory):
    """Even unlimited build parallelism cannot beat a warm binary cache."""
    spec = Concretizer().concretize("amg2023+caliper")
    _, cp_seconds = critical_path(spec)

    cache = BinaryCache()
    Installer(Store(tmp_path_factory.mktemp("a")), binary_cache=cache).install(spec)
    warm = sum(
        r.seconds
        for r in Installer(Store(tmp_path_factory.mktemp("b")),
                           binary_cache=cache).install(spec)
    )
    assert warm < cp_seconds
