"""Ablations of the design choices DESIGN.md §6 calls out.

Each ablation toggles one mechanism and measures the consequence:

* concretizer ``unify: true`` vs ``false`` — store size (duplicate builds);
* scheduler FIFO vs EASY-backfill — campaign makespan;
* AMG smoother Jacobi vs Gauss–Seidel, V- vs W-cycle — iteration counts;
* binary cache hit vs miss — simulated install time;
* matrix crossed vs zipped — experiment-count growth.
"""

import numpy as np

from repro.benchmarks.amg import amg_solve, build_hierarchy, poisson_2d, run_amg
from repro.ramble.matrices import expand_matrix
from repro.spack.binary_cache import BinaryCache
from repro.spack.concretizer import Concretizer
from repro.spack.environment import Environment
from repro.spack.installer import Installer
from repro.spack.store import Store
from repro.systems.registry import get_system
from repro.systems.scheduler import BatchScheduler, Job


def test_ablation_unify(artifact, tmp_path):
    """unify:false lets roots diverge → more installs for the same request."""
    concretizer = Concretizer()
    specs = ["saxpy ^cmake@3.23.1", "amg2023 ^cmake@3.26.3"]

    unified_error = None
    try:
        concretizer.concretize_together(specs, unify=True)
    except Exception as e:
        unified_error = e
    assert unified_error is not None, "conflicting roots must fail under unify"

    roots = concretizer.concretize_together(specs, unify=False)
    store = Store(tmp_path / "store")
    installer = Installer(store)
    for root in roots:
        installer.install(root)
    cmakes = [r for r in store.all_records() if r.spec.name == "cmake"]
    assert len(cmakes) == 2  # duplicate cmake builds — the unify cost

    artifact("ablation_unify", "\n".join([
        "unify: true  -> conflicting ^cmake constraints rejected "
        f"({type(unified_error).__name__})",
        f"unify: false -> both roots solved; store holds {len(cmakes)} cmake "
        f"installs (duplicate work)",
    ]))


def test_ablation_scheduler_policy(benchmark, artifact):
    """Backfill reduces campaign makespan on a mixed job stream."""
    system = get_system("cts1")
    jobs = []
    rng = np.random.default_rng(7)
    for i in range(40):
        nodes = int(rng.choice([1, 2, 4, 64, 512]))
        duration = float(rng.uniform(60, 1800))
        jobs.append(("j%d" % i, nodes, duration))

    def makespan(policy):
        sched = BatchScheduler(system, policy=policy)
        for name, nodes, duration in jobs:
            sched.submit(Job(name, nodes=nodes, duration=duration))
        return sched.run_until_complete(), sched.stats()

    fifo, fifo_stats = makespan("fifo")
    backfill, backfill_stats = benchmark(lambda: makespan("backfill"))

    assert backfill <= fifo
    artifact("ablation_scheduler", "\n".join([
        f"fifo     makespan={fifo:10.1f}s avg_wait={fifo_stats['avg_wait']:9.1f}s",
        f"backfill makespan={backfill:10.1f}s avg_wait={backfill_stats['avg_wait']:9.1f}s",
        f"speedup: {fifo / backfill:.3f}x",
    ]))


def test_ablation_amg_smoother_and_cycle(artifact):
    a = poisson_2d(32)
    h = build_hierarchy(a)
    b = np.ones(a.shape[0])

    iters = {}
    for smoother in ("jacobi", "gauss_seidel"):
        for gamma, cycle_name in ((1, "V"), (2, "W")):
            _, stats = amg_solve(h, b, smoother=smoother, gamma=gamma)
            assert stats.converged
            iters[(smoother, cycle_name)] = stats.iterations

    # Gauss–Seidel smooths better than Jacobi; W-cycles never worse than V.
    assert iters[("gauss_seidel", "V")] <= iters[("jacobi", "V")]
    assert iters[("jacobi", "W")] <= iters[("jacobi", "V")]
    # The kernel is deterministic: pin the counts EXPERIMENTS.md records, so
    # any drift in its numerics fails here rather than only in a campaign.
    assert iters == {("gauss_seidel", "V"): 18, ("gauss_seidel", "W"): 12,
                     ("jacobi", "V"): 39, ("jacobi", "W"): 26}

    # The configuration the amg2023 experiments run (problem 1, n=10; the
    # numerics do not depend on the rank count).
    campaign = run_amg(problem=1, n=10, n_ranks=8)
    assert campaign.stats.converged
    assert campaign.stats.iterations == 13
    assert campaign.num_levels == 4
    assert round(campaign.operator_complexity, 3) == 3.425

    artifact("ablation_amg", "\n".join(
        [f"{sm:<13} {cy}-cycle: {n:3d} iterations"
         for (sm, cy), n in sorted(iters.items())]
    ))


def test_ablation_binary_cache(benchmark, artifact, tmp_path_factory):
    spec = Concretizer().concretize("amg2023+caliper")
    cache = BinaryCache()

    def install(use_cache):
        store = Store(tmp_path_factory.mktemp("store"))
        installer = Installer(store, binary_cache=cache, use_cache=use_cache)
        return sum(r.seconds for r in installer.install(spec))

    cold = install(use_cache=False)   # populates the cache via pushes
    warm = benchmark.pedantic(lambda: install(use_cache=True),
                              rounds=3, iterations=1)
    assert warm < cold / 5, (cold, warm)
    artifact("ablation_binary_cache", "\n".join([
        f"source build (cache miss): {cold:9.1f} simulated s",
        f"cache install (hit):       {warm:9.1f} simulated s",
        f"speedup: {cold / warm:.1f}x (the §7.2 rolling-cache payoff)",
    ]))


def test_ablation_matrix_vs_zip(artifact):
    variables = {"a": ["1", "2", "3", "4"], "b": ["1", "2", "3", "4"]}
    crossed = expand_matrix(variables, [["a", "b"]])
    zipped = expand_matrix(variables, [])
    assert len(crossed) == 16
    assert len(zipped) == 4
    artifact("ablation_matrix_zip",
             f"crossed (matrices): {len(crossed)} experiments\n"
             f"zipped  (default) : {len(zipped)} experiments\n"
             f"growth: O(prod(len)) vs O(max(len))")
