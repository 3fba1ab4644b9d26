"""Tests for dependency-graph analysis (repro.spack.graph)."""

import pytest

from repro.core.runtime import SpackRuntime
from repro.spack.concretizer import Concretizer
from repro.spack.graph import critical_path, graph_stats, parallel_makespan
from repro.spack.parser import parse_spec
from repro.spack.spec import Spec, SpecError
from repro.systems.registry import get_system


@pytest.fixture(scope="module")
def amg_spec():
    return Concretizer().concretize("amg2023+caliper")


def _concrete(name, **deps):
    """A hand-built concrete node with the given dependencies."""
    spec = Spec(name)
    spec.dependencies = dict(deps)
    spec.mark_concrete()
    return spec


#: every analysis, each of which must reject a spec it cannot schedule
ANALYSES = [critical_path, graph_stats,
            lambda spec: parallel_makespan(spec, 2)]


class TestGraph:
    def test_abstract_spec_rejected(self):
        for analyze in ANALYSES:
            with pytest.raises(SpecError, match="concrete"):
                analyze(parse_spec("amg2023"))

    def test_cycle_rejected(self):
        a, b = _concrete("adiak"), _concrete("caliper")
        a.dependencies["caliper"] = b
        b.dependencies["adiak"] = a
        for analyze in ANALYSES:
            with pytest.raises(SpecError, match="cycle"):
                analyze(_concrete("amg2023", caliper=b))

    def test_self_loop_rejected(self):
        a = _concrete("adiak")
        a.dependencies["adiak"] = a
        with pytest.raises(SpecError, match="cycle"):
            critical_path(a)

    def test_critical_path_ends_at_root(self, amg_spec):
        path, seconds = critical_path(amg_spec)
        assert path[-1] == "amg2023"
        assert seconds > 0

    def test_critical_path_is_bound_on_makespan(self, amg_spec):
        _, cp = critical_path(amg_spec)
        for workers in (1, 2, 4, 16):
            assert parallel_makespan(amg_spec, workers) >= cp - 1e-9

    def test_serial_makespan_is_total_cost(self, amg_spec):
        stats = graph_stats(amg_spec)
        serial = parallel_makespan(amg_spec, 1)
        assert serial == pytest.approx(stats["total_build_seconds"])

    def test_parallelism_monotone(self, amg_spec):
        times = [parallel_makespan(amg_spec, w) for w in (1, 2, 4, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))

    def test_invalid_workers(self, amg_spec):
        with pytest.raises(ValueError):
            parallel_makespan(amg_spec, 0)

    def test_stats_fields(self, amg_spec):
        stats = graph_stats(amg_spec)
        assert stats["nodes"] >= 5
        assert stats["max_parallel_speedup"] >= 1.0

    def test_external_costs_zero(self):
        from repro.spack.compiler import Compiler, CompilerRegistry
        from repro.spack.config import ConfigScope, Configuration
        from repro.spack.spec import CompilerSpec
        from repro.spack.version import Version

        config = Configuration(ConfigScope("s", {"packages": {
            "mvapich2": {"externals": [
                {"spec": "mvapich2@2.3.7", "prefix": "/opt/mpi"}],
                "buildable": False},
        }}))
        conc = Concretizer(
            config=config,
            compilers=CompilerRegistry(
                [Compiler(CompilerSpec("gcc", Version("12.1.1")))]),
        )
        spec = conc.concretize("saxpy")
        assert spec["mvapich2"].external
        # saxpy (8 s) and cmake (180 s) are all that is built
        assert graph_stats(spec)["total_build_seconds"] == 188.0
        assert critical_path(spec) == (["cmake", "saxpy"], 188.0)

    def test_last_maximal_dependency_wins_ties(self):
        """Equal-cost dependencies: the critical path goes through the
        last one in the spec's dependency order."""
        first, second = _concrete("zz"), _concrete("aa")
        assert critical_path(_concrete("saxpy", zz=first, aa=second)) == (
            ["aa", "saxpy"], 38.0)
        assert critical_path(_concrete("saxpy", aa=second, zz=first)) == (
            ["zz", "saxpy"], 38.0)


class TestPinnedValues:
    """Literal values for fixed concrete specs, equal to what the earlier
    DiGraph-based implementation computed."""

    def test_amg2023_caliper(self, amg_spec):
        assert graph_stats(amg_spec) == {
            "nodes": 7,
            "edges": 11,
            "total_build_seconds": 1195.0,
            "critical_path_seconds": 675.0,
            "max_parallel_speedup": 1195.0 / 675.0,
        }
        assert critical_path(amg_spec) == (
            ["mvapich2", "hypre", "amg2023"], 675.0)
        assert [parallel_makespan(amg_spec, w) for w in (1, 2, 3, 4, 8)] == [
            1195.0, 675.0, 675.0, 675.0, 675.0]

    @pytest.mark.parametrize("system,package,path,nodes,edges,seconds", [
        ("cts1", "saxpy", ["cmake", "saxpy"], 3, 2, 188.0),
        ("ats2", "saxpy", ["cmake", "saxpy"], 3, 2, 188.0),
        ("cts1", "osu-micro-benchmarks",
         ["mvapich2", "osu-micro-benchmarks"], 2, 1, 40.0),
        ("ats2", "osu-micro-benchmarks",
         ["spectrum-mpi", "osu-micro-benchmarks"], 2, 1, 40.0),
    ])
    def test_system_specs(self, tmp_path, system, package, path, nodes,
                          edges, seconds):
        """The system's MPI is an external and costs nothing; as osu's
        only dependency it still heads the critical path."""
        runtime = SpackRuntime(get_system(system), tmp_path)
        spec = runtime.concretize_together([package])[0]
        assert graph_stats(spec) == {
            "nodes": nodes,
            "edges": edges,
            "total_build_seconds": seconds,
            "critical_path_seconds": seconds,
            "max_parallel_speedup": 1.0,
        }
        assert critical_path(spec) == (path, seconds)
        assert [parallel_makespan(spec, w) for w in (1, 2, 3, 4, 8)] == [
            seconds] * 5
