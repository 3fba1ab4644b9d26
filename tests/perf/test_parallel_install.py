"""DAG installation: topological levels and critical-path accounting on the
simulated clock."""

import pytest

from repro.spack import Concretizer, Installer, Store
from repro.spack.installer import topological_levels


@pytest.fixture()
def amg_root():
    return Concretizer().concretize("amg2023+caliper")


class TestTopologicalLevels:
    def test_levels_respect_dependencies(self, amg_root):
        levels = topological_levels(amg_root)
        level_of = {
            node.name: i for i, level in enumerate(levels) for node in level
        }
        for node in amg_root.traverse():
            for dep in node.dependencies.values():
                assert level_of[dep.name] < level_of[node.name]

    def test_levels_cover_all_nodes_once(self, amg_root):
        levels = topological_levels(amg_root)
        names = [n.name for level in levels for n in level]
        assert sorted(names) == sorted(n.name for n in amg_root.traverse())
        assert len(names) == len(set(names))


class TestParallelInstall:
    def test_critical_path_not_serial_sum(self, amg_root, tmp_path):
        installer = Installer(Store(tmp_path / "store"))
        installer.install(amg_root)
        stats = installer.last_install_stats
        assert stats["nodes"] > 1
        assert stats["critical_path_seconds"] < stats["serial_seconds"]
        assert stats["parallel_speedup"] > 1.0

    def test_sim_clock_charges_from_slowest_dependency(self, amg_root, tmp_path):
        installer = Installer(Store(tmp_path / "store"))
        results = installer.install(amg_root)
        by_name = {r.spec.name: r for r in results}
        for r in results:
            assert r.sim_end == pytest.approx(r.sim_start + r.seconds)
            for dep in r.spec.dependencies.values():
                assert by_name[dep.name].sim_end <= r.sim_start + 1e-9
        makespan = max(r.sim_end for r in results)
        assert makespan == pytest.approx(
            installer.last_install_stats["critical_path_seconds"]
        )

    def test_store_complete_after_parallel_install(self, amg_root, tmp_path):
        store = Store(tmp_path / "store")
        Installer(store).install(amg_root)
        for node in amg_root.traverse():
            assert store.is_installed(node)

    def test_reinstall_is_noop(self, amg_root, tmp_path):
        installer = Installer(Store(tmp_path / "store"))
        installer.install(amg_root)
        again = installer.install(amg_root)
        assert all(r.action == "already" for r in again)
        assert installer.last_install_stats["critical_path_seconds"] == 0.0
