"""DAG installation: a post-order install completes the store and is a
no-op the second time; the DAG's critical path, read off the same spec by
:mod:`repro.spack.graph`, is below the serial sum of build times."""

import pytest

from repro.spack.concretizer import Concretizer
from repro.spack.graph import critical_path, graph_stats
from repro.spack.installer import Installer
from repro.spack.store import Store


@pytest.fixture()
def amg_root():
    return Concretizer().concretize("amg2023+caliper")


class TestParallelInstall:
    def test_critical_path_not_serial_sum(self, amg_root):
        stats = graph_stats(amg_root)
        assert stats["nodes"] > 1
        assert critical_path(amg_root)[1] == stats["critical_path_seconds"]
        assert stats["critical_path_seconds"] < stats["total_build_seconds"]
        assert stats["max_parallel_speedup"] > 1.0

    def test_store_complete_after_parallel_install(self, amg_root, tmp_path):
        store = Store(tmp_path / "store")
        Installer(store).install(amg_root)
        for node in amg_root.traverse():
            assert store.is_installed(node)

    def test_reinstall_is_noop(self, amg_root, tmp_path):
        installer = Installer(Store(tmp_path / "store"))
        first = installer.install(amg_root)
        again = installer.install(amg_root)
        assert [r.spec.name for r in again] == [r.spec.name for r in first]
        assert all(r.action == "already" for r in again)
        assert sum(r.seconds for r in again) == 0.0
