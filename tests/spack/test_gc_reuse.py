"""Tests for store garbage collection and concretizer reuse."""

import pytest

from repro.spack.concretizer import Concretizer
from repro.spack.installer import Installer
from repro.spack.parser import parse_spec
from repro.spack.store import Store
from repro.spack.version import Version


@pytest.fixture
def concretizer():
    return Concretizer()


class TestGc:
    def test_gc_keeps_explicit_and_deps(self, tmp_path, concretizer):
        store = Store(tmp_path / "s")
        spec = concretizer.concretize("saxpy")
        Installer(store).install(spec, explicit=True)
        removed = store.gc()
        assert removed == []
        assert store.is_installed(spec)

    def test_gc_removes_orphans(self, tmp_path, concretizer):
        store = Store(tmp_path / "s")
        installer = Installer(store)
        keep = concretizer.concretize("saxpy")
        installer.install(keep, explicit=True)
        orphan = concretizer.concretize("stream")
        installer.install(orphan, explicit=False)
        removed = {s.name for s in store.gc()}
        assert "stream" in removed
        assert store.is_installed(keep)
        assert not store.is_installed(orphan)

    def test_gc_removes_orphan_chains(self, tmp_path, concretizer):
        store = Store(tmp_path / "s")
        installer = Installer(store)
        orphan = concretizer.concretize("amg2023")  # deep DAG
        installer.install(orphan, explicit=False)
        removed = store.gc()
        assert len(store) == 0
        assert {s.name for s in removed} == {
            n.name for n in orphan.traverse()
        }

    def test_gc_keeps_shared_deps(self, tmp_path, concretizer):
        store = Store(tmp_path / "s")
        installer = Installer(store)
        keep = concretizer.concretize("saxpy")       # uses cmake + mpi
        installer.install(keep, explicit=True)
        orphan = concretizer.concretize("stream")    # orphan root
        installer.install(orphan, explicit=False)
        store.gc()
        assert store.is_installed(keep["cmake"])


class TestReuse:
    def test_reuse_adopts_installed_spec(self, tmp_path):
        store = Store(tmp_path / "s")
        fresh = Concretizer()
        older = fresh.concretize("cmake@3.23.1")
        Installer(store).install(older)

        reuser = Concretizer(reuse_store=store)
        solved = reuser.concretize("cmake")
        # Without reuse this would pick 3.27.4; with reuse, the installed
        # 3.23.1 satisfies "cmake" and is adopted.
        assert solved.version == Version("3.23.1")
        assert solved.dag_hash() == older.dag_hash()

    def test_reuse_respects_constraints(self, tmp_path):
        store = Store(tmp_path / "s")
        fresh = Concretizer()
        Installer(store).install(fresh.concretize("cmake@3.23.1"))

        reuser = Concretizer(reuse_store=store)
        solved = reuser.concretize("cmake@3.26:")
        # Installed 3.23.1 violates @3.26:, so the solve is fresh and picks
        # the highest satisfying release.
        assert solved.version == Version("3.27.4")

    def test_reuse_shares_dependencies(self, tmp_path):
        store = Store(tmp_path / "s")
        fresh = Concretizer()
        saxpy = fresh.concretize("saxpy ^cmake@3.23.1")
        Installer(store).install(saxpy)

        reuser = Concretizer(reuse_store=store)
        amg = reuser.concretize("amg2023")
        # amg's cmake dep is adopted from the store (3.23.1, not 3.27.4)
        assert amg["cmake"].version == Version("3.23.1")

    def test_reuse_reduces_rebuilds(self, tmp_path):
        """The ablation claim: reuse avoids duplicate builds entirely for
        an already-satisfied request."""
        store = Store(tmp_path / "s")
        fresh = Concretizer()
        spec = fresh.concretize("amg2023+caliper")
        Installer(store).install(spec)

        reuser = Concretizer(reuse_store=store)
        solved = reuser.concretize("amg2023+caliper")
        results = Installer(store).install(solved)
        assert all(r.action in ("already", "external") for r in results)

    def test_no_reuse_without_store(self):
        solved = Concretizer().concretize("cmake")
        assert solved.version == Version("3.27.4")
