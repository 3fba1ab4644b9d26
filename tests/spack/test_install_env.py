"""Tests for the store, installer, binary cache, and environments —
the paper's Figure 2 workflow end to end."""

import json

import pytest

from repro.spack.binary_cache import BinaryCache
from repro.spack.compiler import Compiler, CompilerRegistry
from repro.spack.concretizer import Concretizer
from repro.spack.environment import Environment
from repro.spack.installer import InstallError, Installer
from repro.spack.spec import CompilerSpec
from repro.spack.store import Store, StoreError
from repro.spack.version import Version


@pytest.fixture
def concretizer():
    reg = CompilerRegistry([Compiler(CompilerSpec("gcc", Version("12.1.1")))])
    return Concretizer(compilers=reg)


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "store")


@pytest.fixture
def installer(store):
    return Installer(store)


class TestStore:
    def test_add_and_query(self, store, concretizer):
        spec = concretizer.concretize("cmake@3.23.1")
        store.add(spec)
        assert store.is_installed(spec)
        assert len(store) == 1

    def test_prefix_contains_hash(self, store, concretizer):
        spec = concretizer.concretize("cmake")
        prefix = store.prefix_for(spec)
        assert spec.dag_hash(7) in prefix.name
        assert prefix.name.startswith("cmake-")

    def test_metadata_written(self, store, concretizer):
        spec = concretizer.concretize("cmake")
        rec = store.add(spec, artifacts={"bin/cmake": "x"})
        meta = json.loads((store.root / f"{spec.name}-{spec.version}-{spec.dag_hash(7)}" / ".spack" / "spec.json").read_text())
        assert meta["name"] == "cmake"
        assert (store.root / rec.prefix.split("/")[-1] / "bin" / "cmake").exists()

    def test_persistence(self, tmp_path, concretizer):
        spec = concretizer.concretize("cmake")
        Store(tmp_path / "s").add(spec)
        reopened = Store(tmp_path / "s")
        assert reopened.is_installed(spec)

    def test_query_constraint(self, store, concretizer):
        from repro.spack.parser import parse_spec

        store.add(concretizer.concretize("cmake@3.23.1"))
        store.add(concretizer.concretize("cmake@3.26.3"))
        hits = store.query(parse_spec("cmake@3.26.3"))
        assert len(hits) == 1

    def test_remove(self, store, concretizer):
        spec = concretizer.concretize("cmake")
        store.add(spec)
        store.remove(spec)
        assert not store.is_installed(spec)

    def test_remove_blocked_by_dependent(self, store, installer, concretizer):
        spec = concretizer.concretize("saxpy")
        installer.install(spec)
        mpi = spec["mvapich2"]
        with pytest.raises(StoreError, match="required by"):
            store.remove(mpi)

    def test_remove_missing(self, store, concretizer):
        with pytest.raises(StoreError):
            store.remove(concretizer.concretize("cmake"))


class TestInstaller:
    def test_installs_dag_in_order(self, installer, concretizer):
        spec = concretizer.concretize("saxpy")
        results = installer.install(spec)
        names = [r.spec.name for r in results]
        assert names[-1] == "saxpy"  # root last
        assert set(names) == {n.name for n in spec.traverse()}

    def test_abstract_spec_rejected(self, installer):
        from repro.spack.parser import parse_spec

        with pytest.raises(InstallError, match="concrete"):
            installer.install(parse_spec("saxpy"))

    def test_reinstall_is_noop(self, installer, concretizer):
        spec = concretizer.concretize("cmake")
        installer.install(spec)
        again = installer.install(spec)
        assert all(r.action == "already" for r in again)

    def test_recipe_hooks_run(self, installer, concretizer, store):
        spec = concretizer.concretize("saxpy+openmp")
        installer.install(spec)
        rec = store.get_record(spec)
        log = (store.root / rec.prefix.split("/")[-1] / ".spack" / "build.log").read_text()
        assert "-DUSE_OPENMP=ON" in log

    def test_build_seconds_deterministic(self, tmp_path, concretizer):
        spec = concretizer.concretize("amg2023")
        r1 = Installer(Store(tmp_path / "a")).install(spec)
        r2 = Installer(Store(tmp_path / "b")).install(spec)
        assert [x.seconds for x in r1] == [x.seconds for x in r2]

    def test_gpu_build_costs_more(self, tmp_path, concretizer):
        plain = concretizer.concretize("saxpy~openmp")
        gpu = concretizer.concretize("saxpy~openmp+cuda cuda_arch=70")
        t_plain = [
            r for r in Installer(Store(tmp_path / "a")).install(plain)
            if r.spec.name == "saxpy"
        ][0].seconds
        t_gpu = [
            r for r in Installer(Store(tmp_path / "b")).install(gpu)
            if r.spec.name == "saxpy"
        ][0].seconds
        assert t_gpu > t_plain


class TestBinaryCache:
    def test_cache_roundtrip(self, tmp_path, concretizer):
        cache = BinaryCache()
        spec = concretizer.concretize("saxpy")
        first = Installer(Store(tmp_path / "a"), binary_cache=cache)
        first.install(spec)
        assert cache.stats.pushes > 0

        second = Installer(Store(tmp_path / "b"), binary_cache=cache)
        results = second.install(spec)
        assert all(r.action in ("cache", "external") for r in results)

    def test_cache_is_faster(self, tmp_path, concretizer):
        cache = BinaryCache()
        spec = concretizer.concretize("amg2023")
        src = Installer(Store(tmp_path / "a"), binary_cache=cache).install(spec)
        cached = Installer(Store(tmp_path / "b"), binary_cache=cache).install(spec)
        assert sum(r.seconds for r in cached) < sum(r.seconds for r in src) / 5

    def test_stats_hit_rate(self, tmp_path, concretizer):
        cache = BinaryCache()
        spec = concretizer.concretize("cmake")
        Installer(Store(tmp_path / "a"), binary_cache=cache).install(spec)
        Installer(Store(tmp_path / "b"), binary_cache=cache).install(spec)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5


class TestEnvironment:
    """Figure 2: env create → add → concretize → install."""

    def test_figure2_workflow(self, tmp_path, concretizer, installer):
        env = Environment.create(tmp_path / "env")
        env.add("amg2023+caliper")
        roots = env.concretize(concretizer)
        assert len(roots) == 1
        assert roots[0].concrete
        env.install(installer)
        assert all(v == "installed" for v in env.status(installer).values())

    def test_lockfile_written(self, tmp_path, concretizer):
        env = Environment.create(tmp_path / "env", specs=["saxpy"])
        env.concretize(concretizer)
        lock = json.loads((tmp_path / "env" / "spack.lock").read_text())
        assert lock["roots"][0]["name"] == "saxpy"

    def test_lockfile_reload(self, tmp_path, concretizer):
        env = Environment.create(tmp_path / "env", specs=["saxpy"])
        first = env.concretize(concretizer)[0]
        reopened = Environment(tmp_path / "env")
        assert reopened.concrete_roots[0].dag_hash() == first.dag_hash()

    def test_concretize_is_cached_until_forced(self, tmp_path, concretizer):
        env = Environment.create(tmp_path / "env", specs=["saxpy"])
        a = env.concretize(concretizer)[0]
        b = env.concretize(concretizer)[0]  # no re-solve
        assert a.dag_hash() == b.dag_hash()

    def test_add_remove(self, tmp_path):
        env = Environment.create(tmp_path / "env")
        env.add("saxpy")
        env.add("amg2023")
        env.remove("saxpy")
        assert [s.name for s in env.user_specs] == ["amg2023"]

    def test_install_requires_concretize(self, tmp_path, installer):
        env = Environment.create(tmp_path / "env", specs=["saxpy"])
        from repro.spack.environment import EnvironmentError_

        with pytest.raises(EnvironmentError_, match="not concretized"):
            env.install(installer)

    def test_unify_true_in_env(self, tmp_path, concretizer, installer):
        env = Environment.create(
            tmp_path / "env", specs=["saxpy", "amg2023"], unify=True
        )
        roots = env.concretize(concretizer)
        assert roots[0]["cmake"].dag_hash() == roots[1]["cmake"].dag_hash()

    def test_view_links_written(self, tmp_path, concretizer, installer):
        env = Environment.create(tmp_path / "env", specs=["saxpy"], view=True)
        env.concretize(concretizer)
        env.install(installer)
        links = json.loads(
            (tmp_path / "env" / ".spack-env" / "view" / "links.json").read_text()
        )
        assert "saxpy" in links

    def test_changed_constraint_triggers_resolve(self, tmp_path, concretizer):
        """A stale lock must not survive a manifest edit (spack add with a
        new constraint re-concretizes without -f)."""
        env = Environment.create(tmp_path / "env", specs=["saxpy~openmp"])
        first = env.concretize(concretizer)[0]
        assert first.variants["openmp"] is False
        env.remove("saxpy~openmp")
        env.add("saxpy+openmp")
        second = env.concretize(concretizer)[0]
        assert second.variants["openmp"] is True
