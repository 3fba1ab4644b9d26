"""Tests for configuration scopes, repositories/overlays, the package DSL
internals, and variant semantics."""

import pytest
import yaml
from hypothesis import given, strategies as st

from repro.spack.config import ConfigScope, Configuration
from repro.spack.package import (
    CMakePackage,
    Package,
    depends_on,
    provides,
    variant,
    version,
)
from repro.spack.parser import parse_spec
from repro.spack.repository import (
    RepoPath,
    Repository,
    UnknownPackageError,
    builtin_repo,
)
from repro.spack.variant import (
    VariantDef,
    normalize_value,
    value_intersects,
    value_merge,
    value_satisfies,
)


class TestConfigScopes:
    def test_single_scope(self):
        c = Configuration(ConfigScope("a", {"config": {"x": 1}}))
        assert c.get("config") == {"x": 1}

    def test_later_scope_wins_scalars(self):
        c = Configuration(
            ConfigScope("low", {"config": {"x": 1, "y": 2}}),
            ConfigScope("high", {"config": {"x": 10}}),
        )
        assert c.get("config") == {"x": 10, "y": 2}

    def test_dicts_merge_recursively(self):
        c = Configuration(
            ConfigScope("low", {"packages": {"mpi": {"buildable": True,
                                                     "version": ["1"]}}}),
            ConfigScope("high", {"packages": {"mpi": {"buildable": False}}}),
        )
        mpi = c.get("packages")["mpi"]
        assert mpi["buildable"] is False
        assert mpi["version"] == ["1"]

    def test_lists_prepend(self):
        c = Configuration(
            ConfigScope("low", {"repos": ["builtin"]}),
            ConfigScope("high", {"repos": ["overlay"]}),
        )
        assert c.get("repos") == ["overlay", "builtin"]

    def test_double_colon_replaces(self):
        c = Configuration(
            ConfigScope("low", {"packages": {"mpi": {"version": ["1", "2"]}}}),
            ConfigScope("high", {"packages": {"mpi::": {"version": ["9"]}}}),
        )
        assert c.get("packages")["mpi"] == {"version": ["9"]}

    def test_get_path(self):
        c = Configuration(ConfigScope("a", {
            "packages": {"mpi": {"buildable": False}}}))
        assert c.get_path("packages.mpi.buildable") is False
        assert c.get_path("packages.ghost.buildable", default="d") == "d"

    def test_push_pop_scope(self):
        c = Configuration(ConfigScope("base", {"config": {"x": 1}}))
        c.push_scope(ConfigScope("cli", {"config": {"x": 2}}))
        assert c.get("config")["x"] == 2
        c.pop_scope()
        assert c.get("config")["x"] == 1

    def test_from_directory(self, tmp_path):
        (tmp_path / "packages.yaml").write_text(yaml.safe_dump(
            {"packages": {"mpi": {"buildable": False}}}))
        (tmp_path / "compilers.yaml").write_text(yaml.safe_dump(
            {"compilers": [{"compiler": {"spec": "gcc@12.1.1"}}]}))
        scope = ConfigScope.from_directory("sys", tmp_path)
        c = Configuration(scope)
        assert c.is_buildable("mpi") is False
        assert len(c.compilers()) == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "x.yaml"
        path.write_text("config: {answer: 42}\n")
        scope = ConfigScope.from_file("f", path)
        assert scope.get("config")["answer"] == 42

    def test_dump_merged(self):
        c = Configuration(
            ConfigScope("a", {"config": {"x": 1}}),
            ConfigScope("b", {"other": {"y": 2}}),
        )
        merged = yaml.safe_load(c.dump())
        assert merged == {"config": {"x": 1}, "other": {"y": 2}}

    def test_all_buildable_default(self):
        c = Configuration(ConfigScope("a", {"packages": {
            "all": {"buildable": False}}}))
        assert c.is_buildable("anything") is False


class TestRepositories:
    def test_builtin_has_paper_packages(self):
        repo = builtin_repo()
        for name in ("saxpy", "amg2023", "hypre", "mvapich2",
                     "intel-oneapi-mkl", "caliper", "adiak", "cmake"):
            assert repo.exists(name), name

    def test_virtual_detection(self):
        repo = builtin_repo()
        assert repo.is_virtual("mpi")
        assert repo.is_virtual("blas")
        assert not repo.is_virtual("saxpy")
        assert not repo.is_virtual("completely-unknown")

    def test_providers(self):
        repo = builtin_repo()
        assert "mvapich2" in repo.providers_of("mpi")
        assert "openblas" in repo.providers_of("lapack")

    def test_unknown_package_error(self):
        with pytest.raises(UnknownPackageError, match="unknown package"):
            builtin_repo().get_class("warpdrive")

    def test_overlay_shadows_builtin(self):
        class Saxpy(Package):
            version("99.0")

        overlay = Repository("overlay")
        overlay.register(Saxpy)
        path = RepoPath(overlay, builtin_repo())
        cls = path.get_class("saxpy")
        assert str(cls.preferred_version()) == "99.0"

    def test_repo_path_union_names(self):
        class Newpkg(Package):
            version("1.0")

        overlay = Repository("overlay")
        overlay.register(Newpkg)
        path = RepoPath(overlay, builtin_repo())
        names = path.all_package_names()
        assert "newpkg" in names and "saxpy" in names

    def test_prepend(self):
        path = RepoPath(builtin_repo())
        overlay = Repository("overlay")
        path.prepend(overlay)
        assert path.repos[0] is overlay


class TestPackageDsl:
    def test_pkg_name_kebab_case(self):
        class IntelOneapiMkl(Package):
            version("1.0")

        assert IntelOneapiMkl.pkg_name() == "intel-oneapi-mkl"

    def test_preferred_version_flag(self):
        class P(Package):
            version("2.0")
            version("1.5", preferred=True)

        assert str(P.preferred_version()) == "1.5"

    def test_deprecated_excluded(self):
        class P(Package):
            version("2.0", deprecated=True)
            version("1.5")

        assert str(P.preferred_version()) == "1.5"

    def test_no_versions_raises(self):
        from repro.spack.package import PackageError

        class Empty(Package):
            pass

        with pytest.raises(PackageError, match="no versions"):
            Empty.preferred_version()

    def test_conditional_dependency_listing(self):
        class P(CMakePackage):
            version("1.0")
            variant("gpu", default=False)
            depends_on("cuda", when="+gpu")

        base = parse_spec("p~gpu")
        gpu = parse_spec("p+gpu")
        assert "cuda" not in P.dependencies_for(base)
        assert "cuda" in P.dependencies_for(gpu)

    def test_provides_records_condition(self):
        class P(Package):
            version("1.0")
            provides("mpi")

        assert "mpi" in P.provided

    def test_cmake_base_dependency_inherited(self):
        class P(CMakePackage):
            version("1.0")

        assert "cmake" in P.dependencies

    def test_abstract_spec_rejected_by_constructor(self):
        from repro.spack.package import PackageError

        class P(Package):
            version("1.0")

        with pytest.raises(PackageError, match="concrete"):
            P(parse_spec("p"))


class TestVariantSemantics:
    def test_bool_normalization(self):
        assert normalize_value("True") is True
        assert normalize_value("false") is False

    def test_multi_normalization_sorted(self):
        assert normalize_value("b,a") == ("a", "b")
        assert normalize_value(["70", "60"]) == ("60", "70")

    def test_satisfies_superset(self):
        assert value_satisfies(("a", "b"), "a")
        assert not value_satisfies(("a",), ("a", "b"))

    def test_bool_mismatch(self):
        assert not value_satisfies(True, False)
        assert not value_intersects(True, False)

    def test_merge_union(self):
        assert value_merge(("a",), ("b",)) == ("a", "b")

    def test_merge_conflicting_strings(self):
        with pytest.raises(ValueError):
            value_merge("x", "y")

    def test_def_validation(self):
        d = VariantDef("threads", default="none",
                       values=("none", "openmp"), multi=False)
        d.validate("openmp")
        with pytest.raises(ValueError, match="invalid value"):
            d.validate("pthreads")
        with pytest.raises(ValueError, match="single-valued"):
            d.validate(("none", "openmp"))

    def test_bool_def_rejects_valued(self):
        d = VariantDef("debug", default=False)
        with pytest.raises(ValueError, match="boolean"):
            d.validate("maybe")

    @given(st.sets(st.sampled_from("abcdef"), min_size=1),
           st.sets(st.sampled_from("abcdef"), min_size=1))
    def test_merge_satisfies_both(self, a, b):
        va, vb = tuple(sorted(a)), tuple(sorted(b))
        merged = value_merge(va, vb)
        assert value_satisfies(merged, va)
        assert value_satisfies(merged, vb)
