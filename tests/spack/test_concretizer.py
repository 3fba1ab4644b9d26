"""Unit + integration tests for the concretizer, including the paper's
Figure 3/4 configuration behaviours (externals, buildable: false)."""

import pytest

from repro.spack.compiler import Compiler, CompilerRegistry
from repro.spack.concretizer import ConcretizationError, Concretizer, NoVersionError
from repro.spack.config import ConfigScope, Configuration
from repro.spack.parser import parse_spec
from repro.spack.spec import CompilerSpec, UnsatisfiableSpecError
from repro.spack.version import Version


@pytest.fixture
def gcc12():
    return CompilerRegistry(
        [Compiler(CompilerSpec("gcc", Version("12.1.1")), target="x86_64")]
    )


@pytest.fixture
def plain(gcc12):
    return Concretizer(compilers=gcc12)


class TestBasicConcretization:
    def test_fills_version(self, plain):
        c = plain.concretize("saxpy")
        assert c.concrete
        assert c.version == Version("1.0.0")

    def test_respects_requested_version(self, plain):
        c = plain.concretize("cmake@3.23.1")
        assert c.version == Version("3.23.1")

    def test_picks_highest_version(self, plain):
        c = plain.concretize("cmake")
        assert c.version == Version("3.27.4")

    def test_no_matching_version(self, plain):
        with pytest.raises(NoVersionError):
            plain.concretize("cmake@99.0")

    def test_fills_variant_defaults(self, plain):
        c = plain.concretize("saxpy")
        assert c.variants["openmp"] is True  # declared default
        assert c.variants["cuda"] is False

    def test_user_variant_wins(self, plain):
        c = plain.concretize("saxpy~openmp")
        assert c.variants["openmp"] is False

    def test_unknown_variant_rejected(self, plain):
        with pytest.raises(ConcretizationError):
            plain.concretize("saxpy+nonexistent")

    def test_compiler_assigned(self, plain):
        c = plain.concretize("saxpy")
        assert c.compiler is not None
        assert c.compiler.name == "gcc"

    def test_target_assigned(self, plain):
        c = plain.concretize("saxpy")
        assert c.target == "x86_64"

    def test_deterministic(self, plain):
        a = plain.concretize("amg2023+caliper")
        b = plain.concretize("amg2023+caliper")
        assert a.dag_hash() == b.dag_hash()


class TestDependencies:
    def test_mpi_virtual_resolved(self, plain):
        c = plain.concretize("saxpy")
        assert "mvapich2" in c  # default mpi provider

    def test_dag_constraint_applies_transitively(self, plain):
        c = plain.concretize("saxpy ^cmake@3.23.1")
        assert c["cmake"].version == Version("3.23.1")

    def test_conditional_dependency_active(self, plain):
        c = plain.concretize("amg2023+caliper")
        assert "caliper" in c
        assert "adiak" in c

    def test_conditional_dependency_inactive(self, plain):
        c = plain.concretize("amg2023~caliper")
        assert "caliper" not in c

    def test_conditional_constraint_propagates(self, plain):
        c = plain.concretize("amg2023+cuda cuda_arch=70")
        assert c["hypre"].variants["cuda"] is True

    def test_compiler_propagates_to_deps(self, plain):
        c = plain.concretize("saxpy %gcc@12.1.1")
        for node in c.traverse():
            assert node.compiler.name == "gcc"

    def test_gpu_conflict_detected(self, plain):
        from repro.spack.package import ConflictError

        with pytest.raises(ConflictError, match="CUDA architecture"):
            plain.concretize("saxpy+cuda")  # cuda_arch=none conflicts

    def test_gpu_arch_resolves_conflict(self, plain):
        c = plain.concretize("saxpy+cuda cuda_arch=70")
        assert c.variants["cuda_arch"] == ("70",) or c.variants["cuda_arch"] == "70"
        assert "cuda" in c


class TestUnification:
    def test_unify_shares_nodes(self, plain):
        roots = plain.concretize_together(
            ["saxpy", "amg2023"], unify=True
        )
        h_saxpy = roots[0]["mvapich2"].dag_hash()
        h_amg = roots[1]["mvapich2"].dag_hash()
        assert h_saxpy == h_amg

    def test_unify_conflict_raises(self, plain):
        with pytest.raises(UnsatisfiableSpecError):
            plain.concretize_together(
                ["saxpy ^cmake@3.23.1", "amg2023 ^cmake@3.26.3"], unify=True
            )

    def test_no_unify_allows_divergence(self, plain):
        roots = plain.concretize_together(
            ["saxpy ^cmake@3.23.1", "amg2023 ^cmake@3.26.3"], unify=False
        )
        assert roots[0]["cmake"].version == Version("3.23.1")
        assert roots[1]["cmake"].version == Version("3.26.3")


class TestExternalsAndConfig:
    """Behaviours from paper Figure 4: system packages.yaml externals."""

    @pytest.fixture
    def cts1_config(self):
        scope = ConfigScope(
            "cts1",
            {
                "packages": {
                    "blas": {
                        "externals": [
                            {
                                "spec": "intel-oneapi-mkl@2022.1.0",
                                "prefix": "/path/to/intel-oneapi-mkl",
                            }
                        ],
                        "buildable": False,
                    },
                    "mpi": {
                        "externals": [
                            {
                                "spec": "mvapich2@2.3.7-gcc12.1.1-magic",
                                "prefix": "/path/to/mvapich2",
                            }
                        ],
                        "buildable": False,
                    },
                    "mvapich2": {
                        "externals": [
                            {
                                "spec": "mvapich2@2.3.7-gcc12.1.1-magic",
                                "prefix": "/path/to/mvapich2",
                            }
                        ],
                        "buildable": False,
                    },
                    "intel-oneapi-mkl": {
                        "externals": [
                            {
                                "spec": "intel-oneapi-mkl@2022.1.0",
                                "prefix": "/path/to/intel-oneapi-mkl",
                            }
                        ],
                        "buildable": False,
                    },
                }
            },
        )
        return Configuration(scope)

    def test_external_mpi_used(self, cts1_config, gcc12):
        conc = Concretizer(config=cts1_config, compilers=gcc12)
        c = conc.concretize("saxpy")
        mpi = c["mvapich2"]
        assert mpi.external
        assert mpi.external_path == "/path/to/mvapich2"
        assert str(mpi.versions) == "2.3.7-gcc12.1.1-magic"

    def test_external_is_leaf(self, cts1_config, gcc12):
        conc = Concretizer(config=cts1_config, compilers=gcc12)
        c = conc.concretize("saxpy")
        assert not c["mvapich2"].dependencies

    def test_buildable_false_without_external(self, gcc12):
        config = Configuration(
            ConfigScope("sys", {"packages": {"hypre": {"buildable": False}}})
        )
        conc = Concretizer(config=config, compilers=gcc12)
        with pytest.raises(ConcretizationError, match="buildable"):
            conc.concretize("amg2023")

    def test_preferred_version_from_config(self, gcc12):
        config = Configuration(
            ConfigScope("sys", {"packages": {"cmake": {"version": ["3.23.1"]}}})
        )
        conc = Concretizer(config=config, compilers=gcc12)
        assert conc.concretize("cmake").version == Version("3.23.1")

    def test_preferred_variants_from_config(self, gcc12):
        config = Configuration(
            ConfigScope("sys", {"packages": {"hypre": {"variants": ["+openmp"]}}})
        )
        conc = Concretizer(config=config, compilers=gcc12)
        c = conc.concretize("hypre")
        assert c.variants["openmp"] is True

    def test_user_overrides_config_preference(self, gcc12):
        config = Configuration(
            ConfigScope("sys", {"packages": {"hypre": {"variants": ["+openmp"]}}})
        )
        conc = Concretizer(config=config, compilers=gcc12)
        c = conc.concretize("hypre~openmp")
        assert c.variants["openmp"] is False

    def test_provider_preference(self, gcc12):
        config = Configuration(
            ConfigScope(
                "sys",
                {"packages": {"mpi": {"providers": {"mpi": ["openmpi"]}}}},
            )
        )
        conc = Concretizer(config=config, compilers=gcc12)
        c = conc.concretize("saxpy")
        assert "openmpi" in c
        assert "mvapich2" not in c


class TestCompilerSelection:
    def test_unknown_compiler_rejected(self, gcc12):
        conc = Concretizer(compilers=gcc12)
        from repro.spack.compiler import CompilerNotFoundError

        with pytest.raises(CompilerNotFoundError):
            conc.concretize("saxpy %clang@16.0.0")

    def test_best_of_multiple(self):
        reg = CompilerRegistry(
            [
                Compiler(CompilerSpec("gcc", Version("10.3.1"))),
                Compiler(CompilerSpec("gcc", Version("12.1.1"))),
            ]
        )
        conc = Concretizer(compilers=reg)
        c = conc.concretize("saxpy %gcc")
        assert str(c.compiler) == "gcc@12.1.1"

    def test_concrete_spec_rejected_as_input(self, plain):
        c = plain.concretize("saxpy")
        with pytest.raises(Exception):
            c.constrain(parse_spec("+cuda"))
