"""Tests for spack diff (the §7.1 divergence-debugging tool)."""

import pytest

from repro.spack.compiler import Compiler, CompilerRegistry
from repro.spack.concretizer import Concretizer
from repro.spack.config import ConfigScope, Configuration
from repro.spack.diff import diff_specs
from repro.spack.parser import parse_spec
from repro.spack.spec import CompilerSpec, SpecError
from repro.spack.version import Version


@pytest.fixture
def conc():
    return Concretizer()


class TestDiff:
    def test_identical(self, conc):
        a = conc.concretize("saxpy+openmp")
        b = conc.concretize("saxpy+openmp")
        d = diff_specs(a, b)
        assert d.identical
        assert "identical" in d.summary()

    def test_variant_change(self, conc):
        d = diff_specs(conc.concretize("saxpy+openmp"),
                       conc.concretize("saxpy~openmp"))
        changed = {n.name for n in d.changed}
        assert changed == {"saxpy"}
        assert "variants" in d.changed[0].changes

    def test_version_change_in_dependency(self, conc):
        d = diff_specs(conc.concretize("saxpy ^cmake@3.23.1"),
                       conc.concretize("saxpy ^cmake@3.26.3"))
        cmake = [n for n in d.changed if n.name == "cmake"][0]
        assert cmake.changes["version"] == ("3.23.1", "3.26.3")

    def test_node_only_on_one_side(self, conc):
        d = diff_specs(conc.concretize("amg2023+caliper"),
                       conc.concretize("amg2023~caliper"))
        assert "caliper" in d.only_left
        assert "adiak" in d.only_left
        assert d.only_right == []

    def test_abstract_rejected(self, conc):
        with pytest.raises(SpecError, match="concrete"):
            diff_specs(parse_spec("saxpy"), conc.concretize("saxpy"))

    def test_section71_scenario(self):
        """The paper's on-prem vs cloud mystery: 'identical' stacks whose
        diff pinpoints the actual divergence (an external math library
        present only on-prem, plus a different target)."""
        onprem_config = Configuration(ConfigScope("onprem", {"packages": {
            "intel-oneapi-mkl": {"externals": [
                {"spec": "intel-oneapi-mkl@2022.1.0", "prefix": "/opt/mkl"}],
                "buildable": False},
            "blas": {"providers": {"blas": ["intel-oneapi-mkl"]}},
            "lapack": {"providers": {"lapack": ["intel-oneapi-mkl"]}},
        }}))
        gcc = CompilerRegistry([Compiler(CompilerSpec("gcc", Version("12.1.1")))])
        onprem = Concretizer(config=onprem_config, compilers=gcc,
                             default_target="cascadelake").concretize("hypre")
        cloud = Concretizer(compilers=gcc,
                            default_target="icelake").concretize("hypre")

        d = diff_specs(onprem, cloud)
        assert not d.identical
        # the library divergence the vendor took days to find:
        assert "intel-oneapi-mkl" in d.only_left
        assert "openblas" in d.only_right
        targets = [n for n in d.changed if "target" in n.changes]
        assert targets and targets[0].changes["target"] == (
            "cascadelake", "icelake")
