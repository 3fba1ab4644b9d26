"""F4 — Figure 4: system packages.yaml with externals.

    packages:
      blas:
        externals:
        - spec: intel-oneapi-mkl@2022.1.0
          prefix: /path/to/intel-oneapi-mkl
        buildable: false
      mpi:
        externals:
        - spec: mvapich2@2.3.7-gcc12.1.1-magic
          prefix: /path/to/mvapich2
        buildable: false

Loads the paper's exact configuration and verifies the concretizer honours
it: the externals are used as leaves at their pinned versions/prefixes, and
``buildable: false`` forbids source builds.  Benchmarks concretization of
hypre (which needs both blas and mpi) against this config.
"""

import pytest
import yaml

from repro.spack.compiler import Compiler, CompilerRegistry
from repro.spack.concretizer import ConcretizationError, Concretizer
from repro.spack.config import ConfigScope, Configuration
from repro.spack.spec import CompilerSpec
from repro.spack.version import Version

FIGURE4_YAML = """\
packages:
  blas:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  lapack:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  intel-oneapi-mkl:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  mpi:
    providers:
      mpi: [mvapich2]
  mvapich2:
    externals:
    - spec: mvapich2@2.3.7-gcc12.1.1-magic
      prefix: /path/to/mvapich2
    buildable: false
"""


def _concretizer():
    config = Configuration(
        ConfigScope("fig4", yaml.safe_load(FIGURE4_YAML) and
                    {"packages": yaml.safe_load(FIGURE4_YAML)["packages"]})
    )
    compilers = CompilerRegistry(
        [Compiler(CompilerSpec("gcc", Version("12.1.1")))]
    )
    return Concretizer(config=config, compilers=compilers)


def test_figure4_externals_honoured(benchmark, artifact):
    concretizer = _concretizer()
    spec = benchmark(concretizer.concretize, "hypre")

    mkl = spec["intel-oneapi-mkl"]
    assert mkl.external
    assert mkl.external_path == "/path/to/intel-oneapi-mkl"
    assert mkl.version == Version("2022.1.0")

    mpi = spec["mvapich2"]
    assert mpi.external
    assert mpi.external_path == "/path/to/mvapich2"
    assert str(mpi.versions) == "2.3.7-gcc12.1.1-magic"
    assert not mpi.dependencies  # externals are leaves

    artifact("fig4_externals", FIGURE4_YAML + "\nconcretized hypre DAG:\n"
             + "\n".join(f"  {n.format()}"
                         + (f"  [external: {n.external_path}]" if n.external else "")
                         for n in spec.traverse()))


def test_buildable_false_blocks_source_build():
    """An unsatisfiable request against a buildable:false package must fail
    loudly instead of silently building from source."""
    concretizer = _concretizer()
    with pytest.raises(ConcretizationError, match="buildable"):
        concretizer.concretize("hypre ^mvapich2@2.3.6")  # external is 2.3.7
