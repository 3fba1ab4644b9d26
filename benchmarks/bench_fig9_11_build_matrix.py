"""F9/F11 — Figures 9 & 11: spack.yaml package definitions + package.py.

Figure 11's Saxpy package declares CMake/Cuda/ROCm build logic keyed on
variants; Figure 9's system spack.yaml names the default compiler and MPI.
This bench builds saxpy on all three paper systems in each programming
model the system supports (the §4 claim: "These Benchpark benchmarks
currently build & run on 3 systems") and checks the recipe emits exactly
the cmake flags Figure 11 shows.  Benchmarks the concretize+install matrix.
"""

from pathlib import Path

from repro.core.runtime import SpackRuntime
from repro.spack.repository import builtin_repo
from repro.systems.registry import get_system

#: (system, variant-spec, expected cmake flag) triples for the build matrix
MATRIX = [
    ("cts1", "saxpy@1.0.0 +openmp", "-DUSE_OPENMP=ON"),
    ("ats2", "saxpy@1.0.0 +openmp", "-DUSE_OPENMP=ON"),
    ("ats2", "saxpy@1.0.0 ~openmp +cuda cuda_arch=70", "-DUSE_CUDA=ON"),
    ("ats4", "saxpy@1.0.0 +openmp", "-DUSE_OPENMP=ON"),
    ("ats4", "saxpy@1.0.0 ~openmp +rocm amdgpu_target=gfx90a", "-DUSE_HIP=ON"),
]


def test_figure9_11_build_matrix(benchmark, artifact, tmp_path_factory):
    def build_all():
        rows = []
        for system_name, spec_text, expected_flag in MATRIX:
            rt = SpackRuntime(get_system(system_name),
                              tmp_path_factory.mktemp("store"))
            concrete = rt.concretize_together([spec_text])[0]
            results = rt.install(concrete)
            saxpy_cls = builtin_repo().get_class("saxpy")
            args = saxpy_cls(concrete).cmake_args()
            rows.append((system_name, spec_text, concrete, results, args,
                         expected_flag))
        return rows

    rows = benchmark.pedantic(build_all, rounds=2, iterations=1)

    lines = ["Figure 9+11 build matrix (saxpy on the paper's 3 systems):", ""]
    for system_name, spec_text, concrete, results, args, expected_flag in rows:
        # Figure 11 logic: the right -DUSE_* flag per variant.
        assert expected_flag in args, (system_name, spec_text, args)
        # every node of the DAG installed
        assert all(r.action in ("source", "cache", "external", "already")
                   for r in results)
        # the system's compiler (Figure 9's default-compiler) was applied
        assert concrete.compiler is not None
        lines.append(f"{system_name:<6} {spec_text:<45} -> "
                     f"target={concrete.target} %{concrete.compiler} "
                     f"cmake_args={args}")
    artifact("fig9_11_build_matrix", "\n".join(lines))


def test_mpi_provider_differs_per_system(tmp_path_factory):
    """System-specific MPI (Figure 9's default-mpi) with zero changes to
    the benchmark-side recipe — the Table 1 orthogonality."""
    providers = {}
    for system_name in ("cts1", "ats2", "ats4"):
        rt = SpackRuntime(get_system(system_name),
                          tmp_path_factory.mktemp("store"))
        concrete = rt.concretize_together(["saxpy"])[0]
        mpi = [n.name for n in concrete.traverse()
               if n.name in ("mvapich2", "spectrum-mpi", "cray-mpich", "openmpi")]
        providers[system_name] = mpi[0]
    assert providers == {
        "cts1": "mvapich2",
        "ats2": "spectrum-mpi",
        "ats4": "cray-mpich",
    }
