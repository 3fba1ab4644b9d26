"""The installation engine (§3.1, component 4).

Installs a concrete spec DAG in topological order, from source or from a
binary cache.  Real compilation is impossible offline, so the *build* of a
package is simulated: the engine still

* verifies every dependency is installed before its dependents,
* runs the package's recipe hooks (``cmake_args``/``configure_args``) so
  recipe bugs surface exactly as they would in Spack,
* materializes the install prefix and artifacts in the store, and
* accounts simulated build time from a per-package cost model — which makes
  cache-vs-source ablations meaningful (DESIGN.md §6).

Determinism: identical concrete specs produce identical prefixes, hashes,
artifacts, and simulated timings — the functional-reproducibility property
the paper's whole premise rests on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .binary_cache import BinaryCache
from .package import PackageBase, PackageError
from .repository import RepoPath, default_repo_path
from .spec import Spec, SpecError
from .store import Store

__all__ = ["Installer", "BuildResult", "InstallError"]

#: Simulated source-build cost in seconds per package (defaults to 30).
#: Numbers are loosely scaled from real Spack build times.
_BUILD_COST = {
    "cmake": 180.0,
    "gmake": 20.0,
    "python": 300.0,
    "mvapich2": 420.0,
    "openmpi": 360.0,
    "cray-mpich": 60.0,
    "spectrum-mpi": 60.0,
    "intel-oneapi-mkl": 90.0,
    "openblas": 240.0,
    "cuda": 120.0,
    "hip": 150.0,
    "caliper": 75.0,
    "adiak": 25.0,
    "saxpy": 8.0,
    "hypre": 210.0,
    "amg2023": 45.0,
    "stream": 5.0,
    "osu-micro-benchmarks": 40.0,
    "quicksilver": 60.0,
}
_DEFAULT_COST = 30.0
#: Installing from the binary cache costs a fixed fraction of a source build.
_CACHE_SPEEDUP = 12.0


class InstallError(SpecError):
    pass


class BuildResult:
    """Outcome of installing one spec."""

    def __init__(self, spec: Spec, action: str, seconds: float, prefix: str,
                 phases: List[str]):
        self.spec = spec
        self.action = action  # "source" | "cache" | "external" | "already"
        self.seconds = seconds
        self.prefix = prefix
        self.phases = phases

    def __repr__(self):
        return (f"BuildResult({self.spec.name}@{self.spec.version} "
                f"{self.action} {self.seconds:.1f}s)")


class Installer:
    """Installs concrete spec DAGs into a :class:`Store`."""

    def __init__(
        self,
        store: Store,
        repo_path: Optional[RepoPath] = None,
        binary_cache: Optional[BinaryCache] = None,
        use_cache: bool = True,
    ):
        self.store = store
        self.repo = repo_path or default_repo_path()
        self.cache = binary_cache
        self.use_cache = use_cache and binary_cache is not None

    def install(self, spec: Spec, explicit: bool = True) -> List[BuildResult]:
        """Install ``spec`` and its dependencies; returns per-node results
        in installation (topological post-) order.

        Nodes install one at a time, dependencies first.  What a parallel
        build farm would take for the same DAG — its critical path and its
        makespan under ``k`` build jobs — is :mod:`repro.spack.graph`'s
        answer.
        """
        if not spec.concrete:
            raise InstallError(
                f"only concrete specs can be installed, got {spec.format()!r} "
                f"(run the concretizer first)"
            )
        root_hash = spec.dag_hash()
        return [
            self._install_node(
                node, explicit=explicit and node.dag_hash() == root_hash)
            for node in spec.traverse(order="post")
        ]

    def _install_node(self, spec: Spec, explicit: bool) -> BuildResult:
        if spec.external:
            prefix = spec.external_path or ""
            if not self.store.is_installed(spec) or self.store.get_record(spec) is None:
                self.store.add(spec, explicit=explicit, installed_from="external")
            return BuildResult(spec, "external", 0.0, prefix, [])
        if self.store.is_installed(spec):
            rec = self.store.get_record(spec)
            return BuildResult(spec, "already", 0.0, rec.prefix if rec else "", [])

        self._check_deps_installed(spec)

        pkg_cls = self.repo.get_class(spec.name)
        pkg = pkg_cls(spec)
        base_cost = _BUILD_COST.get(spec.name, _DEFAULT_COST)

        if self.use_cache and self.cache is not None and self.cache.has(spec):
            artifacts = self.cache.fetch(spec) or {}
            seconds = base_cost / _CACHE_SPEEDUP
            rec = self.store.add(spec, explicit=explicit, installed_from="cache",
                                 build_seconds=seconds, artifacts=artifacts)
            return BuildResult(spec, "cache", seconds, rec.prefix, ["extract"])
        if self.use_cache and self.cache is not None:
            self.cache.fetch(spec)  # record the miss

        phases = pkg.install_phases()
        artifacts = self._run_build(pkg, phases)
        seconds = base_cost * self._variant_cost_factor(spec)
        rec = self.store.add(spec, explicit=explicit, installed_from="source",
                             build_seconds=seconds, artifacts=artifacts)
        if self.cache is not None:
            self.cache.push(spec, artifacts)
        return BuildResult(spec, "source", seconds, rec.prefix, phases)

    def _check_deps_installed(self, spec: Spec) -> None:
        missing = [
            d.format()
            for d in spec.traverse(root=False)
            if not self.store.is_installed(d)
        ]
        if missing:
            raise InstallError(
                f"cannot build {spec.name}: dependencies not installed: {missing}"
            )

    @staticmethod
    def _variant_cost_factor(spec: Spec) -> float:
        """GPU builds take longer; OpenMP slightly longer."""
        factor = 1.0
        if spec.variants.get("cuda") is True or spec.variants.get("rocm") is True:
            factor *= 1.6
        if spec.variants.get("openmp") is True:
            factor *= 1.1
        return factor

    @staticmethod
    def _target_flags(spec) -> str:
        """archspec role 1 (§3.1.3): tailor the build to the target."""
        if spec.target is None or spec.compiler is None:
            return ""
        from repro.archspec.database import get_target
        from repro.archspec.microarch import UnsupportedMicroarchitecture

        try:
            uarch = get_target(spec.target)
            return uarch.optimization_flags(
                spec.compiler.name, str(spec.compiler.versions)
            )
        except UnsupportedMicroarchitecture:
            return ""

    def _run_build(self, pkg: PackageBase, phases: List[str]) -> Dict[str, str]:
        """Execute recipe hooks per build phase; returns produced artifacts."""
        log: List[str] = []
        cflags = self._target_flags(pkg.spec)
        if cflags:
            log.append(f"archspec: CFLAGS={cflags}")
        for phase in phases:
            if phase == "cmake":
                args = pkg.cmake_args()  # type: ignore[attr-defined]
                log.append(f"cmake {' '.join(args)} -DCMAKE_INSTALL_PREFIX={pkg.prefix}")
            elif phase == "configure":
                args = pkg.configure_args()  # type: ignore[attr-defined]
                log.append(f"./configure --prefix={pkg.prefix} {' '.join(args)}")
            elif phase in ("build", "edit", "autoreconf", "install", "extract"):
                log.append(f"{phase}: ok")
            else:
                raise PackageError(f"unknown build phase {phase!r} in {pkg.spec.name}")
        artifacts = dict(pkg.artifacts())
        artifacts[".spack/build.log"] = "\n".join(log) + "\n"
        return artifacts
