"""Per-system Spack runtime — the bundle Benchpark hands to Ramble.

Couples a system's configuration scopes (compilers.yaml / packages.yaml,
§3.1.2), the archspec-detected target, a concretizer, a store, and an
installer (optionally backed by the shared binary cache) into one object
with the two methods the Ramble workspace needs:
``concretize_together(specs)`` and ``install(spec)``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.analysis.caliper import annotate
from repro.archspec.database import get_target
from repro.spack.binary_cache import BinaryCache
from repro.spack.compiler import CompilerRegistry
from repro.spack.concretizer import Concretizer
from repro.spack.config import ConfigScope, Configuration
from repro.spack.installer import BuildResult, Installer
from repro.spack.spec import Spec
from repro.spack.store import Store
from repro.systems.descriptor import SystemDescriptor

__all__ = ["SpackRuntime"]


class SpackRuntime:
    """Everything needed to build software for one system."""

    def __init__(self, system: SystemDescriptor, store_root: Path | str,
                 binary_cache: Optional[BinaryCache] = None):
        self.system = system
        scope = ConfigScope(
            f"system:{system.name}",
            {
                "packages": dict(system.packages_config),
                "compilers": [{"compiler": dict(c)} for c in system.compilers],
            },
        )
        self.config = Configuration(scope)
        compilers = CompilerRegistry.from_config(self.config)
        target = get_target(system.cpu_target)
        self.concretizer = Concretizer(
            config=self.config,
            compilers=compilers,
            default_target=target.name,
        )
        self.store = Store(store_root)
        self.installer = Installer(self.store, binary_cache=binary_cache)

    # -- the Ramble-facing interface ---------------------------------------
    @annotate("concretizer.concretize_together")
    def concretize_together(self, specs: List[Spec | str],
                            unify: bool = True) -> List[Spec]:
        return self.concretizer.concretize_together(list(specs), unify=unify)

    @annotate("installer.install")
    def install(self, spec: Spec) -> List[BuildResult]:
        return self.installer.install(spec)

    def optimization_flags(self, compiler: str, version: str) -> str:
        """archspec's role 1 (§3.1.3): flags tailored to this system."""
        return get_target(self.system.cpu_target).optimization_flags(
            compiler, version
        )
