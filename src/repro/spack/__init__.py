"""Mini-Spack: the reproducible-build substrate (paper §3.1).

Public API re-exports the four primary components the paper enumerates:
the Spec syntax, the concretizer, package files, and the installation
engine — plus environments, configuration, and the binary cache.
"""

from .binary_cache import BinaryCache
from .compiler import Compiler, CompilerRegistry
from .concretizer import ConcretizationError, Concretizer
from .config import ConfigScope, Configuration
from .ci_pipeline import generate_ci_pipeline
from .diff import SpecDiff, diff_specs
from .environment import Environment
from .graph import critical_path, graph_stats, parallel_makespan
from .installer import BuildResult, Installer
from .package import (
    AutotoolsPackage,
    BundlePackage,
    CMakePackage,
    CudaPackage,
    MakefilePackage,
    Package,
    PackageBase,
    ROCmPackage,
    conflicts,
    depends_on,
    provides,
    variant,
    version,
)
from .parser import SpecParseError, parse_spec, parse_specs
from .repository import RepoPath, Repository, builtin_repo, default_repo_path
from .spec import CompilerSpec, Spec, SpecError, UnsatisfiableSpecError
from .store import Store
from .version import Version, VersionList, VersionRange, ver

__all__ = [
    "BinaryCache",
    "BuildResult",
    "CMakePackage",
    "Compiler",
    "CompilerRegistry",
    "CompilerSpec",
    "ConcretizationError",
    "Concretizer",
    "ConfigScope",
    "Configuration",
    "Environment",
    "Installer",
    "Package",
    "PackageBase",
    "RepoPath",
    "Repository",
    "Spec",
    "SpecDiff",
    "SpecError",
    "SpecParseError",
    "Store",
    "UnsatisfiableSpecError",
    "Version",
    "VersionList",
    "VersionRange",
    "generate_ci_pipeline",
    "builtin_repo",
    "critical_path",
    "graph_stats",
    "parallel_makespan",
    "default_repo_path",
    "diff_specs",
    "parse_spec",
    "parse_specs",
    "ver",
]
