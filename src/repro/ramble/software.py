"""Software-environment resolution — ramble.yaml's ``spack:`` section
(Figures 9 & 10).

Two layers cooperate:

* the **system-side** ``spack.yaml`` (Figure 9) names reusable package
  definitions (``default-compiler: gcc@12.1.1``,
  ``default-mpi: mvapich2@...``) — system-specific, benchmark-agnostic;
* the **experiment-side** ``ramble.yaml: spack:`` (Figure 10 lines 31–40)
  defines the benchmark's packages (``saxpy: spack_spec: saxpy@1.0.0
  +openmp ^cmake@3.23.1, compiler: default-compiler``) and groups them into
  named environments (``saxpy: packages: [default-mpi, saxpy]``).

:func:`resolve_environment` merges the two into the list of root specs the
mini-Spack concretizer/installer consumes — the coupling Table 1 rows 1–2
describe.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.spack.parser import parse_spec
from repro.spack.spec import Spec

__all__ = ["SoftwareError", "PackageDef", "resolve_environment", "merge_spack_sections"]


class SoftwareError(ValueError):
    pass


class PackageDef:
    """A named package definition: a spack spec plus an optional compiler
    reference (itself the name of another package definition)."""

    def __init__(self, name: str, spack_spec: str, compiler: Optional[str] = None):
        self.name = name
        self.spack_spec = spack_spec
        self.compiler = compiler

    @classmethod
    def from_dict(cls, name: str, d: Mapping[str, Any]) -> "PackageDef":
        if "spack_spec" not in d:
            raise SoftwareError(f"package definition {name!r} missing spack_spec")
        return cls(name, str(d["spack_spec"]), d.get("compiler"))

    def __repr__(self):
        return f"PackageDef({self.name!r}, {self.spack_spec!r}, compiler={self.compiler!r})"


def merge_spack_sections(system_spack: Mapping[str, Any],
                         experiment_spack: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge the system spack.yaml and ramble.yaml spack sections; the
    experiment side wins on conflicts (it is more specific)."""
    merged: Dict[str, Any] = {"packages": {}, "environments": {}}
    for src in (system_spack, experiment_spack):
        for pname, pdef in (src.get("packages") or {}).items():
            merged["packages"][pname] = pdef
        for ename, edef in (src.get("environments") or {}).items():
            merged["environments"][ename] = edef
    return merged


def _compiler_for(defs: Mapping[str, PackageDef], compiler_name: str):
    from repro.spack.spec import CompilerSpec

    if compiler_name not in defs:
        raise SoftwareError(
            f"compiler reference {compiler_name!r} is not a defined package; "
            f"defined: {sorted(defs)}"
        )
    comp_spec = parse_spec(defs[compiler_name].spack_spec)
    return CompilerSpec(comp_spec.name, comp_spec.versions)


def resolve_environment(spack_section: Mapping[str, Any],
                        env_name: str) -> List[Spec]:
    """Resolve one named environment to its abstract root specs.

    Each package reference in the environment resolves through the merged
    ``packages:`` definitions; a ``compiler:`` field appends ``%compiler``
    parsed from the referenced compiler definition.
    """
    pkg_defs = {
        name: PackageDef.from_dict(name, d)
        for name, d in (spack_section.get("packages") or {}).items()
    }
    environments = spack_section.get("environments") or {}
    if env_name not in environments:
        raise SoftwareError(
            f"environment {env_name!r} not defined; available: {sorted(environments)}"
        )
    entry = environments[env_name] or {}
    package_names = entry.get("packages", [])
    if not package_names:
        raise SoftwareError(f"environment {env_name!r} lists no packages")

    roots: List[Spec] = []
    for ref in package_names:
        if ref not in pkg_defs:
            raise SoftwareError(
                f"environment {env_name!r} references undefined package {ref!r}; "
                f"defined: {sorted(pkg_defs)}"
            )
        pdef = pkg_defs[ref]
        root = parse_spec(pdef.spack_spec)
        if pdef.compiler:
            # Attach to the root node — appending "%gcc" to the spec string
            # would bind it to the last ^dependency instead.
            root.compiler = _compiler_for(pkg_defs, pdef.compiler)
        roots.append(root)
    return roots
