"""Importing the program loads no library it does not use, and every module
of the program is imported by something that runs it.

Every CI epoch and every ``benchpark`` call is a fresh process, so each
import the package makes is paid on every run.  The import checks run in a
new interpreter: this one has already imported whatever the other tests
used.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent

PACKAGES = ["repro"] + [f"repro.{name}" for name in (
    "core", "core.cli", "spack", "archspec", "ramble", "systems",
    "benchmarks", "ci", "analysis", "perf", "resilience")]

#: the package ``__init__``s that still import: each loads nothing its
#: importers do not already run, and the campaign benchmark reads or patches
#: names through it
FACADES = {"repro.perf", "repro.resilience", "repro.analysis.engine",
           "repro.benchmarks.amg"}


def _fresh(code, *args):
    """Run ``code`` in a new interpreter and return what it printed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_program_does_not_import_networkx():
    code = "\n".join(
        [f"import {name}" for name in PACKAGES]
        + ["import sys", "print('networkx' in sys.modules)"])
    assert _fresh(code) == "False"


def test_non_amg_epochs_do_not_import_scipy(tmp_path):
    """Only the AMG kernel needs SciPy; a saxpy, STREAM or OSU epoch runs
    without loading it."""
    code = "\n".join([
        "import sys",
        "from repro.core.continuous import ContinuousBenchmarking",
        "for i, exp in enumerate(['saxpy/openmp', 'stream/openmp',",
        "                         'osu-micro-benchmarks/mpi']):",
        "    c = ContinuousBenchmarking(exp, 'cts1', f'{sys.argv[1]}/{i}')",
        "    c.run(1)",
        "    c.regressions()",
        "    assert c.epochs_run == 1, exp",
        "print('scipy' in sys.modules)",
    ])
    assert _fresh(code, str(tmp_path)) == "False"


@pytest.mark.parametrize("module", [
    "repro.perf", "repro.analysis.caliper", "repro.core.cli"])
def test_module_does_not_import_numpy(module):
    """The digest, the timing channel and the CLI's entry are stdlib-only."""
    assert _fresh(f"import sys, {module}\nprint('numpy' in sys.modules)") \
        == "False"


def test_only_the_kept_facades_import():
    """Every other package ``__init__`` is its docstring: each name has one
    import path, the module that defines it."""
    importing = set()
    for init in (SRC / "repro").rglob("__init__.py"):
        package = ".".join(init.parent.relative_to(SRC).parts)
        tree = ast.parse(init.read_text())
        if any(isinstance(node, (ast.Import, ast.ImportFrom))
               for node in ast.walk(tree)):
            importing.add(package)
    assert importing == FACADES


#: the kernel CLIs the ``examples`` CI job runs with ``python -m``
KERNEL_CLIS = ["stream", "saxpy", "amg2023", "osu", "quicksilver"]

#: modules no root imports, each kept for the paper substrate it reproduces
UNREACHED_ALLOWED = {
    # archspec host detection (paper §3.1.3): the simulated systems carry
    # their targets, so only a run on a real host would call it
    "repro.archspec.detect",
}


def _program_modules():
    """Every module under ``src/repro``, by dotted name, with its file."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path, package=""):
    """Every dotted name ``path`` imports; ``from a import b`` yields both
    ``a`` and ``a.b``, since ``b`` may be a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_reached_from_a_root():
    """A module that only tests import is code no campaign, bench, figure or
    example runs.  The roots are the benches, examples and campaign
    benchmark, the ``benchpark`` CLI, the kernel CLIs, and the Table 1
    ``module:name`` strings that ``core/components.py`` imports."""
    modules = _program_modules()
    roots = {"repro.core.cli"} | {f"repro.benchmarks.{k}" for k in KERNEL_CLIS}
    for folder in ("benchmarks", "examples", "campaignbench"):
        for path in (REPO / folder).rglob("*.py"):
            roots |= _imported_names(path)
    roots |= set(re.findall(r'"(repro(?:\.\w+)+):\w+"', (
        SRC / "repro" / "core" / "components.py").read_text()))
    reached, todo = set(), [name for name in roots if name in modules]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        parts = name.split(".")
        # importing a module runs every enclosing package's __init__
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        path = modules[name]
        package = (name if path.name == "__init__.py"
                   else name.rpartition(".")[0])
        todo += [n for n in _imported_names(path, package) if n in modules]
    assert set(modules) - reached == UNREACHED_ALLOWED
