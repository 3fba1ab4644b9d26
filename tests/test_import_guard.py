"""Importing the program loads no library it does not use.

Every CI epoch and every ``benchpark`` call is a fresh process, so each
import the package makes is paid on every run.  The checks run in a new
interpreter: this one has already imported whatever the other tests used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

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
