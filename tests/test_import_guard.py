"""Importing the program loads no library it does not use.

Every CI epoch and every ``benchpark`` call is a fresh process, so each
import the package makes is paid on every run.  The check runs in a new
interpreter: this one has already imported whatever the other tests used.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGES = ["repro"] + [f"repro.{name}" for name in (
    "core", "core.cli", "spack", "archspec", "ramble", "systems",
    "benchmarks", "ci", "analysis", "perf", "resilience")]


def test_program_does_not_import_networkx():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "\n".join(
        [f"import {name}" for name in PACKAGES]
        + ["import sys", "print('networkx' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
