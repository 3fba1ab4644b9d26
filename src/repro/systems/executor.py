"""Experiment executors — how rendered batch scripts actually run.

The paper's workflow step 8 submits ``execute_experiment`` scripts to the
system scheduler.  Offline we provide two executors with the same interface
(``execute(experiment) -> {"returncode", "stdout", "seconds"}``):

* :class:`LocalExecutor` — runs the benchmark **for real**, in process:
  each command line of the rendered script runs as the benchmark binary
  would run it.  :data:`PROGRAMS` names the kernel module behind each
  program, and that module's own CLI parser reads the rest of the command
  line; nothing here knows a benchmark's flags.  Rank counts are honoured
  through SimMPI, so multi-rank runs still execute genuine numerics.
* :class:`SystemExecutor` — the same commands, but bound to a
  :class:`~repro.systems.descriptor.SystemDescriptor`: communication time
  comes from the system's interconnect, compute time is rescaled by the
  system's hardware rates relative to the measuring host, and run-to-run
  noise is added deterministically per (system, experiment).  This is the
  substitution that lets one laptop "run" cts1, ats2, and ats4 campaigns.

Both append the scheduler preamble handling a real submission would do, so
the pipeline (script → run → log → FOM regex) is identical either way.
A command line the kernel's parser rejects logs an ``ERROR:`` line and
returns 2, an unknown program 127; the other commands still run.  Each
benchmark call is a ``kernel.<name>`` Caliper region on the active
session, inside :class:`SystemExecutor`'s ``executor.execute`` region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import shlex
import sys
import time
from typing import Any, Dict, Iterator, List

from repro.analysis.caliper import annotate, region

from .descriptor import SystemDescriptor
from .performance import scale_compute_time

__all__ = ["LocalExecutor", "SystemExecutor", "ExecutorError", "parse_script_commands"]


class ExecutorError(RuntimeError):
    """A command that did not run; ``returncode`` is its exit status."""

    def __init__(self, message: str, returncode: int = 127):
        super().__init__(message)
        self.returncode = returncode


def parse_script_commands(script_text: str) -> List[List[str]]:
    """Extract runnable command lines from a rendered execute_experiment
    script (skip shebang, scheduler directives, comments, cd, and strip
    shell redirections)."""
    commands = []
    shell_builtins = ("cd ", "export ", "source ", "module ", "ulimit ", "set ")
    for line in script_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(shell_builtins):
            continue
        # strip output redirection — "2>&1" before ">" so the bare ">"
        # doesn't split it and leave a dangling "2" token
        for marker in ("2>&1", ">>", ">"):
            idx = line.find(marker)
            if idx != -1:
                line = line[:idx].strip()
        if line:
            commands.append(shlex.split(line))
    return commands


def _strip_launcher(argv: List[str]) -> tuple[List[str], int]:
    """Remove an MPI launcher prefix (srun/jsrun/flux/mpiexec) and recover
    the rank count it requested."""
    launchers = {"srun", "jsrun", "mpiexec", "mpirun"}
    n_ranks = 1
    i = 0
    if argv and argv[0] == "flux":  # flux run -N x -n y
        i = 2
    elif argv and argv[0] in launchers:
        i = 1
    else:
        return argv, 1
    out = []
    skip_value_flags = {"-n", "-N", "-a", "-g", "--ntasks", "--nodes"}
    j = i
    while j < len(argv):
        tok = argv[j]
        if tok in skip_value_flags:
            if tok in ("-n", "--ntasks"):
                try:
                    n_ranks = int(argv[j + 1])
                except (IndexError, ValueError):
                    pass
            j += 2
            continue
        if tok.startswith("-"):
            j += 1
            continue
        out = argv[j:]
        break
    return out, max(n_ranks, 1)


def _launches(experiment) -> Iterator[tuple[List[str], int]]:
    """(argv, ranks) per command of an experiment's rendered script, the
    launcher stripped; ranks are the larger of the launcher's request and
    the experiment's ``n_ranks``."""
    for argv in parse_script_commands(experiment.script_path.read_text()):
        argv, launcher_ranks = _strip_launcher(argv)
        ctx_ranks = int(float(experiment.variables.get("n_ranks", 1)))
        yield argv, max(launcher_ranks, ctx_ranks)


#: program name -> (its kernel module in ``repro.benchmarks``, Caliper region)
PROGRAMS = {
    "saxpy": ("saxpy", "kernel.saxpy"),
    "amg": ("amg2023", "kernel.amg"),
    "stream": ("stream", "kernel.stream"),
    "qs": ("quicksilver", "kernel.quicksilver"),
    "osu_bcast": ("osu", "kernel.osu"),
}


def _run_program(argv: List[str], n_ranks: int, interconnect=None) -> str:
    """Run one launched command in process and return its output: the
    program's kernel module parses the command line with its own CLI parser
    and runs on at least ``n_ranks`` ranks.  A command line that parser
    rejects exits 2 with argparse's usage on stderr, as the binary would;
    both are kept from the process and raised as an :class:`ExecutorError`.
    Commands run one at a time, so stderr is redirected for this call only."""
    program = argv[0].rsplit("/", 1)[-1] if argv else ""
    if program not in PROGRAMS:
        raise ExecutorError(f"no benchmark implementation for program {program!r}")
    module, name = PROGRAMS[program]
    kernel = importlib.import_module(f"repro.benchmarks.{module}")
    stderr = io.StringIO()
    try:
        with region(name), contextlib.redirect_stderr(stderr):
            result = kernel.run_command(argv[1:], n_ranks, interconnect)
    except SystemExit:
        message = stderr.getvalue().rstrip().rpartition("\n")[2]
        raise ExecutorError(message, returncode=2) from None
    sys.stderr.write(stderr.getvalue())
    return result.report() + "\n"


class LocalExecutor:
    """Run experiments for real on the current host."""

    def execute(self, experiment) -> Dict[str, Any]:
        out = []
        t0 = time.perf_counter()
        returncode = 0
        for argv, n_ranks in _launches(experiment):
            try:
                out.append(_run_program(argv, n_ranks))
            except ExecutorError as e:
                out.append(f"ERROR: {e}\n")
                returncode = e.returncode
        return {
            "returncode": returncode,
            "stdout": "".join(out),
            "seconds": time.perf_counter() - t0,
        }


class SystemExecutor:
    """Run experiments 'on' a simulated HPC system."""

    def __init__(self, system: SystemDescriptor, epoch: int = 0):
        self.system = system
        #: benchmarking epoch, salted into the jitter so continuous runs of
        #: the same experiment see realistic run-to-run variation
        self.epoch = epoch
        #: retry attempt (1-based), set per run by FaultTolerantExecutor;
        #: re-runs on a system that just flapped are noisier than clean runs
        self.attempt = 1

    def _noise(self, experiment_name: str) -> float:
        """Deterministic multiplicative jitter per (system, experiment,
        epoch, attempt)."""
        salt = f"{self.system.name}:{experiment_name}:{self.epoch}"
        amplitude = self.system.noise
        if self.attempt > 1:
            salt += f":attempt{self.attempt}"
            amplitude *= 1.0 + 0.5 * (self.attempt - 1)
        digest = hashlib.sha256(salt.encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        # map uniform → symmetric noise around 1.0
        return 1.0 + (2.0 * u - 1.0) * amplitude

    @staticmethod
    def _uses_gpu(experiment) -> bool:
        """GPU programming-model runs (software built +cuda/+rocm) execute
        the main computation on the accelerator — §2's example of 'using
        the GPU for the main computation'."""
        for spec in getattr(experiment, "env_specs", []) or []:
            variants = getattr(spec, "variants", {})
            if variants.get("cuda") is True or variants.get("rocm") is True:
                return True
        return False

    @annotate("executor.execute")
    def execute(self, experiment) -> Dict[str, Any]:
        out = [f"# executing on {self.system.name} ({self.system.site})\n"]
        use_gpu = self._uses_gpu(experiment) and self.system.has_gpu
        if use_gpu:
            out.append(f"# offloading to {self.system.gpu.model}\n")
        returncode = 0
        t0 = time.perf_counter()
        for argv, n_ranks in _launches(experiment):
            if n_ranks > self.system.total_cores:
                out.append(
                    f"ERROR: requested {n_ranks} ranks exceeds "
                    f"{self.system.name}'s {self.system.total_cores} cores\n"
                )
                returncode = 1
                continue
            try:
                text = _run_program(argv, n_ranks, self.system.interconnect)
            except ExecutorError as e:
                out.append(f"ERROR: {e}\n")
                returncode = e.returncode
                continue
            out.append(scale_compute_time(
                text, self.system, noise=self._noise(experiment.name),
                use_gpu=use_gpu,
            ))
        return {
            "returncode": returncode,
            "stdout": "".join(out),
            "seconds": time.perf_counter() - t0,
        }
