"""Experiment executors — how rendered batch scripts actually run.

The paper's workflow step 8 submits ``execute_experiment`` scripts to the
system scheduler.  Offline we provide two executors with the same interface
(``execute(experiment) -> {"returncode", "stdout", "seconds"}``):

* :class:`LocalExecutor` — runs the benchmark **for real**, in process: the
  command line from the rendered script is parsed and dispatched to the
  Python benchmark implementations (saxpy/amg/stream/osu).  Rank counts are
  honoured through SimMPI, so multi-rank runs still execute genuine
  numerics.
* :class:`SystemExecutor` — the same dispatch, but bound to a
  :class:`~repro.systems.descriptor.SystemDescriptor`: communication time
  comes from the system's interconnect, compute time is rescaled by the
  system's hardware rates relative to the measuring host, and run-to-run
  noise is added deterministically per (system, experiment).  This is the
  substitution that lets one laptop "run" cts1, ats2, and ats4 campaigns.

Both append the scheduler preamble handling a real submission would do, so
the pipeline (script → run → log → FOM regex) is identical either way.
Each benchmark call is a ``kernel.<name>`` Caliper region on the active
session, inside :class:`SystemExecutor`'s ``executor.execute`` region.
"""

from __future__ import annotations

import hashlib
import shlex
import time
from typing import Any, Dict, Iterator, List

from repro.analysis.caliper import annotate, region

from .descriptor import SystemDescriptor
from .performance import scale_compute_time

__all__ = ["LocalExecutor", "SystemExecutor", "ExecutorError", "parse_script_commands"]


class ExecutorError(RuntimeError):
    pass


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


class _Dispatch:
    """Maps benchmark program names to their Python implementations."""

    def __init__(self, interconnect=None):
        self.interconnect = interconnect

    def run(self, argv: List[str], n_ranks: int) -> str:
        if not argv:
            raise ExecutorError("empty command")
        program = argv[0].rsplit("/", 1)[-1]
        handler = getattr(self, f"_run_{program.replace('-', '_')}", None)
        if handler is None:
            raise ExecutorError(
                f"no benchmark implementation for program {program!r}"
            )
        return handler(argv[1:], n_ranks)

    @staticmethod
    def _flag(argv: List[str], name: str, default: str) -> str:
        for i, tok in enumerate(argv):
            if tok == name and i + 1 < len(argv):
                return argv[i + 1]
        return default

    def _world(self, n_ranks: int):
        from repro.benchmarks.simmpi import SimWorld

        if n_ranks <= 1:
            return None
        return SimWorld(n_ranks, self.interconnect)

    def _run_saxpy(self, argv: List[str], n_ranks: int) -> str:
        from repro.benchmarks.saxpy import run_saxpy

        n = int(self._flag(argv, "-n", "1"))
        with region("kernel.saxpy"):
            result = run_saxpy(n, n_ranks=n_ranks, world=self._world(n_ranks))
        return result.report() + "\n"

    def _run_amg(self, argv: List[str], n_ranks: int) -> str:
        from repro.benchmarks.amg import run_amg

        problem = int(self._flag(argv, "-problem", "1"))
        n = int(self._flag(argv, "-n", "16"))
        ranks = int(self._flag(argv, "-ranks", str(n_ranks)))
        with region("kernel.amg"):
            result = run_amg(problem=problem, n=n, n_ranks=max(ranks, n_ranks),
                             world=self._world(max(ranks, n_ranks)))
        return result.report() + "\n"

    def _run_stream(self, argv: List[str], n_ranks: int) -> str:
        from repro.benchmarks.stream import run_stream

        n = int(self._flag(argv, "-n", "1000000"))
        ntimes = int(self._flag(argv, "--ntimes", "10"))
        with region("kernel.stream"):
            result = run_stream(n, ntimes)
        return result.report() + "\n"

    def _run_qs(self, argv: List[str], n_ranks: int) -> str:
        from repro.benchmarks.quicksilver import run_quicksilver

        n = int(self._flag(argv, "-n", "100000"))
        slab = float(self._flag(argv, "--slab", "10.0"))
        ranks = int(self._flag(argv, "--ranks", str(n_ranks)))
        with region("kernel.quicksilver"):
            result = run_quicksilver(n, slab, n_ranks=max(ranks, n_ranks),
                                     world=self._world(max(ranks, n_ranks)))
        return result.report() + "\n"

    def _run_osu_bcast(self, argv: List[str], n_ranks: int) -> str:
        from repro.benchmarks.osu import run_collective

        op = self._flag(argv, "--op", "bcast")
        ranks = int(self._flag(argv, "--ranks", str(n_ranks)))
        max_size = int(self._flag(argv, "--max-size", "65536"))
        iterations = int(self._flag(argv, "--iterations", "100"))
        with region("kernel.osu"):
            result = run_collective(
                op, n_ranks=max(ranks, n_ranks), max_size=max_size,
                iterations=iterations, interconnect=self.interconnect,
            )
        return result.report() + "\n"


class LocalExecutor:
    """Run experiments for real on the current host."""

    def __init__(self):
        self.dispatch = _Dispatch()

    def execute(self, experiment) -> Dict[str, Any]:
        out = []
        t0 = time.perf_counter()
        returncode = 0
        for argv, n_ranks in _launches(experiment):
            try:
                out.append(self.dispatch.run(argv, n_ranks))
            except ExecutorError as e:
                out.append(f"ERROR: {e}\n")
                returncode = 127
        return {
            "returncode": returncode,
            "stdout": "".join(out),
            "seconds": time.perf_counter() - t0,
        }


class SystemExecutor:
    """Run experiments 'on' a simulated HPC system."""

    def __init__(self, system: SystemDescriptor, epoch: int = 0):
        self.system = system
        self.dispatch = _Dispatch(interconnect=system.interconnect)
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
                text = self.dispatch.run(argv, n_ranks)
            except ExecutorError as e:
                out.append(f"ERROR: {e}\n")
                returncode = 127
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
