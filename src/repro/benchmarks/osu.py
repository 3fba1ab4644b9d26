"""OSU-style MPI collective micro-benchmarks over SimMPI.

This is the workload behind the paper's Figure 14: MPI_Bcast timed across
process counts on the CTS architecture, measurements then fed to Extra-P.
The output format follows osu_bcast::

    # OSU MPI Broadcast Latency Test
    # Size       Avg Latency(us)
    8                       1.23
    ...

and adds a ``Total time`` line per run — the metric Figure 14 plots
("Total time_mean (s)" versus nprocs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.systems.descriptor import InterconnectSpec
from repro.systems.mpi_model import COLLECTIVES
from .simmpi import SimWorld

__all__ = ["run_collective", "OsuResult", "run_command", "main"]


@dataclass
class OsuResult:
    operation: str
    n_ranks: int
    #: message size (bytes) -> average latency (microseconds)
    latencies_us: Dict[int, float] = field(default_factory=dict)
    iterations: int = 100
    total_seconds: float = 0.0

    def report(self) -> str:
        lines = [
            f"# OSU MPI {self.operation.capitalize()} Latency Test",
            f"# ranks: {self.n_ranks}",
            "# Size       Avg Latency(us)",
        ]
        for size in sorted(self.latencies_us):
            lines.append(f"{size:<12}{self.latencies_us[size]:>18.2f}")
        lines.append(f"Total time: {self.total_seconds:.6f} s")
        lines.append("Benchmark complete")
        return "\n".join(lines)


def run_collective(
    operation: str = "bcast",
    n_ranks: int = 2,
    min_size: int = 8,
    max_size: int = 1 << 20,
    iterations: int = 100,
    interconnect: Optional[InterconnectSpec] = None,
    verify: bool = True,
) -> OsuResult:
    """Time one collective across power-of-two message sizes.

    With ``verify=True`` each size also runs one *data-carrying* call on
    real NumPy buffers and asserts collective semantics, so this benchmark
    doubles as a SimMPI correctness test (exactly like OSU's validation
    mode)."""
    if operation not in COLLECTIVES:
        raise ValueError(
            f"unknown collective {operation!r}; known: {sorted(COLLECTIVES)}"
        )
    if n_ranks < 1:
        raise ValueError(f"need >= 1 rank, got {n_ranks}")
    if min_size < 1 or max_size < min_size:
        raise ValueError(f"bad size range [{min_size}, {max_size}]")

    world = SimWorld(n_ranks, interconnect)
    result = OsuResult(operation=operation, n_ranks=n_ranks, iterations=iterations)

    size = min_size
    while size <= max_size:
        t_before = world.sim_time
        n_doubles = max(size // 8, 1)
        # Timing loop uses the account-only path: replicating buffers to
        # thousands of simulated ranks costs real memory for no fidelity.
        for _ in range(iterations):
            world.account_only(operation, size)
        elapsed = world.sim_time - t_before
        result.latencies_us[size] = elapsed / iterations * 1e6

        if verify:
            # Semantics check on a bounded payload (correctness does not
            # depend on buffer size; memory does).
            _verify_semantics(world, operation, min(n_doubles, 1024))
        size *= 2

    result.total_seconds = world.sim_time
    return result


def _verify_semantics(world: SimWorld, operation: str, n_doubles: int) -> None:
    p = world.size
    if operation == "bcast":
        data = np.arange(n_doubles, dtype=float)
        received = world.bcast(data, root=0)
        assert all(np.array_equal(r, data) for r in received)
    elif operation == "allreduce":
        per_rank = [np.full(n_doubles, float(r)) for r in range(p)]
        out = world.allreduce(per_rank)
        expected = np.full(n_doubles, sum(range(p)), dtype=float)
        assert all(np.allclose(o, expected) for o in out)
    elif operation == "reduce":
        per_rank = [np.full(n_doubles, 1.0) for _ in range(p)]
        out = world.reduce(per_rank)
        assert np.allclose(out, p)
    elif operation == "allgather":
        vals = [float(r) for r in range(p)]
        out = world.allgather(vals)
        assert all(o == vals for o in out)
    # gather/scatter/alltoall/barrier verified in unit tests


_PARSER = argparse.ArgumentParser(prog="osu_bcast")
_PARSER.add_argument("--op", default="bcast", choices=sorted(COLLECTIVES))
_PARSER.add_argument("--ranks", type=int, default=2)
_PARSER.add_argument("--min-size", type=int, default=8)
_PARSER.add_argument("--max-size", type=int, default=1 << 16)
_PARSER.add_argument("--iterations", type=int, default=100)


def run_command(argv: Optional[List[str]], ranks: int = 1,
                interconnect: Optional[InterconnectSpec] = None) -> OsuResult:
    """Run ``osu_bcast argv`` on max(``--ranks``, the launcher's ``ranks``)."""
    args = _PARSER.parse_args(argv)
    return run_collective(
        args.op, max(args.ranks, ranks), args.min_size, args.max_size,
        args.iterations, interconnect=interconnect,
    )


def main(argv: Optional[List[str]] = None) -> int:
    print(run_command(argv).report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
