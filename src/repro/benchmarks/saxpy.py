"""The saxpy micro-benchmark — a real, runnable implementation of the
paper's Figure 7 kernel::

    void saxpy_kernel(float* r, float* x, float* y, int size) {
        for (int i = 0; i < size; ++i) r[i] = A * x[i] + y[i];
    }

Per the HPC-Python guides, the kernel is vectorized NumPy (views, no copies,
in-place writes).  The CLI mirrors the paper's ``saxpy -n {n}`` executable
(Figure 8 line 4) and prints:

* per-rank kernel timing,
* achieved memory bandwidth (3 array streams / elapsed),
* the exact success marker ``Kernel done`` that Figure 8's
  ``figure_of_merit``/``success_criteria`` regexes look for.

MPI mode (``use_mpi=True`` in application.py) splits the array across a
:class:`~repro.benchmarks.simmpi.SimWorld` and validates the distributed
result against the sequential kernel.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .simmpi import SimWorld

__all__ = ["saxpy_kernel", "run_saxpy", "SaxpyResult", "run_command", "main"]

#: The scalar the paper's kernel calls ``A``.
A = 2.0


def saxpy_kernel(r: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """r ← A·x + y, in place (no temporaries beyond one fused multiply)."""
    if not (r.shape == x.shape == y.shape):
        raise ValueError(
            f"shape mismatch: r{r.shape} x{x.shape} y{y.shape}"
        )
    np.multiply(x, A, out=r)
    np.add(r, y, out=r)


@dataclass
class SaxpyResult:
    n: int
    n_ranks: int
    kernel_seconds: float
    bandwidth_gbs: float
    checksum: float
    correct: bool

    def report(self) -> str:
        lines = [
            f"saxpy: problem size n = {self.n}, ranks = {self.n_ranks}",
            f"saxpy kernel time: {self.kernel_seconds:.6f} s",
            f"saxpy bandwidth: {self.bandwidth_gbs:.3f} GB/s",
            f"saxpy checksum: {self.checksum:.6e}",
            f"verification: {'PASSED' if self.correct else 'FAILED'}",
            "Kernel done",
        ]
        return "\n".join(lines)


def run_saxpy(
    n: int,
    n_ranks: int = 1,
    repeats: int = 3,
    dtype=np.float32,
    world: Optional[SimWorld] = None,
) -> SaxpyResult:
    """Execute the saxpy benchmark.

    With ``n_ranks > 1`` the array is block-distributed; each rank's chunk
    is computed (really), then the partial checksums are combined with an
    ``allreduce`` whose communication time comes from the SimMPI model.
    """
    if n <= 0:
        raise ValueError(f"problem size must be positive, got {n}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed=n)  # deterministic inputs per size
    x = rng.random(n, dtype=dtype)
    y = rng.random(n, dtype=dtype)
    r = np.empty_like(x)

    # Reference result for verification.
    expected = A * x + y

    best = float("inf")
    if n_ranks <= 1:
        for _ in range(repeats):
            t0 = time.perf_counter()
            saxpy_kernel(r, x, y)
            best = min(best, time.perf_counter() - t0)
        checksum = float(np.sum(r, dtype=np.float64))
        correct = bool(np.allclose(r, expected, rtol=1e-5))
        comm_time = 0.0
    else:
        world = world or SimWorld(n_ranks)
        bounds = np.linspace(0, n, n_ranks + 1, dtype=int)
        chunks: List[slice] = [
            slice(bounds[i], bounds[i + 1]) for i in range(n_ranks)
        ]
        for _ in range(repeats):
            t0 = time.perf_counter()
            for sl in chunks:
                saxpy_kernel(r[sl], x[sl], y[sl])
            best = min(best, time.perf_counter() - t0)
        partial = [float(np.sum(r[sl], dtype=np.float64)) for sl in chunks]
        totals = world.allreduce(partial, op=lambda a, b: a + b)
        checksum = totals[0]
        correct = bool(np.allclose(r, expected, rtol=1e-5))
        comm_time = world.sim_time
        # Perfectly parallel compute: each rank only did 1/p of the work.
        best = best / n_ranks + comm_time

    bytes_moved = 3 * n * x.itemsize  # read x, read y, write r
    bandwidth = bytes_moved / best / 1e9 if best > 0 else float("inf")
    return SaxpyResult(
        n=n,
        n_ranks=n_ranks,
        kernel_seconds=best,
        bandwidth_gbs=bandwidth,
        checksum=checksum,
        correct=correct,
    )


_PARSER = argparse.ArgumentParser(
    prog="saxpy", description="saxpy micro-benchmark (paper §4.1)"
)
_PARSER.add_argument("-n", type=int, default=1, help="problem size")
_PARSER.add_argument("--ranks", type=int, default=1, help="simulated MPI ranks")
_PARSER.add_argument("--repeats", type=int, default=3)


def run_command(argv: Optional[List[str]], ranks: int = 1,
                interconnect=None) -> SaxpyResult:
    """Run ``saxpy argv`` on max(``--ranks``, the launcher's ``ranks``)."""
    args = _PARSER.parse_args(argv)
    n_ranks = max(args.ranks, ranks)
    world = SimWorld(n_ranks, interconnect) if n_ranks > 1 else None
    return run_saxpy(args.n, n_ranks=n_ranks, repeats=args.repeats, world=world)


def main(argv: Optional[List[str]] = None) -> int:
    result = run_command(argv)
    print(result.report())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
