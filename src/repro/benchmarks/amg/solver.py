"""AMG2023-compatible benchmark driver.

Ties the pieces together the way the AMG2023 binary does: build the problem,
time the **setup** phase (hierarchy construction) and the **solve** phase
(AMG-PCG), and report the two figures of merit AMG2023 prints::

    Figure of Merit (FOM_Setup): <nnz / setup seconds>
    Figure of Merit (FOM_Solve): <nnz * iterations / solve seconds>

plus the convergence summary Benchpark's ``application.py`` regexes parse.

Parallel runs are block-row decompositions: the numerics are computed once
(the result is identical regardless of decomposition — that's the point of
the benchmark) while communication time per cycle is modeled from the
hierarchy's per-level halo volumes through SimMPI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.caliper import region

from ..simmpi import SimWorld
from .cycles import SolveStats, amg_solve, pcg_solve
from .grids import problem_matrix
from .hierarchy import Hierarchy, build_hierarchy

__all__ = ["AmgResult", "run_amg", "model_comm_per_cycle"]


@dataclass
class AmgResult:
    problem: str
    n_rows: int
    nnz: int
    n_ranks: int
    num_levels: int
    operator_complexity: float
    setup_seconds: float
    solve_seconds: float
    comm_seconds: float
    stats: SolveStats

    @property
    def fom_setup(self) -> float:
        return self.nnz / self.setup_seconds if self.setup_seconds > 0 else 0.0

    @property
    def fom_solve(self) -> float:
        total = self.solve_seconds + self.comm_seconds
        if total <= 0:
            return 0.0
        return self.nnz * max(self.stats.iterations, 1) / total

    def report(self) -> str:
        lines = [
            f"AMG2023 benchmark: {self.problem}",
            f"rows = {self.n_rows}, nnz = {self.nnz}, ranks = {self.n_ranks}",
            f"levels = {self.num_levels}, "
            f"operator complexity = {self.operator_complexity:.3f}",
            f"setup time: {self.setup_seconds:.6f} s",
            f"solve time: {self.solve_seconds + self.comm_seconds:.6f} s",
            f"iterations: {self.stats.iterations}",
            f"relative residual: {self.stats.final_relative_residual:.6e}",
            f"convergence factor: {self.stats.average_convergence_factor:.4f}",
            f"Figure of Merit (FOM_Setup): {self.fom_setup:.6e}",
            f"Figure of Merit (FOM_Solve): {self.fom_solve:.6e}",
            f"solver {'converged' if self.stats.converged else 'DID NOT converge'}",
        ]
        return "\n".join(lines)


def model_comm_per_cycle(h: Hierarchy, world: SimWorld) -> float:
    """Simulated communication seconds for one V-cycle at ``world.size``
    ranks: a halo exchange per smoothing sweep per level (surface-to-volume
    block-row decomposition) plus one small allreduce for the residual norm.
    """
    p = world.size
    if p <= 1:
        return 0.0
    before = world.sim_time
    for level in h.levels:
        rows_per_rank = max(level.n // p, 1)
        avg_row_nnz = level.nnz / max(level.n, 1)
        # Halo width ≈ one row-block boundary each side; volume scales with
        # the interface size ~ (rows_per_rank)^(2/3) for 3D problems.
        interface_rows = max(int(rows_per_rank ** (2.0 / 3.0)), 1)
        halo_bytes = int(interface_rows * avg_row_nnz * 8)
        world.halo_exchange(neighbors=2, m_bytes=halo_bytes)
    world.allreduce([0.0] * p)  # residual norm
    return world.sim_time - before


def run_amg(
    problem: int = 1,
    n: int = 16,
    n_ranks: int = 1,
    solver: str = "pcg",
    smoother: str = "jacobi",
    gamma: int = 1,
    tol: float = 1e-8,
    max_iterations: int = 200,
    theta: Optional[float] = None,
    world: Optional[SimWorld] = None,
) -> AmgResult:
    """Run the AMG benchmark end to end (setup + solve + FOMs).

    The phases the paper plans to instrument (§5: "we plan to annotate the
    benchmarks with Caliper") are regions on the active Caliper session,
    if any: an ``amg2023`` region over ``problem``/``setup``/``solve``, with
    Adiak-style run metadata attached at flush time by the caller.
    """
    if theta is None:
        # Per-problem strength thresholds: the 27-point stencil's couplings
        # are uniformly 1/26 of the diagonal, so the 7-point default (0.08)
        # would filter every connection and collapse the hierarchy.
        theta = {1: 0.08, 2: 0.25, 3: 0.02}[problem]

    with region("amg2023"):
        with region("problem"):
            a, desc = problem_matrix(problem, n)
            rng = np.random.default_rng(seed=42)
            b = rng.random(a.shape[0])

        with region("setup"):
            t0 = time.perf_counter()
            h = build_hierarchy(a, theta=theta)
            setup_seconds = time.perf_counter() - t0

        with region("solve"):
            if solver == "pcg":
                x, stats = pcg_solve(h, b, tol=tol,
                                     max_iterations=max_iterations,
                                     gamma=gamma, smoother=smoother)
            elif solver == "amg":
                x, stats = amg_solve(h, b, tol=tol,
                                     max_iterations=max_iterations,
                                     gamma=gamma, smoother=smoother)
            else:
                raise ValueError(f"unknown solver {solver!r}; use 'pcg' or 'amg'")

    comm_seconds = 0.0
    if n_ranks > 1:
        world = world or SimWorld(n_ranks)
        per_cycle = model_comm_per_cycle(h, world)
        comm_seconds = per_cycle * max(stats.iterations, 1)
        # Compute itself parallelizes over block rows.
        stats.solve_seconds /= n_ranks
        setup_seconds /= n_ranks

    return AmgResult(
        problem=desc,
        n_rows=a.shape[0],
        nnz=a.nnz,
        n_ranks=n_ranks,
        num_levels=h.num_levels,
        operator_complexity=h.operator_complexity,
        setup_seconds=setup_seconds,
        solve_seconds=stats.solve_seconds,
        comm_seconds=comm_seconds,
        stats=stats,
    )
