"""AMG solve phase: multigrid cycling and preconditioned conjugate gradient.

V- and W-cycles over a :class:`~repro.benchmarks.amg.hierarchy.Hierarchy`,
with a dense direct solve on the coarsest level, plus:

* :func:`amg_solve` — standalone AMG iteration to a residual tolerance
  (AMG2023's ``-solver 1`` style), and
* :func:`pcg_solve` — CG preconditioned with one AMG cycle per iteration
  (AMG2023's default ``-solver 0``, hypre's AMG-PCG).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .hierarchy import Hierarchy
from .smoothers import Smoother, make_smoother

__all__ = ["cycle", "amg_solve", "pcg_solve", "SolveStats"]


@dataclass
class SolveStats:
    """Convergence record of one solve."""

    iterations: int = 0
    residuals: List[float] = field(default_factory=list)
    solve_seconds: float = 0.0
    converged: bool = False
    method: str = "amg"

    @property
    def final_relative_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("inf")

    @property
    def average_convergence_factor(self) -> float:
        if len(self.residuals) < 2 or self.residuals[0] == 0:
            return 0.0
        ratio = self.residuals[-1] / self.residuals[0]
        return float(ratio ** (1.0 / (len(self.residuals) - 1)))


def _bind(h: Hierarchy, smoother: str, start: int = 0
          ) -> Tuple[List[Optional[Smoother]], np.ndarray]:
    """What a cycle needs from levels ``start`` and below, computed once:
    the smoother bound to each non-coarsest level and the coarsest level's
    dense matrix.  Callers hold the result for one solve only."""
    smooths: List[Optional[Smoother]] = [None] * start
    smooths += [make_smoother(smoother, level.a) for level in h.levels[start:-1]]
    return smooths, h.levels[-1].a.toarray()


def _cycle(
    h: Hierarchy,
    smooths: List[Optional[Smoother]],
    coarse: np.ndarray,
    b: np.ndarray,
    x: Optional[np.ndarray],
    level: int,
    gamma: int,
    pre: int,
    post: int,
) -> np.ndarray:
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if x is None:
        x = np.zeros_like(b)
    if level == h.num_levels - 1:
        # Coarsest level: dense direct solve (size is <= coarse_size).
        return np.linalg.solve(coarse, b)

    a = h.levels[level].a
    smooth = smooths[level]
    for _ in range(pre):
        x = smooth(x, b)
    residual = b - a @ x
    coarse_b = h.levels[level].r @ residual
    coarse_x = np.zeros_like(coarse_b)
    for _ in range(gamma):
        coarse_x = _cycle(h, smooths, coarse, coarse_b, coarse_x, level + 1,
                          gamma, pre, post)
    x = x + h.levels[level].p @ coarse_x
    for _ in range(post):
        x = smooth(x, b)
    return x


def cycle(
    h: Hierarchy,
    b: np.ndarray,
    x: Optional[np.ndarray] = None,
    level: int = 0,
    gamma: int = 1,
    smoother: str = "jacobi",
    pre: int = 1,
    post: int = 1,
) -> np.ndarray:
    """One multigrid cycle (γ=1: V-cycle, γ=2: W-cycle) starting at level."""
    smooths, coarse = _bind(h, smoother, level)
    return _cycle(h, smooths, coarse, b, x, level, gamma, pre, post)


def amg_solve(
    h: Hierarchy,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 100,
    gamma: int = 1,
    smoother: str = "jacobi",
) -> tuple[np.ndarray, SolveStats]:
    """Standalone AMG iteration: repeat cycles until ||r||/||b|| < tol."""
    a = h.levels[0].a
    stats = SolveStats(method=f"amg-{'v' if gamma == 1 else 'w'}cycle")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0:
        stats.converged = True
        return np.zeros_like(b), stats
    x = np.zeros_like(b)
    t0 = time.perf_counter()
    smooths, coarse = _bind(h, smoother)
    stats.residuals.append(1.0)
    for _ in range(max_iterations):
        x = _cycle(h, smooths, coarse, b, x, 0, gamma, 1, 1)
        rel = float(np.linalg.norm(b - a @ x)) / norm_b
        stats.residuals.append(rel)
        stats.iterations += 1
        if rel < tol:
            stats.converged = True
            break
    stats.solve_seconds = time.perf_counter() - t0
    return x, stats


def pcg_solve(
    h: Hierarchy,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 500,
    gamma: int = 1,
    smoother: str = "jacobi",
) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradient with one AMG cycle as the preconditioner —
    AMG2023's default solver configuration."""
    a = h.levels[0].a
    stats = SolveStats(method="amg-pcg")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0:
        stats.converged = True
        return np.zeros_like(b), stats

    t0 = time.perf_counter()
    smooths, coarse = _bind(h, smoother)

    def precond(r: np.ndarray) -> np.ndarray:
        return _cycle(h, smooths, coarse, r, None, 0, gamma, 1, 1)

    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    stats.residuals.append(1.0)
    for _ in range(max_iterations):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0:
            break  # loss of positive-definiteness; bail out
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r)) / norm_b
        stats.residuals.append(rel)
        stats.iterations += 1
        if rel < tol:
            stats.converged = True
            break
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    stats.solve_seconds = time.perf_counter() - t0
    return x, stats
