"""AMG setup phase: build the multigrid hierarchy.

Smoothed-aggregation AMG (Vaněk/Mandel/Brezina), the standard algebraic
construction:

1. **Strength of connection** — filter weak couplings
   (|a_ij| ≥ θ·√(a_ii·a_jj)).
2. **Aggregation** — greedy root-node aggregation over the strength graph.
   This is the one inherently sequential pass of the set-up (each node's
   choice depends on the nodes visited before it), so it runs over Python
   lists rather than per-row NumPy indexing.
3. **Tentative prolongator** — piecewise-constant injection per aggregate.
4. **Prolongator smoothing** — one weighted-Jacobi step applied to P
   (this is what separates SA from plain aggregation and restores grid-
   independent convergence for Poisson).
5. **Galerkin product** — A_coarse = Pᵀ A P; recurse until the coarse
   problem is small enough for a direct solve.

The hierarchy records per-level operator complexity, which feeds both the
benchmark's FOM (AMG2023 reports setup cost per nnz) and the parallel
communication model (halo volume per level).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

__all__ = ["Level", "Hierarchy", "build_hierarchy", "strength_graph", "aggregate"]


@dataclass
class Level:
    """One level of the multigrid hierarchy."""

    a: sp.csr_matrix
    p: Optional[sp.csr_matrix] = None  # prolongation to THIS level from coarser
    r: Optional[sp.csr_matrix] = None  # restriction from this level to coarser

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def nnz(self) -> int:
        return self.a.nnz


@dataclass
class Hierarchy:
    levels: List[Level] = field(default_factory=list)
    setup_seconds: float = 0.0
    theta: float = 0.08
    max_levels: int = 25
    coarse_size: int = 50

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def operator_complexity(self) -> float:
        """Σ nnz(A_l) / nnz(A_0) — the standard AMG cost metric."""
        fine = self.levels[0].nnz
        return sum(l.nnz for l in self.levels) / fine if fine else 0.0

    @property
    def grid_complexity(self) -> float:
        fine = self.levels[0].n
        return sum(l.n for l in self.levels) / fine if fine else 0.0

    def summary(self) -> str:
        lines = ["level      rows        nnz"]
        for i, level in enumerate(self.levels):
            lines.append(f"{i:>5} {level.n:>10} {level.nnz:>10}")
        lines.append(f"operator complexity = {self.operator_complexity:.3f}")
        lines.append(f"grid complexity     = {self.grid_complexity:.3f}")
        return "\n".join(lines)


def strength_graph(a: sp.csr_matrix, theta: float = 0.08) -> sp.csr_matrix:
    """Symmetric strength-of-connection filter:
    keep a_ij with |a_ij| ≥ θ √(a_ii a_jj), i ≠ j."""
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    d = np.abs(a.diagonal())
    d[d == 0] = 1.0
    scale = np.sqrt(d)
    coo = a.tocoo()
    mask = (coo.row != coo.col) & (
        np.abs(coo.data) >= theta * scale[coo.row] * scale[coo.col]
    )
    s = sp.csr_matrix(
        (np.ones(mask.sum()), (coo.row[mask], coo.col[mask])), shape=a.shape
    )
    return s + s.T  # symmetrize


def aggregate(strength: sp.csr_matrix) -> np.ndarray:
    """Greedy root-node aggregation.

    Pass 1: pick unaggregated nodes whose strong neighbours are all
    unaggregated as roots; the root plus neighbours form an aggregate.
    Pass 2: attach leftovers to the aggregate of their first assigned strong
    neighbour in column order (or make them singletons).  Returns aggregate
    id per node.  Both passes walk Python lists: each visit depends on the
    ones before it, and a list costs far less per row than indexing NumPy
    arrays a handful of neighbours at a time.
    """
    indptr = strength.indptr.tolist()
    indices = strength.indices.tolist()
    agg = [-1] * strength.shape[0]
    next_agg = 0
    # Pass 1: roots
    for i, start in enumerate(indptr[:-1]):
        if agg[i] != -1:
            continue
        nbrs = indices[start:indptr[i + 1]]
        if all(agg[j] == -1 for j in nbrs):
            agg[i] = next_agg
            for j in nbrs:
                agg[j] = next_agg
            next_agg += 1
    # Pass 2: attach stragglers to a neighbouring aggregate
    for i, start in enumerate(indptr[:-1]):
        if agg[i] != -1:
            continue
        for j in indices[start:indptr[i + 1]]:
            if agg[j] != -1:
                agg[i] = agg[j]
                break
        else:
            agg[i] = next_agg
            next_agg += 1
    return np.array(agg, dtype=np.int64)


def _tentative_prolongator(agg: np.ndarray) -> sp.csr_matrix:
    n = agg.shape[0]
    n_coarse = int(agg.max()) + 1
    p = sp.csr_matrix(
        (np.ones(n), (np.arange(n), agg)), shape=(n, n_coarse)
    )
    return p


def _smooth_prolongator(a: sp.csr_matrix, p: sp.csr_matrix,
                        omega: float = 2.0 / 3.0) -> sp.csr_matrix:
    d = a.diagonal()
    d[d == 0] = 1.0
    dinv = sp.diags(omega / d)
    return (p - dinv @ (a @ p)).tocsr()


def build_hierarchy(
    a: sp.csr_matrix,
    theta: float = 0.08,
    max_levels: int = 25,
    coarse_size: int = 50,
    smooth_p: bool = True,
) -> Hierarchy:
    """Run the full SA-AMG setup phase on matrix ``a``."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    a = a.tocsr()
    t0 = time.perf_counter()
    h = Hierarchy(theta=theta, max_levels=max_levels, coarse_size=coarse_size)
    h.levels.append(Level(a=a))
    while (
        h.levels[-1].n > coarse_size
        and h.num_levels < max_levels
    ):
        fine = h.levels[-1].a
        s = strength_graph(fine, theta)
        agg = aggregate(s)
        n_coarse = int(agg.max()) + 1
        if n_coarse >= fine.shape[0]:
            break  # aggregation stalled; stop coarsening
        p = _tentative_prolongator(agg)
        if smooth_p:
            p = _smooth_prolongator(fine, p)
        r = p.T.tocsr()
        a_coarse = (r @ fine @ p).tocsr()
        h.levels[-1].p = p
        h.levels[-1].r = r
        h.levels.append(Level(a=a_coarse))
    h.setup_seconds = time.perf_counter() - t0
    return h
