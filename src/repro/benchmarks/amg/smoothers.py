"""Smoothers for the AMG hierarchy.

Weighted Jacobi and Gauss–Seidel, the two point smoothers AMG2023/hypre
offer for CPU runs (hypre relax types 0 and 3/6).  Jacobi is fully
vectorized; Gauss–Seidel uses a sparse triangular solve (SciPy) so it stays
O(nnz) — no Python-level loops over rows here.  (The set-up's greedy
aggregation is the one inherently sequential pass in the AMG proxy; it
walks Python lists, see :func:`repro.benchmarks.amg.hierarchy.aggregate`.)
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

__all__ = ["jacobi", "gauss_seidel", "make_smoother", "SMOOTHERS"]


Smoother = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _bind_jacobi(a: sp.csr_matrix, iterations: int, omega: float) -> Smoother:
    d = a.diagonal()
    if np.any(d == 0):
        raise ValueError("Jacobi smoother requires a nonzero diagonal")
    dinv = omega / d

    def smooth(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        for _ in range(iterations):
            x = x + dinv * (b - a @ x)
        return x

    return smooth


def _bind_gauss_seidel(a: sp.csr_matrix, iterations: int,
                       forward: bool = True) -> Smoother:
    lower = sp.tril(a, format="csr")
    upper = a - lower

    def smooth(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        for _ in range(iterations):
            rhs = b - upper @ x
            x = spsolve_triangular(lower, rhs, lower=forward)
        return x

    return smooth


def jacobi(
    a: sp.csr_matrix,
    x: np.ndarray,
    b: np.ndarray,
    iterations: int = 1,
    omega: float = 2.0 / 3.0,
) -> np.ndarray:
    """Weighted Jacobi: x ← x + ω D⁻¹ (b − A x)."""
    return _bind_jacobi(a, iterations, omega)(x, b)


def gauss_seidel(
    a: sp.csr_matrix,
    x: np.ndarray,
    b: np.ndarray,
    iterations: int = 1,
    forward: bool = True,
) -> np.ndarray:
    """Gauss–Seidel via triangular solve: (D+L) x_new = b − U x_old."""
    return _bind_gauss_seidel(a, iterations, forward)(x, b)


def make_smoother(name: str, a: sp.csr_matrix, iterations: int = 1,
                  omega: float = 2.0 / 3.0) -> Smoother:
    """Bind the named smoother to matrix ``a``, returning smooth(x, b) → x.

    What depends only on ``a`` (Jacobi's ω/diag, Gauss–Seidel's triangular
    split) is computed here once, so a solve binds each level once and
    reuses the result on every sweep.
    """
    if name == "jacobi":
        return _bind_jacobi(a, iterations, omega)
    if name == "gauss_seidel":
        return _bind_gauss_seidel(a, iterations)
    raise ValueError(f"unknown smoother {name!r}; known: {sorted(SMOOTHERS)}")


SMOOTHERS = {"jacobi", "gauss_seidel"}
