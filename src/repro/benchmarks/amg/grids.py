"""Problem generators for the AMG benchmark.

AMG2023 [21] solves linear systems from structured Poisson-type problems
(it drives hypre's BoomerAMG the same way).  We generate the same operator
classes with ``scipy.sparse``:

* 2D / 3D 5- and 7-point Poisson Laplacians on regular grids
  (AMG2023's default ``-problem 1``);
* anisotropic variants (AMG2023 ``-problem 2`` has jumps/anisotropy);
* a random-perturbation SPD matrix for robustness testing.

All matrices are CSR, symmetric positive definite, with the standard
row-sum-zero-plus-boundary structure AMG coarsening expects.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = ["poisson_2d", "poisson_3d", "poisson_3d_27pt", "anisotropic_2d",
           "problem_matrix"]


def _laplacian(dims: Sequence[int], weights: Sequence[float]) -> sp.csr_matrix:
    """Σ_d w_d·(−∂²/∂x_d²) on a regular grid with Dirichlet boundaries and
    x varying fastest: the (2·len(dims)+1)-point stencil with diagonal
    Σ_d 2·w_d and off-diagonals −w_d.

    Assembled straight into CSR with index arithmetic.  The arrays equal
    those of the Kronecker-sum construction Σ_d w_d·(I ⊗ … ⊗ L_1d ⊗ … ⊗ I),
    value for value and dtype for dtype, with each row's columns sorted.
    """
    for n in dims:
        if n < 1:
            raise ValueError(f"grid dimension must be >= 1, got {n}")
    n_total = int(np.prod(dims))
    node = np.arange(n_total)
    strides = np.cumprod([1, *dims[:-1]]).tolist()
    coords = [(node // stride) % n for stride, n in zip(strides, dims)]
    diag = 0.0
    for w in weights:
        diag += w * 2.0
    # One candidate entry per stencil point, in ascending column order:
    # backward neighbours along the slowest axis first, then the diagonal,
    # then forward neighbours along the fastest axis first.
    cols, vals = [], []
    for d in reversed(range(len(dims))):
        cols.append(np.where(coords[d] > 0, node - strides[d], -1))
        vals.append(-1.0 * weights[d])
    cols.append(node)
    vals.append(diag)
    for d in range(len(dims)):
        cols.append(np.where(coords[d] < dims[d] - 1, node + strides[d], -1))
        vals.append(-1.0 * weights[d])
    stencil = np.stack(cols, axis=1)
    present = stencil >= 0
    indptr = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    data = np.broadcast_to(np.array(vals), stencil.shape)[present]
    return sp.csr_matrix((data, stencil[present], indptr),
                         shape=(n_total, n_total))


def poisson_2d(nx: int, ny: int = 0) -> sp.csr_matrix:
    """5-point Laplacian on an nx × ny grid (Dirichlet boundaries)."""
    return _laplacian((nx, ny or nx), (1.0, 1.0))


def poisson_3d(nx: int, ny: int = 0, nz: int = 0) -> sp.csr_matrix:
    """7-point Laplacian on an nx × ny × nz grid — AMG2023's default."""
    return _laplacian((nx, ny or nx, nz or nx), (1.0, 1.0, 1.0))


def anisotropic_2d(nx: int, ny: int = 0, epsilon: float = 0.001) -> sp.csr_matrix:
    """Anisotropic diffusion  -u_xx - ε·u_yy: the classic AMG stress test
    (point smoothers alone stall; coarsening must follow the strong x
    direction)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return _laplacian((nx, ny or nx), (1.0, epsilon))


def problem_matrix(problem: int, n: int) -> Tuple[sp.csr_matrix, str]:
    """AMG2023-style problem selector: 1 = 3D Laplace, 2 = anisotropic 2D."""
    if problem == 1:
        return poisson_3d(n), f"3D 7-point Laplace {n}^3"
    if problem == 2:
        return anisotropic_2d(n, n), f"2D anisotropic {n}x{n} eps=0.001"
    if problem == 3:
        return poisson_3d_27pt(n), f"3D 27-point Laplace {n}^3"
    raise ValueError(f"unknown problem {problem}; supported: 1, 2, 3")


def poisson_3d_27pt(nx: int, ny: int = 0, nz: int = 0) -> sp.csr_matrix:
    """27-point 3D Laplacian: every node couples to its full 3x3x3
    neighbourhood (the denser stencil AMG2023's harder problems use).
    Built as 26·I − (E⊗E⊗E − I) with E the 0/±1 ones-tridiagonal, which is
    symmetric and strictly diagonally dominant on the (Dirichlet) boundary
    — hence SPD."""
    ny = ny or nx
    nz = nz or nx

    def ones_tridiag(n: int) -> sp.csr_matrix:
        off = np.ones(n - 1)
        return sp.diags([off, np.ones(n), off], [-1, 0, 1], format="csr")

    e = sp.kron(
        sp.kron(ones_tridiag(nz), ones_tridiag(ny), format="csr"),
        ones_tridiag(nx), format="csr",
    ).tocsr()
    n_total = nx * ny * nz
    a = 26.0 * sp.identity(n_total, format="csr") - (
        e - sp.identity(n_total, format="csr")
    )
    a = a.tocsr()
    a.eliminate_zeros()
    return a
