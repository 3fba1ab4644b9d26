"""The AMG proxy against a straightforward reference, bit for bit.

The production kernels walk Python lists in ``aggregate``, assemble the
5/7-point Laplacians straight into CSR and bind each level's smoother once
per solve.  The oracles below are the plain formulations they replace:
per-row NumPy aggregation, Kronecker-sum assembly, and a cycle that
recomputes the smoother's diagonal or triangular split and densifies the
coarsest matrix on every visit.  Every array and list must be equal,
dtypes included — the arithmetic is unchanged, so no tolerance applies.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve_triangular

import repro.benchmarks.amg.hierarchy as hierarchy_mod
from repro.benchmarks.amg import (
    aggregate,
    amg_solve,
    anisotropic_2d,
    build_hierarchy,
    pcg_solve,
    poisson_2d,
    poisson_3d,
    poisson_3d_27pt,
)

# -- oracles ----------------------------------------------------------------


def oracle_aggregate(strength):
    n = strength.shape[0]
    indptr, indices = strength.indptr, strength.indices
    agg = -np.ones(n, dtype=np.int64)
    next_agg = 0
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        if np.all(agg[nbrs] == -1):
            agg[i] = next_agg
            agg[nbrs] = next_agg
            next_agg += 1
    for i in range(n):
        if agg[i] != -1:
            continue
        nbrs = indices[indptr[i]:indptr[i + 1]]
        assigned = nbrs[agg[nbrs] != -1]
        if assigned.size:
            agg[i] = agg[assigned[0]]
        else:
            agg[i] = next_agg
            next_agg += 1
    return agg


def _laplace_1d(n):
    if n < 1:
        raise ValueError(f"grid dimension must be >= 1, got {n}")
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr")


def _canonical(a):
    a = a.tocsr()
    a.eliminate_zeros()
    return a


def oracle_poisson_3d(nx, ny=0, nz=0):
    ny = ny or nx
    nz = nz or nx
    ix, iy, iz = (sp.identity(k, format="csr") for k in (nx, ny, nz))
    return _canonical(
        sp.kron(sp.kron(iz, iy), _laplace_1d(nx), format="csr")
        + sp.kron(sp.kron(iz, _laplace_1d(ny), format="csr"), ix, format="csr")
        + sp.kron(sp.kron(_laplace_1d(nz), iy, format="csr"), ix, format="csr")
    )


def oracle_poisson_2d(nx, ny=0):
    ny = ny or nx
    return _canonical(
        sp.kron(sp.identity(ny, format="csr"), _laplace_1d(nx), format="csr")
        + sp.kron(_laplace_1d(ny), sp.identity(nx, format="csr"), format="csr")
    )


def oracle_anisotropic_2d(nx, ny=0, epsilon=0.001):
    ny = ny or nx
    return _canonical(
        sp.kron(sp.identity(ny, format="csr"), _laplace_1d(nx), format="csr")
        + epsilon * sp.kron(_laplace_1d(ny), sp.identity(nx, format="csr"),
                            format="csr")
    )


def oracle_jacobi(a, x, b, omega=2.0 / 3.0):
    d = a.diagonal()
    if np.any(d == 0):
        raise ValueError("Jacobi smoother requires a nonzero diagonal")
    return x + (omega / d) * (b - a @ x)


def oracle_gauss_seidel(a, x, b):
    lower = sp.tril(a, format="csr")
    return spsolve_triangular(lower, b - (a - lower) @ x, lower=True)


ORACLE_SMOOTHERS = {"jacobi": oracle_jacobi, "gauss_seidel": oracle_gauss_seidel}


def oracle_cycle(h, b, x=None, level=0, gamma=1, smoother="jacobi"):
    a = h.levels[level].a
    if x is None:
        x = np.zeros_like(b)
    if level == h.num_levels - 1:
        return np.linalg.solve(a.toarray(), b)
    smooth = ORACLE_SMOOTHERS[smoother]
    x = smooth(a, x, b)
    coarse_b = h.levels[level].r @ (b - a @ x)
    coarse_x = np.zeros_like(coarse_b)
    for _ in range(gamma):
        coarse_x = oracle_cycle(h, coarse_b, coarse_x, level + 1, gamma, smoother)
    x = x + h.levels[level].p @ coarse_x
    return smooth(a, x, b)


def oracle_amg_solve(h, b, gamma, smoother, tol=1e-8, max_iterations=100):
    a = h.levels[0].a
    norm_b = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    residuals = [1.0]
    for _ in range(max_iterations):
        x = oracle_cycle(h, b, x, gamma=gamma, smoother=smoother)
        residuals.append(float(np.linalg.norm(b - a @ x)) / norm_b)
        if residuals[-1] < tol:
            break
    return x, residuals


def oracle_pcg_solve(h, b, gamma, smoother, tol=1e-8, max_iterations=500):
    a = h.levels[0].a
    norm_b = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    z = oracle_cycle(h, r, gamma=gamma, smoother=smoother)
    p = z.copy()
    rz = float(r @ z)
    residuals = [1.0]
    for _ in range(max_iterations):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        residuals.append(float(np.linalg.norm(r)) / norm_b)
        if residuals[-1] < tol:
            break
        z = oracle_cycle(h, r, gamma=gamma, smoother=smoother)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, residuals


# -- comparisons ------------------------------------------------------------


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_csr(got, want):
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert_same_array(getattr(got, name), getattr(want, name))


ORACLE_PROBLEMS = {
    1: (poisson_3d, oracle_poisson_3d, 0.08),
    2: (anisotropic_2d, oracle_anisotropic_2d, 0.25),
    3: (poisson_3d_27pt, poisson_3d_27pt, 0.02),
}

SOLVERS = {"pcg": (pcg_solve, oracle_pcg_solve),
           "amg": (amg_solve, oracle_amg_solve)}
MAX_ITERATIONS = 30


@st.composite
def strength_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    # Off-diagonal pairs only: j skips over i.
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, max(n - 2, 0)))
        .map(lambda e: (e[0], e[1] + (e[1] >= e[0]))),
        max_size=4 * (n - 1),
    ))
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)
    s = sp.csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
    return (s + s.T).tocsr()


class TestGreedyAggregation:
    @given(strength_graphs())
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_on_random_graphs(self, s):
        assert_same_array(aggregate(s), oracle_aggregate(s))

    def test_empty_graph(self):
        s = sp.csr_matrix((0, 0))
        assert_same_array(aggregate(s), oracle_aggregate(s))


class TestDirectAssembly:
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_poisson_3d_equals_kron_sum(self, nx, ny, nz):
        a = poisson_3d(nx, ny, nz)
        assert_same_csr(a, oracle_poisson_3d(nx, ny, nz))
        assert a.has_sorted_indices

    @given(st.integers(1, 16), st.integers(1, 16),
           st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_2d_generators_equal_kron_sum(self, nx, ny, epsilon):
        assert_same_csr(poisson_2d(nx, ny), oracle_poisson_2d(nx, ny))
        assert_same_csr(anisotropic_2d(nx, ny, epsilon),
                        oracle_anisotropic_2d(nx, ny, epsilon))

    def test_default_dimensions(self):
        assert_same_csr(poisson_3d(5), oracle_poisson_3d(5))
        assert_same_csr(poisson_3d(3, 4), oracle_poisson_3d(3, 4))
        assert_same_csr(poisson_2d(7), oracle_poisson_2d(7))

    @pytest.mark.parametrize("dims", [(0,), (-1,), (3, -2), (3, 3, -1), (0, 3, 3)])
    def test_dimension_below_one_rejected(self, dims):
        with pytest.raises(ValueError, match="grid dimension must be >= 1"):
            poisson_3d(*dims)


class TestBoundSolve:
    @given(
        problem=st.sampled_from([1, 2, 3]),
        n=st.integers(2, 12),
        smoother=st.sampled_from(["jacobi", "gauss_seidel"]),
        gamma=st.sampled_from([1, 2]),
        solver=st.sampled_from(["pcg", "amg"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_hierarchy_and_solve_equal_oracle(self, problem, n, smoother,
                                              gamma, solver):
        make, oracle_make, theta = ORACLE_PROBLEMS[problem]
        a, a_ref = make(n), oracle_make(n)
        assert_same_csr(a, a_ref)
        h = build_hierarchy(a, theta=theta)
        with mock.patch.object(hierarchy_mod, "aggregate", oracle_aggregate):
            h_ref = build_hierarchy(a_ref, theta=theta)
        assert h.num_levels == h_ref.num_levels
        for level, ref in zip(h.levels, h_ref.levels):
            assert_same_csr(level.a, ref.a)
            assert (level.p is None) == (ref.p is None)
            if level.p is not None:
                assert_same_csr(level.p, ref.p)
                assert_same_csr(level.r, ref.r)

        b = np.random.default_rng(n).random(a.shape[0])
        # Capped so Gauss–Seidel-preconditioned CG (which stalls: the
        # preconditioner is not symmetric) stays cheap; the cap still
        # leaves Jacobi PCG room to converge.
        solve, oracle_solve = SOLVERS[solver]
        x, stats = solve(h, b, gamma=gamma, smoother=smoother,
                         max_iterations=MAX_ITERATIONS)
        x_ref, residuals = oracle_solve(h_ref, b, gamma, smoother,
                                        max_iterations=MAX_ITERATIONS)
        assert_same_array(x, x_ref)
        assert stats.residuals == residuals
        assert stats.iterations == len(residuals) - 1

    def test_zero_diagonal_still_raises_on_pcg_path(self):
        h = build_hierarchy(poisson_3d(6))
        assert h.num_levels >= 2
        a = h.levels[0].a.tolil()
        a[5, 5] = 0.0
        h.levels[0].a = a.tocsr()
        b = np.ones(h.levels[0].n)
        with pytest.raises(ValueError, match="nonzero diagonal"):
            oracle_pcg_solve(h, b, 1, "jacobi")
        with pytest.raises(ValueError, match="nonzero diagonal"):
            pcg_solve(h, b, smoother="jacobi")
