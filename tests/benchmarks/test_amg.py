"""Tests for the AMG solver substrate (grids, hierarchy, cycles, driver)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.benchmarks.amg import (
    aggregate,
    amg_solve,
    anisotropic_2d,
    build_hierarchy,
    gauss_seidel,
    jacobi,
    pcg_solve,
    poisson_2d,
    poisson_3d,
    problem_matrix,
    run_amg,
    strength_graph,
)


class TestGrids:
    def test_poisson_2d_shape_and_symmetry(self):
        a = poisson_2d(8)
        assert a.shape == (64, 64)
        assert (a - a.T).nnz == 0

    def test_poisson_2d_spd(self):
        a = poisson_2d(6)
        eigs = np.linalg.eigvalsh(a.toarray())
        assert eigs.min() > 0

    def test_poisson_3d_stencil(self):
        n = 4
        a = poisson_3d(n)
        assert a.shape == (n ** 3, n ** 3)
        assert a.nnz == 7 * n ** 3 - 6 * n ** 2
        # A node loses one neighbour per coordinate on the boundary:
        # interior 7, face 6, edge 5, corner 4 entries per row.
        counts = np.bincount(a.getnnz(axis=1), minlength=8)
        assert counts[7] == (n - 2) ** 3
        assert counts[6] == 6 * (n - 2) ** 2
        assert counts[5] == 12 * (n - 2)
        assert counts[4] == 8

    def test_poisson_3d_is_x_fastest(self):
        nx, ny, nz = 3, 4, 5
        expected = np.zeros((nx * ny * nz,) * 2)
        for k in range(nz):
            for j in range(ny):
                for i in range(nx):
                    row = i + nx * (j + ny * k)
                    expected[row, row] = 6.0
                    for di, dj, dk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                        for sign in (-1, 1):
                            ii, jj, kk = i + sign * di, j + sign * dj, k + sign * dk
                            if 0 <= ii < nx and 0 <= jj < ny and 0 <= kk < nz:
                                expected[row, ii + nx * (jj + ny * kk)] = -1.0
        np.testing.assert_array_equal(poisson_3d(nx, ny, nz).toarray(), expected)

    def test_anisotropic_epsilon_validated(self):
        with pytest.raises(ValueError):
            anisotropic_2d(8, epsilon=0)

    def test_problem_selector(self):
        a1, d1 = problem_matrix(1, 8)
        a2, d2 = problem_matrix(2, 8)
        a3, d3 = problem_matrix(3, 8)
        assert "3D" in d1 and "anisotropic" in d2 and "27-point" in d3
        with pytest.raises(ValueError):
            problem_matrix(4, 8)

    def test_27pt_stencil(self):
        from repro.benchmarks.amg import poisson_3d_27pt
        import numpy as np

        a = poisson_3d_27pt(4)
        assert a.shape == (64, 64)
        assert (a - a.T).nnz == 0
        # interior node couples to its full 3x3x3 neighbourhood
        assert a.getnnz(axis=1).max() == 27
        eigs = np.linalg.eigvalsh(a.toarray())
        assert eigs.min() > 0  # SPD

    def test_27pt_solver_converges_multilevel(self):
        res = run_amg(problem=3, n=12)
        assert res.stats.converged
        assert res.num_levels >= 2  # theta default must not collapse it

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            poisson_2d(0)


class TestSmoothers:
    def test_jacobi_reduces_residual(self):
        a = poisson_2d(10)
        b = np.ones(a.shape[0])
        x = np.zeros_like(b)
        r0 = np.linalg.norm(b - a @ x)
        x = jacobi(a, x, b, iterations=10)
        assert np.linalg.norm(b - a @ x) < r0

    def test_gauss_seidel_reduces_residual_faster(self):
        a = poisson_2d(10)
        b = np.ones(a.shape[0])
        xj = jacobi(a, np.zeros_like(b), b, iterations=5)
        xg = gauss_seidel(a, np.zeros_like(b), b, iterations=5)
        rj = np.linalg.norm(b - a @ xj)
        rg = np.linalg.norm(b - a @ xg)
        assert rg < rj

    def test_jacobi_zero_diagonal_rejected(self):
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            jacobi(a, np.zeros(2), np.ones(2))

    def test_smoother_is_fixed_point_at_solution(self):
        a = poisson_2d(6)
        x_exact = np.linalg.solve(a.toarray(), np.ones(a.shape[0]))
        out = jacobi(a, x_exact.copy(), np.ones(a.shape[0]), iterations=3)
        np.testing.assert_allclose(out, x_exact, atol=1e-10)


class TestHierarchy:
    def test_strength_graph_symmetric_no_diagonal(self):
        s = strength_graph(poisson_2d(8))
        assert (s - s.T).nnz == 0
        assert np.all(s.diagonal() == 0)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            strength_graph(poisson_2d(4), theta=-0.1)

    def test_aggregate_covers_all_nodes(self):
        s = strength_graph(poisson_2d(10))
        agg = aggregate(s)
        assert np.all(agg >= 0)
        assert agg.max() < len(agg)

    def test_aggregates_are_contiguous_ids(self):
        s = strength_graph(poisson_2d(10))
        agg = aggregate(s)
        assert set(np.unique(agg)) == set(range(agg.max() + 1))

    def test_hierarchy_coarsens(self):
        h = build_hierarchy(poisson_2d(20))
        assert h.num_levels >= 2
        sizes = [l.n for l in h.levels]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_coarse_grid_is_galerkin(self):
        h = build_hierarchy(poisson_2d(12))
        l0 = h.levels[0]
        expected = (l0.r @ l0.a @ l0.p).toarray()
        np.testing.assert_allclose(h.levels[1].a.toarray(), expected, atol=1e-12)

    def test_coarse_grids_stay_spd(self):
        h = build_hierarchy(poisson_2d(12))
        for level in h.levels[1:]:
            eigs = np.linalg.eigvalsh(level.a.toarray())
            assert eigs.min() > -1e-10

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            build_hierarchy(sp.csr_matrix(np.ones((3, 4))))

    def test_operator_complexity_reasonable(self):
        h = build_hierarchy(poisson_3d(12))
        assert 1.0 < h.operator_complexity < 15.0


class TestSolvers:
    @pytest.mark.parametrize("maker,n", [(poisson_2d, 24), (poisson_3d, 10)])
    def test_amg_vcycle_converges(self, maker, n):
        a = maker(n)
        h = build_hierarchy(a)
        b = np.ones(a.shape[0])
        x, stats = amg_solve(h, b, tol=1e-8)
        assert stats.converged
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) < 1e-7

    def test_pcg_converges_fewer_iterations(self):
        a = poisson_2d(30)
        h = build_hierarchy(a)
        b = np.random.default_rng(0).random(a.shape[0])
        _, amg_stats = amg_solve(h, b, tol=1e-8)
        _, pcg_stats = pcg_solve(h, b, tol=1e-8)
        assert pcg_stats.converged
        assert pcg_stats.iterations <= amg_stats.iterations

    def test_wcycle_converges_in_fewer_or_equal_iterations(self):
        a = poisson_2d(24)
        h = build_hierarchy(a)
        b = np.ones(a.shape[0])
        _, v_stats = amg_solve(h, b, gamma=1)
        _, w_stats = amg_solve(h, b, gamma=2)
        assert w_stats.converged
        assert w_stats.iterations <= v_stats.iterations

    def test_scalable_convergence(self):
        """AMG's whole point: iteration count ~independent of problem size."""
        iters = []
        for n in (12, 24, 48):
            a = poisson_2d(n)
            h = build_hierarchy(a)
            b = np.ones(a.shape[0])
            _, stats = pcg_solve(h, b, tol=1e-8)
            iters.append(stats.iterations)
        assert max(iters) <= min(iters) + 6

    def test_zero_rhs(self):
        h = build_hierarchy(poisson_2d(8))
        x, stats = amg_solve(h, np.zeros(64))
        assert stats.converged
        assert np.all(x == 0)

    def test_anisotropic_pcg_still_converges(self):
        a = anisotropic_2d(20)
        h = build_hierarchy(a, theta=0.25)
        b = np.ones(a.shape[0])
        x, stats = pcg_solve(h, b, tol=1e-6, max_iterations=300)
        assert stats.converged

    def test_gauss_seidel_smoothed_solve(self):
        a = poisson_2d(16)
        h = build_hierarchy(a)
        b = np.ones(a.shape[0])
        _, stats = amg_solve(h, b, smoother="gauss_seidel")
        assert stats.converged

    @pytest.mark.parametrize("solve,max_iterations,extra", [
        (pcg_solve, 200, 0),  # converged: one application per iteration
        (pcg_solve, 3, 1),    # capped: the last iteration preconditions too
        (amg_solve, 200, 0),
    ])
    def test_solve_clock_covers_every_cycle(self, monkeypatch, solve,
                                            max_iterations, extra):
        """solve_seconds must include every top-level cycle, PCG's first
        preconditioner application too.  A fake clock advances by one per
        restriction from the finest level, i.e. once per top-level cycle."""
        from types import SimpleNamespace

        from repro.benchmarks.amg import cycles

        h = build_hierarchy(poisson_3d(10))
        clock = [0.0]

        class TickingRestriction:
            def __init__(self, r):
                self.r = r

            def __matmul__(self, v):
                clock[0] += 1.0
                return self.r @ v

        h.levels[0].r = TickingRestriction(h.levels[0].r)
        monkeypatch.setattr(cycles, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        b = np.random.default_rng(42).random(h.levels[0].n)
        _, stats = solve(h, b, max_iterations=max_iterations)
        assert stats.converged == (max_iterations == 200)
        assert stats.solve_seconds == clock[0]
        assert stats.solve_seconds == stats.iterations + extra

    @given(st.integers(min_value=6, max_value=20))
    @settings(max_examples=8, deadline=None)
    def test_solution_matches_direct(self, n):
        a = poisson_2d(n)
        h = build_hierarchy(a)
        b = np.random.default_rng(n).random(a.shape[0])
        x, stats = pcg_solve(h, b, tol=1e-10)
        x_direct = np.linalg.solve(a.toarray(), b)
        np.testing.assert_allclose(x, x_direct, rtol=1e-5, atol=1e-8)


class TestDriver:
    def test_run_amg_foms(self):
        res = run_amg(problem=1, n=10)
        assert res.fom_setup > 0
        assert res.fom_solve > 0
        assert res.stats.converged

    def test_report_markers(self):
        rep = run_amg(problem=1, n=8).report()
        assert "Figure of Merit (FOM_Setup):" in rep
        assert "Figure of Merit (FOM_Solve):" in rep
        assert "converged" in rep

    def test_parallel_adds_comm_time(self):
        serial = run_amg(problem=1, n=10, n_ranks=1)
        parallel = run_amg(problem=1, n=10, n_ranks=16)
        assert serial.comm_seconds == 0
        assert parallel.comm_seconds > 0
        assert parallel.stats.iterations == serial.stats.iterations

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            run_amg(solver="gmres")

    def test_cli(self, capsys):
        from repro.benchmarks.amg2023 import main

        assert main(["-problem", "1", "-n", "8"]) == 0
        assert "FOM_Solve" in capsys.readouterr().out
