import time

import numpy as np
import pytest

from envlp import QpProblem, QpSolution, kkt_residuals, solve
from envlp.errors import DimensionMismatch, NotConverged


def random_feasible_problem(rng, n=30, d=4, with_ref=False):
    """Random rows with right-hand sides kept below a known interior point."""
    a = rng.normal(size=(n, d))
    x_ref = rng.normal(size=d)
    g = a @ x_ref - rng.uniform(0.05, 1.0, size=n)
    q = rng.uniform(0.5, 3.0, size=d)
    problem = QpProblem(q_diag=q, a_rows=a, g=g)
    return (problem, x_ref) if with_ref else problem


class TestSolveExamples:
    def test_single_active_constraint(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[3.0])
        s = solve(p)
        assert s.converged
        np.testing.assert_allclose(s.x, [3.0], atol=1e-12)
        np.testing.assert_allclose(s.lam, [6.0], atol=1e-10)

    def test_inactive_constraint(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[-1.0])
        s = solve(p)
        assert s.converged
        np.testing.assert_allclose(s.x, [0.0], atol=1e-12)
        np.testing.assert_allclose(s.lam, [0.0], atol=1e-12)

    def test_dc_envelope_is_grid_max(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=12) + 1.0
        p = QpProblem(q_diag=[1.0], a_rows=np.ones((12, 1)), g=g)
        s = solve(p)
        assert s.converged
        assert abs(s.x[0] - max(g.max(), 0.0)) <= 1e-9


class TestKktResiduals:
    def test_exact_solution_has_zero_residuals(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[3.0])
        s = QpSolution(
            x=np.array([3.0]),
            lam=np.array([6.0]),
            iterations=0,
            converged=True,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        assert kkt_residuals(p, s) == (0.0, 0.0, 0.0, 0.0)

    def test_perturbed_primal_shows_complementarity(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[3.0])
        s = QpSolution(
            x=np.array([3.1]),
            lam=np.array([6.0]),
            iterations=0,
            converged=False,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        primal, dual, comp, stat = kkt_residuals(p, s)
        assert primal == 0.0
        assert dual == 0.0
        assert comp == pytest.approx(0.6, abs=1e-12)

    def test_zero_vector_on_slack_problem(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[-1.0])
        s = QpSolution(
            x=np.array([0.0]),
            lam=np.array([0.0]),
            iterations=0,
            converged=True,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        assert kkt_residuals(p, s) == (0.0, 0.0, 0.0, 0.0)

    def test_dimension_mismatch(self):
        p = QpProblem(q_diag=[1.0, 1.0], a_rows=[[1.0, 0.0]], g=[0.0])
        s = QpSolution(
            x=np.array([0.0]),
            lam=np.array([0.0]),
            iterations=0,
            converged=True,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        with pytest.raises(DimensionMismatch):
            kkt_residuals(p, s)


class TestConvergedCertificates:
    def test_residuals_recompute_below_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_feasible_problem(rng)
            s = solve(p)
            assert s.converged
            primal, dual, comp, stat = kkt_residuals(p, s)
            assert primal <= 1e-9
            assert dual == 0.0
            assert comp <= 1e-8
            assert stat <= 1e-8

    def test_objective_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_feasible_problem(rng)
            s = solve(p)
            primal_obj = p.objective(s.x)
            dual_obj = float(s.lam @ p.g - primal_obj)
            assert dual_obj <= primal_obj + 1e-12
            assert primal_obj - dual_obj <= 1e-7 * (1 + abs(primal_obj))


class TestInvariances:
    def test_permutation_of_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_feasible_problem(rng)
            perm = rng.permutation(p.n)
            p2 = QpProblem(q_diag=p.q_diag, a_rows=p.a_rows[perm], g=p.g[perm])
            x1 = solve(p).x
            x2 = solve(p2).x
            assert np.max(np.abs(x1 - x2)) <= 1e-7

    def test_duplicated_row(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_feasible_problem(rng)
            k = int(rng.integers(0, p.n))
            p2 = QpProblem(
                q_diag=p.q_diag,
                a_rows=np.vstack([p.a_rows, p.a_rows[k]]),
                g=np.concatenate([p.g, [p.g[k]]]),
            )
            x1 = solve(p).x
            x2 = solve(p2).x
            assert np.max(np.abs(x1 - x2)) <= 1e-7

    def test_extra_constraint_never_cheapens(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p, x_ref = random_feasible_problem(rng, with_ref=True)
            base = p.objective(solve(p).x)
            # keep x_ref feasible so the tightened problem stays solvable
            row = rng.normal(size=p.d)
            extra = QpProblem(
                q_diag=p.q_diag,
                a_rows=np.vstack([p.a_rows, row]),
                g=np.concatenate([p.g, [row @ x_ref - 0.05]]),
            )
            tighter = extra.objective(solve(extra).x)
            assert tighter >= base - 1e-9

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(12)
        p = random_feasible_problem(rng)
        cold = solve(p)
        warm = solve(p, initial_lam=cold.lam)
        assert warm.converged
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-9


class TestFailureModes:
    def test_infeasible_problem_raises_not_converged(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0], [-1.0]], g=[1.0, 1.0])
        start = time.perf_counter()
        with pytest.raises(NotConverged, match="^qp: ") as info:
            solve(p)
        assert time.perf_counter() - start < 1.0
        best = info.value.solution
        assert best is not None
        assert not best.converged
        assert best.primal_violation > 0.0

    def test_initial_lam_length_checked(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[0.0])
        with pytest.raises(DimensionMismatch):
            solve(p, initial_lam=np.zeros(3))

    def test_rows_copied_only_when_writeable(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        problem = QpProblem(q_diag=[1.0, 1.0], a_rows=rows, g=[0.0, 0.0])
        assert problem.a_rows is not rows and not np.shares_memory(problem.a_rows, rows)
        assert rows.flags.writeable and not problem.a_rows.flags.writeable
        rows.setflags(write=False)
        problem = QpProblem(q_diag=[1.0, 1.0], a_rows=rows, g=[0.0, 0.0])
        assert problem.a_rows is rows

    def test_problem_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            QpProblem(q_diag=[1.0, 2.0], a_rows=[[1.0]], g=[0.0])
        with pytest.raises(DimensionMismatch):
            QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[0.0, 1.0])
        with pytest.raises(ValueError):
            QpProblem(q_diag=[0.0], a_rows=[[1.0]], g=[0.0])
