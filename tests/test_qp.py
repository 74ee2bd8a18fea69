import math
import time

import numpy as np
import pytest

from envlp import (
    PeriodicSignal,
    QpProblem,
    QpSolution,
    build_constraints,
    kkt_residuals,
    phasor_matrix,
    solve,
)
from envlp import qp, solve_appopt
from envlp.errors import NotConverged
from envlp.qp import TOL_FEAS, TOL_STAT
from envlp.solver import _GridProblem

from conftest import BENCH_FAMILIES, family_signal


def random_feasible_problem(rng, n=30, d=4, with_ref=False):
    """Random rows with right-hand sides kept below a known interior point."""
    a = rng.normal(size=(n, d))
    x_ref = rng.normal(size=d)
    g = a @ x_ref - rng.uniform(0.05, 1.0, size=n)
    q = rng.uniform(0.5, 3.0, size=d)
    problem = QpProblem(q_diag=q, a_rows=a, g=g)
    return (problem, x_ref) if with_ref else problem


def rel_diff(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def nested_warm_start(sig, L, n):
    """The ``2n`` problem and the ``n`` solution's multipliers mapped onto it,
    as a nested sweep does (grid ``i/n`` is the even rows of ``i/2n``)."""
    coarse = solve(build_constraints(sig, L, n))
    lam = np.zeros(2 * n)
    lam[::2] = coarse.lam
    return build_constraints(sig, L, 2 * n), lam


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


@pytest.fixture
def residual_calls(monkeypatch):
    """One entry per KKT residual evaluation inside ``qp.solve``."""
    calls = []

    def counted(*args, _f=qp._residuals):
        calls.append(1)
        return _f(*args)

    monkeypatch.setattr(qp, "_residuals", counted)
    return calls


class TestStartFromZero:
    @pytest.mark.parametrize("g", [[-1.0, -2.0], [0.0, 0.0], [-1.0, 1e-11]])
    def test_zero_returned_when_it_converges(self, g, residual_calls):
        # max(g) <= 0.05 * TOL_FEAS * max|g|: the pass takes no step from x = 0.
        sol = solve(QpProblem(q_diag=[1.0, 2.0], a_rows=np.eye(2), g=g))
        assert sol.iterations == 0 and sol.converged
        assert np.array_equal(sol.x, [0.0, 0.0]) and np.array_equal(sol.lam, [0.0, 0.0])
        assert sol.primal_violation == max(max(g), 0.0)
        assert (sol.dual_violation, sol.complementarity, sol.stationarity) == (0.0, 0.0, 0.0)
        assert (sol.adds, sol.drops, sol.warm_rows) == (0, 0, 0)
        assert len(residual_calls) == 1

    @pytest.mark.parametrize("g", [[3.0, -1.0], [-1.0, 2e-10]])
    def test_pass_steps_when_zero_is_infeasible(self, g, residual_calls):
        sol = solve(QpProblem(q_diag=[1.0, 2.0], a_rows=np.eye(2), g=g))
        assert sol.iterations == 1 and sol.converged
        np.testing.assert_allclose(sol.x, np.maximum(g, 0.0), rtol=1e-12)
        assert len(residual_calls) == 1  # the final verification only


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
        with pytest.raises(ValueError):
            kkt_residuals(p, s)

    def test_multiplier_count_mismatch(self):
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[3.0])
        s = QpSolution(
            x=np.array([3.0]),
            lam=np.array([6.0, 0.0]),
            iterations=0,
            converged=True,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        with pytest.raises(ValueError, match="^lambda has length 2, expected 1$"):
            kkt_residuals(p, s)

    def test_dense_multipliers_over_several_row_blocks(self):
        # 10000 nonzero multipliers, far more than a solve's at most 2L+1:
        # A^T lam over every row still matches the dense product.
        rng = np.random.default_rng(11)
        a = rng.normal(size=(10000, 5))
        p = QpProblem(q_diag=np.full(5, 2.0), a_rows=a, g=np.zeros(10000))
        x, lam = rng.normal(size=5), rng.uniform(0.5, 1.0, size=10000)
        s = QpSolution(
            x=x,
            lam=lam,
            iterations=0,
            converged=False,
            primal_violation=0.0,
            dual_violation=0.0,
            complementarity=0.0,
            stationarity=0.0,
        )
        stat = kkt_residuals(p, s)[3]
        expected = np.max(np.abs(4.0 * x - a.T @ lam))
        assert stat == pytest.approx(expected, rel=1e-12)

    def test_nan_iterate_is_not_feasible(self):
        # max(0.0, nan) is 0.0: a NaN x must not read as primal feasible, nor
        # a NaN lam as dual feasible.
        p = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[1.0])
        for x, lam, nan_at in (([np.nan], [1.0], (0, 2, 3)), ([1.0], [np.nan], (1, 2, 3))):
            s = QpSolution(
                x=np.array(x),
                lam=np.array(lam),
                iterations=0,
                converged=False,
                primal_violation=0.0,
                dual_violation=0.0,
                complementarity=0.0,
                stationarity=0.0,
            )
            res = kkt_residuals(p, s)
            assert [i for i in range(4) if math.isnan(res[i])] == list(nan_at)


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
            primal_obj = float(s.x @ (p.q_diag * s.x))
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
            x = solve(p).x
            base = float(x @ (p.q_diag * x))
            # keep x_ref feasible so the tightened problem stays solvable
            row = rng.normal(size=p.d)
            extra = QpProblem(
                q_diag=p.q_diag,
                a_rows=np.vstack([p.a_rows, row]),
                g=np.concatenate([p.g, [row @ x_ref - 0.05]]),
            )
            x = solve(extra).x
            tighter = float(x @ (extra.q_diag * x))
            assert tighter >= base - 1e-9

    @pytest.mark.parametrize("scale", [1e-9, 1e-8, 1e-7, 1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("case", ["two rows", "star (4, 64)"])
    def test_scaled_rows_scale_solution(self, case, scale, star_signal):
        # Rows scaled by s give x / s and multipliers / s**2.  Below 1e-7 the
        # rounding in A^T lam, not max|g|, sets the stationarity bound.
        if case == "two rows":
            rows = [[1.0, 0.5], [-0.5, 1.0]]
            base = QpProblem(q_diag=[1.0, 2.0], a_rows=rows, g=[1.0, 1.0])
        else:
            base = build_constraints(star_signal, 4, 64)
        ref = solve(base)
        sol = solve(QpProblem(q_diag=base.q_diag, a_rows=scale * base.a_rows, g=base.g))
        assert sol.converged
        assert rel_diff(scale * sol.x, ref.x) <= 1e-12
        assert rel_diff(scale * scale * sol.lam, ref.lam) <= 1e-12

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(12)
        p = random_feasible_problem(rng)
        cold = solve(p)
        warm = solve(p, initial_lam=cold.lam)
        assert warm.converged
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-9


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of the dense ``np.linalg`` solvers called during the test."""
    calls = []
    for name in ("solve", "inv", "lstsq", "cholesky"):

        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestWarmWorkingSet:
    @pytest.mark.parametrize("case", ["star (16, 256)", "square (5, 128)"])
    def test_nested_multipliers_seed_the_pass(self, case, star_signal, residual_calls):
        if case.startswith("star"):
            problem, lam = nested_warm_start(star_signal, 16, 256)
        else:
            wave = np.sign(np.sin(2.0 * np.pi * np.arange(2048) / 2048))
            square = PeriodicSignal.from_samples(1.0 + 0.5 * wave)
            problem, lam = nested_warm_start(square, 5, 128)
        cold = solve(problem)
        residual_calls.clear()
        warm = solve(problem, initial_lam=lam)
        assert len(residual_calls) == 1  # the final verification only
        assert cold.converged and warm.converged
        assert warm.iterations == cold.iterations == 1
        for sol in (cold, warm):
            assert sol.iterations == int(sol.adds + sol.drops > 0)
        # Both passes end on the same working set, so they agree to rounding
        # (the square case drifted by 6e-11 when the seed's multipliers
        # skipped their refinement step).
        assert rel_diff(warm.x, cold.x) <= 1e-12
        assert cold.warm_rows == 0
        assert warm.warm_rows == np.count_nonzero(lam)
        assert warm.adds < cold.adds

    @pytest.mark.parametrize("L, n", [(8, 128), (16, 256)])
    def test_optimal_multipliers_need_no_step(self, L, n, star_signal):
        problem = build_constraints(star_signal, L, n)
        cold = solve(problem)
        again = solve(problem, initial_lam=cold.lam)
        assert again.converged and again.iterations == 0
        assert (again.adds, again.drops) == (0, 0)
        assert again.warm_rows == np.count_nonzero(cold.lam) > 0
        assert np.max(np.abs(again.x - cold.x)) <= 1e-12

    def _warm_rows(self, problem, lam):
        """The rows the warm solve started from, after checking that it
        matches the cold solve."""
        cold = solve(problem)
        warm = solve(problem, initial_lam=lam)
        assert warm.converged
        assert rel_diff(warm.x, cold.x) <= 1e-9
        g = problem.g / np.max(np.abs(problem.g))
        support = qp._seed(problem, g, 0.5 / problem.q_diag, lam)[0]
        assert warm.warm_rows == support.size
        return support

    def test_support_larger_than_dimension(self, star_signal):
        problem = build_constraints(star_signal, 4, 64)
        support = self._warm_rows(problem, np.ones(problem.n))
        assert 0 < support.size <= problem.d

    def test_support_of_duplicated_rows(self, star_signal):
        base = build_constraints(star_signal, 8, 128)
        support = np.flatnonzero(solve(base).lam)[:3]
        problem = QpProblem(
            q_diag=base.q_diag,
            a_rows=np.vstack([base.a_rows, base.a_rows[support]]),
            g=np.concatenate([base.g, base.g[support]]),
        )
        lam = np.zeros(problem.n)
        lam[support] = lam[base.n :] = 1.0
        # Ties keep index order, so the copies come last and are skipped.
        kept = self._warm_rows(problem, lam)
        np.testing.assert_array_equal(kept, support)

    def test_support_of_nearly_dependent_rows(self):
        # Three adjacent phases at L = 1 and n = 16384: the third row's Schur
        # complement is ~5e-15 of its norm, below the add step's cut, yet the
        # rows factor and their multipliers are all 1.
        n = 16384
        a = phasor_matrix(1, np.arange(n) / n)
        q = np.array([1.0, 2.0, 2.0])
        support = np.array([100, 101, 102])
        x_tight = (a[support].T @ np.ones(3)) / (2.0 * q)
        g = a @ x_tight - 1.0
        g[support] = a[support] @ x_tight
        lam = np.zeros(n)
        lam[support] = [1.0, 3.0, 1.0]
        # Ranked 101, 100, 102: the third is skipped by the pivot test.
        kept = self._warm_rows(QpProblem(q_diag=q, a_rows=a, g=g), lam)
        np.testing.assert_array_equal(kept, [100, 101])

    def test_support_with_negative_multiplier(self, star_signal):
        problem = build_constraints(star_signal, 8, 128)
        support = np.flatnonzero(solve(problem).lam)[:3]
        worst = np.argmin(problem.g)
        offered = np.append(support, worst)
        rows = problem.a_rows[offered]
        m = (rows / (2.0 * problem.q_diag)) @ rows.T
        assert np.min(np.linalg.solve(m, problem.g[offered])) < 0.0
        lam = np.zeros(problem.n)
        lam[support] = lam[worst] = 1.0
        kept = self._warm_rows(problem, lam)
        np.testing.assert_array_equal(kept, support)

    @pytest.mark.parametrize("L, n", [(4, 64), (8, 128)])
    def test_values_rank_the_candidates(self, L, n, star_signal):
        # Every row is a candidate, more than d: the optimal rows rank first,
        # so they are what the pass starts from, and it takes no step.
        problem = build_constraints(star_signal, L, n)
        cold = solve(problem)
        lam = np.where(cold.lam > 0.0, 2.0, 1.0)
        kept = self._warm_rows(problem, lam)
        np.testing.assert_array_equal(kept, np.flatnonzero(cold.lam))
        assert solve(problem, initial_lam=lam).iterations == 0

    def test_whole_support_is_not_sorted(self, star_signal, monkeypatch):
        problem, lam = nested_warm_start(star_signal, 8, 128)
        for name in ("argsort", "sort"):
            monkeypatch.setattr(np, name, None)
        assert solve(problem, initial_lam=lam).warm_rows == np.count_nonzero(lam)

    @pytest.mark.parametrize(
        "start, family, L, n",
        [("dense", "square", 64, 4096), ("nested", None, 8, 256)]
        + [("interior", f, L, n) for f in BENCH_FAMILIES for L, n in ((24, 1024), (64, 4096))],
    )
    def test_start_reads_at_most_twice_d_rows(
        self, start, family, L, n, star_signal, monkeypatch
    ):
        # No start forms more than 2(2L+1) rows, so any initial_lam keeps memory O(n).
        batches = []
        for cls in (QpProblem, _GridProblem):

            def recorded(grid, idx, _rows=cls.rows):
                batches.append(np.size(idx))
                return _rows(grid, idx)

            monkeypatch.setattr(cls, "rows", recorded)
        if start == "nested":
            problem, lam = nested_warm_start(star_signal, L, n // 2)
            batches.clear()
            sol = solve(problem, initial_lam=lam)
        else:
            lam = np.ones(n) if start == "dense" else None
            sol = solve_appopt(family_signal(family), L, n, initial_lam=lam)[1]
        assert sol.converged and sol.warm_rows > 0
        assert 0 < max(batches) <= 2 * (2 * L + 1)


def five_point_star(depth, phase, m=2048):
    """Radial function of a regular 5-point star seen from its centre."""
    u = np.mod(np.arange(m) / m - phase, 1.0)
    sector = 2.0 * np.pi / 5.0
    wedge = np.abs(np.mod(2.0 * np.pi * u, sector) - sector / 2.0) / (sector / 2.0)
    return PeriodicSignal.from_samples(1.0 / (1.0 + depth * (1.0 - wedge)))


class TestWorkingSetFactor:
    def test_cold_solve_makes_no_dense_solves(self, star_signal, linalg_calls):
        assert solve(build_constraints(star_signal, 24, 1024)).converged
        assert linalg_calls == []

    @pytest.mark.parametrize(
        "case",
        ["star contour (32, 2048)", "five-point star (64, 2048)"],
    )
    def test_long_pass_stays_accurate(self, case, star_signal):
        # The second case failed KKT verification when directions skipped
        # their refinement step.
        if case.startswith("star contour"):
            problem = build_constraints(star_signal, 32, 2048)
        else:
            sig = five_point_star(0.376978671376387, 0.6369616873214543)
            problem = build_constraints(sig, 64, 2048)
        sol = solve(problem)
        # The working set ends full (star contour) or one row short of it.
        assert np.count_nonzero(sol.lam) >= problem.d - 1
        assert sol.adds >= 200 and sol.drops >= 200
        s = float(np.max(np.abs(problem.g)))
        primal, dual, comp, stat = kkt_residuals(problem, sol)
        assert primal <= TOL_FEAS * s and dual == 0.0
        assert comp <= TOL_STAT * s and stat <= TOL_STAT * s
        perm = np.random.default_rng(3).permutation(problem.n)
        permuted = QpProblem(
            q_diag=problem.q_diag, a_rows=problem.a_rows[perm], g=problem.g[perm]
        )
        assert rel_diff(solve(permuted).x, sol.x) <= 1e-9


class _LeastViolatedFirst:
    """Rows ``[1]`` with ``g = linspace(1/n, 1, n)``, so ``x >= 1`` is the
    answer.  ``matvec`` reports every violated row as the more violated the
    less it truly is, so each pass adds the rows one at a time, in order."""

    def __init__(self, n):
        self.n, self.d = n, 1
        self.q_diag = np.ones(1)
        self.g = np.linspace(1 / n, 1, n)

    def rows(self, idx):
        return np.ones(np.shape(idx) + (1,))

    def matvec(self, x):
        ax = np.full(self.n, float(x[0]))
        violated = ax < self.g
        ax[violated] = 2.0 * self.g[violated] - 2.0
        return ax


class TestFailureModes:
    def test_outer_cap_stops_a_pass(self):
        # The cap on rows added is 30 * (d + 1) + 100 = 160 at d = 1.
        with pytest.raises(NotConverged, match="^qp: no feasible point after 160 rows added") as info:
            solve(_LeastViolatedFirst(300))
        assert info.value.solution.adds == 160
        below_cap = solve(_LeastViolatedFirst(100))
        assert below_cap.converged and below_cap.adds == 100

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
        with pytest.raises(ValueError):
            solve(p, initial_lam=np.zeros(3))

    def test_rows_always_copied(self):
        # Read-only rows are copied too: the problem never aliases the caller's.
        for writeable in (True, False):
            rows = np.array([[1.0, 0.0], [0.0, 1.0]])
            rows.setflags(write=writeable)
            problem = QpProblem(q_diag=[1.0, 1.0], a_rows=rows, g=[0.0, 0.0])
            assert not np.shares_memory(problem.a_rows, rows)
            assert rows.flags.writeable == writeable
            assert not problem.a_rows.flags.writeable

    def test_problem_shape_validation(self):
        with pytest.raises(ValueError):
            QpProblem(q_diag=[1.0, 2.0], a_rows=[[1.0]], g=[0.0])
        with pytest.raises(ValueError):
            QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[0.0, 1.0])
        # Rows are never reshaped: only a 2-D array, or an empty one, is taken.
        for rows, g in ((np.ones((2, 1, 2)), [0.0, 0.0]), (np.ones(2), [0.0]), (np.ones(3), [0.0])):
            with pytest.raises(ValueError):
                QpProblem(q_diag=[1.0, 2.0], a_rows=rows, g=g)
        empty = QpProblem(q_diag=[1.0, 2.0], a_rows=[], g=[])
        assert empty.a_rows.shape == (0, 2)
        # No rows: the unconstrained minimum x = 0, with no step and no multiplier.
        s = solve(empty)
        assert s.converged and s.iterations == 0
        assert s.x.tolist() == [0.0, 0.0] and s.lam.shape == (0,)
        with pytest.raises(ValueError):
            QpProblem(q_diag=[0.0], a_rows=[[1.0]], g=[0.0])
        # Zero variables: nothing to solve for, whatever the rows ask.
        for rows, g in (([], []), (np.zeros((1, 0)), [1.0])):
            with pytest.raises(ValueError, match="^q_diag has no entries$"):
                QpProblem(q_diag=[], a_rows=rows, g=g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["q_diag", "a_rows", "g"])
    def test_non_finite_data_rejected(self, field, bad):
        # Unchecked, an inf row escaped the pass as an IndexError and a NaN
        # surfaced as a misleading dependence or infeasibility failure.
        data = {"q_diag": [1.0, 1.0], "a_rows": np.eye(2), "g": [1.0, 1.0]}
        data[field] = np.array(data[field])
        data[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} has a non-finite entry"):
            QpProblem(**data)
