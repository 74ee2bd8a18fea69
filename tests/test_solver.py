import tracemalloc
import warnings

import numpy as np
import pytest

from envlp import (
    PeriodicSignal,
    approximate,
    build_constraints,
    certify,
    gap_bound,
    kkt_residuals,
    lift_to_envelope,
    solve,
    solve_appopt,
)
from envlp.fourier import FourierEnvelope, _gram, _gram_tables, _rmatvec, grid_values
from envlp.qp import TOL_FEAS, TOL_STAT
from envlp import qp, solver
from envlp.solver import (
    _INTERIOR_START_MIN_L,
    _GridProblem,
    _interior_start,
    _seed_on_grid,
)

from conftest import BENCH_FAMILIES, count_error, family_signal, smooth_signal


_T = np.arange(2048) / 2048
# (samples, L, n) whose active-set pass needs the multiplier of a row that
# drop steps alone satisfied (pulse) or tolerances relative to max|g| (at
# 1e-8 and 1e8); without either the solve raises or loses accuracy.
SCALE_FAMILIES = {
    "pulse": (1.0 + (np.mod(4 * np.mod(_T - 0.973, 1.0), 1.0) < 0.046), 4, 256),
    "square": (1.0 + 0.5 * np.sign(np.sin(2 * np.pi * (_T - 0.3))), 4, 256),
    "smooth": (
        1.5 + sum(0.5 / k * np.cos(2 * np.pi * k * _T + k) for k in range(1, 9)),
        8,
        256,
    ),
}


@pytest.fixture(scope="module")
def constant_two():
    return PeriodicSignal.from_samples(np.full(64, 2.0))


@pytest.fixture(scope="module")
def minus_one():
    return PeriodicSignal.from_samples(np.full(64, -1.0))


class TestBuildConstraints:
    def test_dc_rows_and_values(self, constant_two):
        p = build_constraints(constant_two, L=0, n=4)
        np.testing.assert_array_equal(p.a_rows, np.ones((4, 1)))
        np.testing.assert_array_equal(p.g, [2.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(p.q_diag, [1.0])

    def test_first_harmonic_rows(self, constant_two):
        p = build_constraints(constant_two, L=1, n=4)
        expected = [[1, 2, 0], [1, 0, -2], [1, -2, 0], [1, 0, 2]]
        np.testing.assert_allclose(p.a_rows, expected, atol=1e-12)
        np.testing.assert_array_equal(p.q_diag, [1.0, 2.0, 2.0])

    def test_too_few_constraints(self, constant_two):
        with pytest.raises(ValueError, match=count_error("n", 3, 10 ** 6, 2)):
            build_constraints(constant_two, L=1, n=2)

    def test_budget_cap(self, constant_two):
        with pytest.raises(ValueError, match=count_error("harmonic budget", 0, 64, 65)):
            build_constraints(constant_two, L=65, n=200)

    def test_constraint_cap(self, constant_two):
        with pytest.raises(ValueError, match=count_error("n", 1, 10 ** 6, 10 ** 6 + 1)):
            build_constraints(constant_two, L=0, n=10 ** 6 + 1)


class TestSolveAppopt:
    def test_constant_signal_is_dc_only(self, constant_two):
        env, sol = solve_appopt(constant_two, L=1, n=64)
        assert sol.converged
        assert env.b0 == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(env.b_re, 0.0, atol=1e-9)
        np.testing.assert_allclose(env.b_im, 0.0, atol=1e-9)
        assert env.energy() == pytest.approx(4.0, abs=1e-8)

    def test_cosine_matches_analytic_optimum(self, cos_signal):
        env, _ = solve_appopt(cos_signal, L=1, n=64)
        assert env.energy() == pytest.approx(1 / 3, abs=2e-3)
        assert env.b0 == pytest.approx(1 / 3, abs=5e-3)
        assert env.b_re[0] == pytest.approx(1 / 3, abs=5e-3)
        assert env.b_im[0] == pytest.approx(0.0, abs=5e-3)

    def test_negative_constant_needs_no_envelope(self, minus_one):
        env, _ = solve_appopt(minus_one, L=0, n=8)
        assert env.b0 == pytest.approx(0.0, abs=1e-12)
        assert env.energy() == pytest.approx(0.0, abs=1e-12)

    # 3e149 puts the largest smooth sample within 15% of MAX_MAGNITUDE (1e150);
    # 1e-150 puts the largest sample of each family just above MIN_MAGNITUDE.
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-8, 1e5, 1e8, 3e149])
    @pytest.mark.parametrize("family", sorted(SCALE_FAMILIES))
    def test_scaled_signal_scales_params(self, family, scale):
        samples, L, n = SCALE_FAMILIES[family]
        unit, _ = solve_appopt(PeriodicSignal.from_samples(samples), L=L, n=n)
        env, sol = solve_appopt(PeriodicSignal.from_samples(samples * scale), L=L, n=n)
        assert sol.converged
        assert sol.iterations <= 1
        expected = scale * unit.params()
        err = np.max(np.abs(env.params() - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))

    def test_feasible_at_constraint_phases(self, star_signal):
        env, _ = solve_appopt(star_signal, L=2, n=32)
        t = np.arange(32) / 32
        assert np.all(env.evaluate(t) >= star_signal.value_at(t) - 1e-9)


def _grid_case(name, star_signal):
    """(signal, L, n) for the matrix-free solver's comparison cases."""
    if name == "star":
        return star_signal, 16, 256
    if name == "five-point star":
        u = np.mod(_T - 0.137, 1.0)
        wedge = np.abs(np.mod(2 * np.pi * u, 0.4 * np.pi) - 0.2 * np.pi) / (0.2 * np.pi)
        return PeriodicSignal.from_samples(1.0 / (1.0 + 0.4 * (1.0 - wedge))), 64, 1024
    samples, L, n = SCALE_FAMILIES[name]
    return PeriodicSignal.from_samples(samples), L, n


class TestMatrixFreeSolve:
    @pytest.mark.parametrize("L, n", [(0, 7), (5, 64), (12, 1000), (64, 16384)])
    def test_rows_bit_equal_to_phasor_matrix(self, L, n, star_signal):
        grid, dense = _GridProblem(star_signal, L, n), build_constraints(star_signal, L, n)
        assert (grid.n, grid.d) == (dense.n, dense.d)
        np.testing.assert_array_equal(grid.q_diag, dense.q_diag)
        np.testing.assert_array_equal(grid.g, dense.g)
        idx = np.random.default_rng(n).choice(n, size=min(n, 40), replace=False)
        np.testing.assert_array_equal(grid.rows(idx), dense.rows(idx))
        for i in idx[:4]:
            np.testing.assert_array_equal(grid.rows(int(i)), dense.rows(int(i)))
        rng = np.random.default_rng(L)
        for _ in range(3):
            x = rng.normal(size=dense.d)
            np.testing.assert_array_equal(grid.matvec(x), grid_values(x, n))
            np.testing.assert_allclose(
                grid.matvec(x), dense.matvec(x), rtol=0, atol=1e-12 * np.sum(np.abs(x))
            )

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "nested-warm"])
    @pytest.mark.parametrize("name", ["star", "pulse", "square", "smooth", "five-point star"])
    def test_matches_dense_solve(self, name, warm, star_signal):
        sig, L, n = _grid_case(name, star_signal)
        coarse_lam = lam = None
        if warm:
            # solve_appopt rounds the coarse multipliers onto the finer grid;
            # the dense reference gets them mapped by hand (grid i/n is the
            # even rows of i/2n).
            coarse_lam = solve_appopt(sig, L, n)[1].lam
            lam = np.zeros(2 * n)
            lam[::2] = coarse_lam
            n *= 2
        elif L >= _INTERIOR_START_MIN_L:
            # A cold run this large ranks its candidate rows by the interior
            # point; the dense reference takes the same ranking.
            lam = _interior_start(_GridProblem(sig, L, n))
        dense = build_constraints(sig, L, n)
        ref = solve(dense, initial_lam=lam)
        env, sol = solve_appopt(sig, L, n, initial_lam=coarse_lam)
        assert sol.converged and ref.converged
        assert np.max(np.abs(env.params() - ref.x)) <= 1e-12 * np.max(np.abs(ref.x))
        assert sol.warm_rows == ref.warm_rows
        s = float(np.max(np.abs(dense.g)))
        primal, dual, comp, stat = kkt_residuals(dense, sol)
        assert primal <= TOL_FEAS * s and dual == 0.0
        assert comp <= TOL_STAT * s and stat <= TOL_STAT * s

    @pytest.mark.parametrize(
        "lam",
        [np.empty(0), np.zeros(7), np.full(5, np.nan), -np.ones(3)],
        ids=["empty", "zeros", "nan", "negative"],
    )
    def test_no_positive_multiplier_starts_cold(self, lam, star_signal):
        cold_env, _ = solve_appopt(star_signal, 8, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            env, sol = solve_appopt(star_signal, 8, 64, initial_lam=lam)
        assert sol.converged and sol.warm_rows == 0
        np.testing.assert_array_equal(env.params(), cold_env.params())

    @pytest.mark.parametrize(
        "m, n", [(64, 64), (32, 128), (48, 64), (1024, 32), (33, 65), (65, 33), (7, 1000)]
    )
    def test_active_phases_round_to_nearest_rows(self, m, n):
        lam = np.random.default_rng(m * n).uniform(-1.0, 1.0, m)
        active = np.flatnonzero(lam > 0.0)
        rows = np.flatnonzero(_seed_on_grid(lam, n))
        # Distance in cells of 1/n from each active phase i/m to each row j/n.
        dist = np.abs((active[:, None] / m - np.arange(n) / n + 0.5) % 1.0 - 0.5) * n
        nearest = dist <= dist.min(axis=1, keepdims=True) + 1e-9
        assert np.all(nearest[:, rows].any(axis=1))  # every phase seeds a nearest row
        assert np.all(nearest[:, rows].any(axis=0))  # every seeded row is one
        if n % m == 0:
            np.testing.assert_array_equal(rows, active * (n // m))

    def test_multiplier_values_pass_through(self):
        # Phases 1/8 and 2/8 round to row 1 of i/4, and 0 and 7/8 to row 0:
        # each row keeps the larger value.  Entries that are not positive
        # seed nothing.
        lam = np.array([0.5, 0.3, 0.7, -1.0, 0.0, np.nan, 2.0, 0.1])
        np.testing.assert_array_equal(_seed_on_grid(lam, 4), [0.5, 0.7, 0.0, 2.0])
        seed = _seed_on_grid(lam, 16)
        np.testing.assert_array_equal(seed[::2], np.where(lam > 0.0, lam, 0.0))
        assert not seed[1::2].any()

    def test_warm_start_is_ranked_by_its_values(self):
        # Over 2000 candidate rows: the first 2(2L+1) by value, not by index,
        # are the ones the start reads, as when qp.solve gets them directly.
        problem = _GridProblem(family_signal("smooth"), 48, 4096)
        ranks = _interior_start(problem)
        ref = solve(problem, initial_lam=ranks)
        env, sol = solve_appopt(family_signal("smooth"), 48, 4096, initial_lam=ranks)
        assert sol.warm_rows == ref.warm_rows
        np.testing.assert_array_equal(env.params(), ref.x)

    def test_memory_stays_linear_in_n(self):
        # The dense 2**16 x 129 constraint matrix alone is 67.6 MB.
        sig, _, _ = _grid_case("smooth", None)
        tracemalloc.start()
        try:
            result = approximate(sig, 64, 2 ** 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.certified
        assert peak < 16e6

    def test_dense_warm_start_reads_a_few_ranked_rows(self):
        # Every row is a candidate: forming them all would take 67.6 MB here.
        sig, n = family_signal("square"), 2 ** 16
        cold = approximate(sig, 64, n)
        tracemalloc.start()
        try:
            result = approximate(sig, 64, n, initial_lam=np.ones(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solver_diag.converged and result.certified
        assert peak <= 8e6
        assert np.max(np.abs(result.appopt.params() - cold.appopt.params())) <= 1e-9


class TestInteriorStart:
    @pytest.mark.parametrize("L", [1, 24, 64])
    def test_kernels_match_dense_rows(self, L, star_signal):
        # n < 4L reads harmonics above n/2 from folded bins.
        for n in sorted({2 * L + 1, max(2 * L + 1, 4 * L - 1), 4 * L, 4 * L + 1, 1001, 4096}):
            a, tables = build_constraints(star_signal, L, n).a_rows, _gram_tables(L, n)
            rng = np.random.default_rng(n)
            y, w = rng.normal(size=n), rng.uniform(0.0, 2.0, n)
            ref = a.T @ y
            assert np.max(np.abs(_rmatvec(L, y) - ref)) <= 1e-12 * np.max(np.abs(ref))
            ref = a.T @ (w[:, None] * a)
            assert np.max(np.abs(_gram(w, tables) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gram_results_are_independent(self):
        # The index tables are built once per start; each result is new.
        tables = _gram_tables(24, 1024)
        w = np.random.default_rng(0).uniform(0.0, 2.0, 1024)
        first, second = _gram(w, tables), _gram(w, tables)
        np.testing.assert_array_equal(first, second)
        kept = second.copy()
        first += 1.0
        np.testing.assert_array_equal(second, kept)

    @pytest.mark.parametrize("L, n", [(24, 1024), (48, 4096)])
    @pytest.mark.parametrize("family", BENCH_FAMILIES)
    def test_matches_cold_pass_in_fewer_steps(self, family, L, n):
        sig = family_signal(family)
        cold = solve(build_constraints(sig, L, n))
        env, sol = solve_appopt(sig, L, n)
        assert sol.converged and sol.warm_rows > 0
        assert sol.adds + sol.drops < cold.adds + cold.drops
        assert np.max(np.abs(env.params() - cold.x)) <= 1e-9 * np.max(np.abs(cold.x))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("L, n", [(48, 4096), (64, 4096), (64, 16384)])
    def test_degenerate_start_seeds_a_full_set(self, L, n, seed):
        # The smooth family is nearly its own envelope: at a gap of 1e-9 of
        # the energy some 2000 rows still have lam > s, so the steps go on.
        sig = family_signal("smooth", seed)
        problem = _GridProblem(sig, L, n)
        cold = solve(problem)
        env, sol = solve_appopt(sig, L, n)
        assert sol.converged and sol.warm_rows == problem.d
        assert sol.adds + sol.drops == 0
        assert np.max(np.abs(env.params() - cold.x)) <= 1e-9 * np.max(np.abs(cold.x))

    @pytest.mark.parametrize("family", [f for f in BENCH_FAMILIES if f != "smooth"])
    def test_few_ranked_rows_stop_at_the_first_gap(self, family, monkeypatch):
        problem = _GridProblem(family_signal(family), 48, 4096)
        ranks = _interior_start(problem)
        monkeypatch.setattr(solver, "_START_FLOOR", solver._START_GAP)
        assert _interior_start(problem).tobytes() == ranks.tobytes()

    def test_fully_degenerate_start_is_capped(self, monkeypatch):
        # At (24, 1024) the smooth signal is its own envelope: every row is
        # tight, and every one is ranked.
        calls = []
        monkeypatch.setattr(solver, "_gram", lambda w, t: calls.append(1) or _gram(w, t))
        ranks = _interior_start(_GridProblem(family_signal("smooth"), 24, 1024))
        assert 0 < len(calls) <= solver._START_STEPS
        assert np.count_nonzero(ranks) > 2 * (2 * 24 + 1)

    @pytest.mark.parametrize("value", [-1.0, 2.0], ids=["all-negative", "constant"])
    def test_flat_signals_return_the_cold_result(self, value):
        # pytest turns any RuntimeWarning of the start into an error.
        sig = PeriodicSignal.from_samples(np.full(64, value))
        cold = solve(_GridProblem(sig, 32, 2048))
        env, sol = solve_appopt(sig, 32, 2048)
        assert sol.converged
        np.testing.assert_allclose(env.params(), cold.x, rtol=0, atol=1e-9 * abs(value))

    @pytest.mark.parametrize("bad", ["dependent", "negative multiplier"])
    def test_rejected_support_is_pruned(self, bad, monkeypatch, star_signal):
        problem = _GridProblem(star_signal, 24, 1024)
        cold = solve(problem)
        g = problem.g / np.max(np.abs(problem.g))
        if bad == "dependent":
            support = np.arange(problem.d)  # 2L+1 adjacent phases: no Cholesky factor
        else:
            support = np.append(np.flatnonzero(cold.lam)[:3], np.argmin(problem.g))
            rows = problem.rows(support)
            m = (rows / (2.0 * problem.q_diag)) @ rows.T
            assert np.min(np.linalg.solve(m, g[support])) < 0.0
        assert qp._factor(problem, g, 0.5 / problem.q_diag, support) is None
        ranks = np.zeros(problem.n)
        ranks[support] = 1.0
        monkeypatch.setattr(solver, "_interior_start", lambda p: ranks)
        env, sol = solve_appopt(star_signal, 24, 1024)
        assert sol.converged and 0 < sol.warm_rows < support.size
        assert np.max(np.abs(env.params() - cold.x)) <= 1e-9 * np.max(np.abs(cold.x))

    # Calls alternate predictor and corrector, which solves with the same k.
    @pytest.mark.parametrize("fails_at", [1, 9], ids=["first step", "fifth step"])
    def test_singular_step_ends_the_steps(self, fails_at, monkeypatch):
        sig = family_signal("square")
        cold = solve(_GridProblem(sig, 24, 1024))
        calls = []

        def solve_until(*args, _solve=np.linalg.solve):
            calls.append(len(calls) + 1)
            if len(calls) == fails_at:
                raise np.linalg.LinAlgError("Singular matrix")
            return _solve(*args)

        monkeypatch.setattr(np.linalg, "solve", solve_until)
        ranks = _interior_start(_GridProblem(sig, 24, 1024))
        assert len(calls) == fails_at
        # Before any step every ratio lam_i / s_i is below 1: nothing is ranked.
        assert (np.count_nonzero(ranks) > 0) == (fails_at > 1)
        calls.clear()
        env, sol = solve_appopt(sig, 24, 1024)
        assert sol.converged
        assert np.max(np.abs(env.params() - cold.x)) <= 1e-9 * np.max(np.abs(cold.x))

    def test_non_nested_warm_start_keeps_rows(self):
        # Grid i/48 is not a subset of i/64: each active phase is rounded to
        # its nearest row.  Those rows are rejected whole, so the run used to
        # start cold; now it starts from the rows that can be kept.
        sig = family_signal("square")
        coarse = solve_appopt(sig, 8, 48)[1]
        problem = _GridProblem(sig, 8, 64)
        rounded = np.flatnonzero(_seed_on_grid(coarse.lam, 64))
        g = problem.g / np.max(np.abs(problem.g))
        assert qp._factor(problem, g, 0.5 / problem.q_diag, rounded) is None
        cold = solve(problem)
        env, sol = solve_appopt(sig, 8, 64, initial_lam=coarse.lam)
        assert sol.converged and 0 < sol.warm_rows <= rounded.size
        assert sol.adds < cold.adds
        assert np.max(np.abs(env.params() - cold.x)) <= 1e-9 * np.max(np.abs(cold.x))

    def test_runs_below_the_rule_start_cold(self):
        sig = family_signal("square")
        env, sol = solve_appopt(sig, 16, 1024)
        assert sol.warm_rows == 0
        np.testing.assert_array_equal(env.params(), solve(_GridProblem(sig, 16, 1024)).x)

    def test_start_memory_is_a_few_grid_arrays(self):
        # One length-n float array is 131 kB here; the dense rows would be 17 MB.
        problem = _GridProblem(family_signal("square"), 64, 16384)
        tracemalloc.start()
        try:
            ranks = _interior_start(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(ranks) > 0
        assert peak <= 1e6


class TestLift:
    def test_shift_arithmetic(self):
        appopt = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        lifted = lift_to_envelope(appopt, c=2 * np.pi, c_prime=4 * np.pi / 3, n=100)
        assert lifted.b0 == pytest.approx(1 / 3 + np.pi / 30, abs=1e-12)
        np.testing.assert_array_equal(lifted.b_re, appopt.b_re)
        np.testing.assert_array_equal(lifted.b_im, appopt.b_im)

    def test_zero_lift_is_identity(self):
        appopt = FourierEnvelope(L=1, b0=0.5, b_re=[0.1], b_im=[-0.2])
        lifted = lift_to_envelope(appopt, c=0.0, c_prime=0.0, n=10)
        assert lifted.b0 == appopt.b0

    def test_linearity_in_inverse_n(self):
        appopt = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        d1 = lift_to_envelope(appopt, 3.0, 2.0, 10).b0 - 1.0
        d2 = lift_to_envelope(appopt, 3.0, 2.0, 100).b0 - 1.0
        assert d1 == pytest.approx(10 * d2, rel=1e-12)

    @pytest.mark.parametrize("func", [lift_to_envelope, gap_bound], ids=lambda f: f.__name__)
    def test_rejects_negative_bounds(self, func):
        appopt = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        for c, c_prime, n in (
            (-1.0, 0.0, 10), (0.0, -5.0, 64), (1.0, 1.0, 0),
            (np.nan, 1.0, 64), (np.inf, 1.0, 64), (1.0, np.nan, 64), (1.0, np.inf, 64),
            (1.0, 1.0, 2.5), (1.0, 1.0, True),
        ):
            with pytest.raises(ValueError):
                func(appopt, c, c_prime, n)

    @pytest.mark.parametrize("func", [lift_to_envelope, gap_bound], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "b0, c", [(1 / 3, 1e200), (1e154, 0.0), (-1e154, 1.0)],
        ids=["huge_c", "huge_dc", "negative_dc"],
    )
    def test_rejects_cost_out_of_float_range(self, func, b0, c):
        # Unchecked, gap_bound returned inf for the first case.  The DC cases
        # have a finite energy, but their doubled lifted DC squared does not.
        appopt = FourierEnvelope(L=1, b0=b0, b_re=[0.1], b_im=[0.0])
        with pytest.raises(ValueError, match="out of the float range"):
            func(appopt, c, 0.0, 64)

    def test_largest_signal_lifts(self):
        sig = PeriodicSignal.from_samples(np.resize([1e150, -1e150], 64))
        result = approximate(sig, L=1, n=64)
        assert np.isfinite(result.cost_subopt) and np.isfinite(result.gap_bound)


class TestGapBound:
    def test_formula_value(self):
        appopt = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        delta = (2 * np.pi + 4 * np.pi / 3) / 100
        expected = 2 * (1 / 3) * delta + delta ** 2
        assert gap_bound(appopt, 2 * np.pi, 4 * np.pi / 3, 100) == pytest.approx(
            expected, rel=1e-14
        )
        assert expected == pytest.approx(0.08078, abs=5e-5)

    def test_zero_shift(self):
        appopt = FourierEnvelope(L=0, b0=5.0, b_re=[], b_im=[])
        assert gap_bound(appopt, 0.0, 0.0, 4) == 0.0

    def test_strictly_decreasing_in_n(self):
        appopt = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        assert gap_bound(appopt, 1.0, 1.0, 20) < gap_bound(appopt, 1.0, 1.0, 10)


class TestCertify:
    def test_constant_touching_envelope(self, constant_two):
        env = FourierEnvelope(L=0, b0=2.0, b_re=[], b_im=[])
        certified, margin = certify(env, constant_two)
        assert certified
        assert margin == 0.0

    def test_lifted_cosine_certifies(self, cos_signal):
        result = approximate(cos_signal, L=1, n=64)
        assert result.certified

    def test_unlifted_star_fails_between_phases(self, star_signal):
        env, _ = solve_appopt(star_signal, L=1, n=8)
        certified, margin = certify(env, star_signal)
        assert not certified
        assert margin < -1e-6
        # but never below the uniform lower bound
        c_prime = env.derivative_bound()
        assert margin >= -(star_signal.lipschitz_c + c_prime) / 8 - 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_dip_judged_relative_to_signal(self, scale):
        sig = PeriodicSignal.from_samples(np.full(64, 2.0 * scale))
        res = approximate(sig, L=1, n=64)
        assert res.certified
        params = res.subopt.params()
        params[0] -= 0.05 * scale
        certified, margin = certify(FourierEnvelope.from_params(1, params), sig)
        assert not certified
        assert margin == pytest.approx(-0.05 * scale, rel=1e-6)

    @pytest.mark.parametrize("grid_m", [16, 64, 128, 129])
    def test_margin_on_folded_grids(self, grid_m):
        # At L = 64 every grid_m <= 128 puts harmonics above grid_m / 2.
        rng = np.random.default_rng(grid_m)
        L = 64
        env = FourierEnvelope(
            L=L, b0=rng.normal(), b_re=rng.normal(size=L), b_im=rng.normal(size=L)
        )
        sig = smooth_signal(grid_m, 256)
        t = np.arange(grid_m) / grid_m
        direct = float(np.min(env.evaluate(t) - sig.value_at(t)))
        scale = abs(env.b0) + 2.0 * float(np.sum(np.hypot(env.b_re, env.b_im)))
        _, margin = certify(env, sig, grid_m=grid_m)
        assert abs(margin - direct) <= 1e-13 * scale

    def test_grid_floor(self, constant_two):
        env = FourierEnvelope(L=0, b0=2.0, b_re=[], b_im=[])
        with pytest.raises(ValueError):
            certify(env, constant_two, grid_m=8)


class TestApproximate:
    def test_takes_no_certification_grid(self, constant_two):
        # certify(result.subopt, sig, grid_m=...) re-checks on another grid.
        with pytest.raises(TypeError):
            approximate(constant_two, L=1, n=64, grid_m=8192)

    def test_constant_pipeline(self, constant_two):
        res = approximate(constant_two, L=1, n=64)
        assert res.cost_appopt == pytest.approx(4.0, abs=1e-8)
        assert res.c == 0.0
        assert res.c_prime <= 1e-8
        assert res.gap_bound <= 1e-8
        assert res.certified
        assert res.subopt.b0 == pytest.approx(res.appopt.b0, abs=1e-9)

    def test_cosine_with_user_slope(self, cos_signal_user_c):
        res = approximate(cos_signal_user_c, L=1, n=64)
        assert res.c == 2 * np.pi
        assert res.c_prime == pytest.approx(4 * np.pi / 3, abs=2e-2)
        delta = (res.c + res.c_prime) / 64
        assert res.gap_bound == pytest.approx(
            2 * res.appopt.b0 * delta + delta ** 2, rel=1e-12
        )
        assert res.certified

    def test_negative_signal_has_negative_area_cost(self, minus_one):
        res = approximate(minus_one, L=0, n=8)
        assert res.subopt.b0 == pytest.approx(0.0, abs=1e-9)
        assert res.paper_cost_subopt == pytest.approx(-1.0, abs=1e-9)
        assert res.certified

    def test_apriori_mode_is_looser_but_sound(self, cos_signal_user_c):
        exact = approximate(cos_signal_user_c, L=1, n=64)
        apriori = approximate(cos_signal_user_c, L=1, n=64, c_prime_mode="apriori")
        assert apriori.c_prime == pytest.approx(2 * np.pi * np.sqrt(3), rel=1e-12)
        assert apriori.c_prime >= exact.c_prime
        assert apriori.gap_bound >= exact.gap_bound
        assert apriori.certified

    def test_unknown_mode_rejected(self, cos_signal):
        with pytest.raises(ValueError):
            approximate(cos_signal, L=1, n=64, c_prime_mode="postsolve")

    def test_lift_identity_exact(self, star_signal):
        for L, n in ((1, 16), (2, 64), (3, 128), (8.0, 64)):
            res = approximate(star_signal, L=L, n=n)
            delta = (res.c + res.c_prime) / n
            identity = 2 * res.appopt.b0 * delta + delta ** 2
            assert abs((res.cost_subopt - res.cost_appopt) - identity) <= 1e-12

    def test_result_dict_layout(self, cos_signal):
        payload = approximate(cos_signal, L=1, n=64).to_dict()
        assert list(payload) == [
            "L",
            "n",
            "appopt",
            "subopt",
            "c",
            "c_prime",
            "c_prime_mode",
            "cost_appopt",
            "cost_subopt",
            "paper_cost_subopt",
            "gap_bound",
            "certified",
            "min_margin",
            "solver",
        ]
        assert payload["appopt"]["L"] == 1
        assert set(payload["solver"]) == {
            "iterations",
            "converged",
            "primal_violation",
            "stationarity",
        }


class TestContinuumStandIn:
    """``solve_appopt`` on 4096 phases, the stand-in for the continuum optimum."""

    def test_cosine_cost(self, cos_signal):
        fine = solve_appopt(cos_signal, 1, 4096)[0]
        assert fine.energy() == pytest.approx(1 / 3, abs=1e-4)

    def test_constant_exact(self, constant_two):
        fine = solve_appopt(constant_two, 1, 4096)[0]
        assert fine.b0 == pytest.approx(2.0, abs=1e-9)

    def test_dominates_coarse_grid_cost(self, star_signal):
        coarse, _ = solve_appopt(star_signal, L=1, n=16)
        fine = solve_appopt(star_signal, 1, 4096)[0]
        assert fine.energy() >= coarse.energy() - 1e-9


class TestPipelineProperties:
    def test_nested_grid_monotonicity(self):
        for seed in range(4):
            sig = smooth_signal(seed)
            costs = [approximate(sig, L=2, n=n).cost_appopt for n in (8, 16, 32, 64)]
            for lo, hi in zip(costs, costs[1:]):
                assert hi >= lo - 1e-8

    def test_sandwich_against_fine_grid(self):
        for seed in range(3):
            sig = smooth_signal(seed)
            res = approximate(sig, L=2, n=32)
            fine_cost = solve_appopt(sig, 2, 4096)[0].energy()
            assert res.cost_appopt - 1e-7 <= fine_cost <= res.cost_subopt + 1e-7

    def test_uniform_lower_bound_of_unlifted_solution(self, star_signal):
        for n in (16, 32):
            env, _ = solve_appopt(star_signal, L=1, n=n)
            t = np.arange(8192) / 8192
            dips = env.evaluate(t) - star_signal.value_at(t)
            floor = -(star_signal.lipschitz_c + env.derivative_bound()) / n
            assert dips.min() >= floor - 1e-9

    def test_certification_sound_on_denser_grid(self, star_signal):
        res = approximate(star_signal, L=2, n=64)
        assert res.certified
        _, margin4x = certify(res.subopt, star_signal, grid_m=4 * 8192)
        assert margin4x >= -(res.c + res.c_prime) / 8192 - 1e-9
