import math
import warnings

import numpy as np
import pytest

from envlp import (
    FourierEnvelope,
    PeriodicSignal,
    apriori_derivative_bound,
    build_constraints,
    certify,
    grid_values,
    phasor_matrix,
)
from envlp.fourier import check_run

from conftest import count_error


def random_envelope(rng, max_L=8):
    L = int(rng.integers(0, max_L + 1))
    k = np.arange(1, L + 1)
    return FourierEnvelope(
        L=L,
        b0=rng.normal(),
        b_re=rng.normal(size=L) / np.maximum(k, 1),
        b_im=rng.normal(size=L) / np.maximum(k, 1),
    )


class TestEvaluate:
    def test_constant(self):
        env = FourierEnvelope(L=0, b0=7.5, b_re=[], b_im=[])
        for t in (0.0, 0.123, 0.999):
            assert env.evaluate(t) == 7.5

    def test_cosine_peak_and_trough(self):
        env = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        assert env.evaluate(0.0) == pytest.approx(1.0, abs=1e-15)
        assert env.evaluate(0.5) == pytest.approx(-1 / 3, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        env = random_envelope(rng)
        t = rng.uniform(0, 1, size=17)
        np.testing.assert_allclose(
            env.evaluate(t), [env.evaluate(float(v)) for v in t], atol=1e-14
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_non_finite_phase_rejected(self, bad, as_array):
        # Unchecked, inf warned in cos and NaN came back as a NaN value.
        env = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        t = np.array([0.25, bad]) if as_array else bad
        for kernel in (env.evaluate, lambda u: phasor_matrix(1, u)):
            with pytest.raises(ValueError, match="phase must be finite"):
                kernel(t)


class TestGridValues:
    @pytest.mark.parametrize("m", [1, 2, 3, 16, 25, 64, 127, 128, 129, 1000, 8192])
    @pytest.mark.parametrize("L", [0, 1, 12, 64])
    def test_matches_direct_evaluation(self, L, m):
        # m <= 2L folds harmonics onto lower bins, DC and Nyquist included.
        rng = np.random.default_rng(1009 * L + m)
        env = FourierEnvelope(
            L=L, b0=rng.normal(), b_re=rng.normal(size=L), b_im=rng.normal(size=L)
        )
        direct = env.evaluate(np.arange(m) / m)
        scale = abs(env.b0) + 2.0 * float(np.sum(np.hypot(env.b_re, env.b_im)))
        np.testing.assert_allclose(
            grid_values(env.params(), m), direct, rtol=0, atol=1e-13 * scale
        )

    @pytest.mark.parametrize(
        "params, m",
        [(np.ones(4), 8), (np.ones((3, 1)), 8), (np.ones(3), 0), (np.ones(3), 8.5),
         (np.ones(3), True), (np.ones(3), 10 ** 6 + 1),
         (np.array([np.nan, 0.0, 0.0]), 4), (np.array([np.inf, 0.0, 0.0]), 4)],
        ids=["even length", "2-D", "m=0", "m=8.5", "m=True", "m=1e6+1",
             "nan coefficient", "inf coefficient"],
    )
    def test_rejects_bad_input(self, params, m):
        with pytest.raises(ValueError):
            grid_values(params, m)


class TestEnergy:
    def test_dc_square(self):
        assert FourierEnvelope(L=0, b0=-3.0, b_re=[], b_im=[]).energy() == 9.0

    def test_cos_envelope_optimum_energy(self):
        env = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        assert env.energy() == pytest.approx(1 / 3, abs=1e-15)

    def test_zero(self):
        assert FourierEnvelope(L=2, b0=0.0, b_re=[0, 0], b_im=[0, 0]).energy() == 0.0

    def test_matches_mean_square_by_quadrature(self):
        rng = np.random.default_rng(11)
        t = np.arange(4096) / 4096
        for _ in range(20):
            env = random_envelope(rng)
            quad = float(np.mean(env.evaluate(t) ** 2))
            assert abs(env.energy() - quad) <= 1e-9 * (1 + env.energy())


class TestPhasorRow:
    def test_at_zero(self):
        np.testing.assert_allclose(phasor_matrix(2, [0.0])[0], [1, 2, 2, 0, 0], atol=1e-12)

    def test_quarter_period(self):
        np.testing.assert_allclose(phasor_matrix(1, [0.25])[0], [1, 0, -2], atol=1e-12)

    def test_half_period(self):
        np.testing.assert_allclose(phasor_matrix(1, [0.5])[0], [1, -2, 0], atol=1e-12)

    def test_row_times_params_is_evaluate(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            env = random_envelope(rng)
            t = float(rng.uniform())
            assert abs(phasor_matrix(env.L, [t])[0] @ env.params() - env.evaluate(t)) <= 1e-12

    def test_matrix_stacks_rows(self):
        t = np.array([0.0, 0.2, 0.77])
        expected = [
            [1.0]
            + [2.0 * math.cos(2.0 * math.pi * k * v) for k in (1, 2, 3)]
            + [-2.0 * math.sin(2.0 * math.pi * k * v) for k in (1, 2, 3)]
            for v in t
        ]
        np.testing.assert_allclose(phasor_matrix(3, t), expected, atol=1e-14)
        for v, row in zip(t, expected):
            np.testing.assert_allclose(phasor_matrix(3, [v])[0], row, atol=1e-14)


class TestDerivativeBound:
    def test_constant_has_zero_slope(self):
        assert FourierEnvelope(L=0, b0=5.0, b_re=[], b_im=[]).derivative_bound() == 0.0

    def test_cos_envelope(self):
        env = FourierEnvelope(L=1, b0=1 / 3, b_re=[1 / 3], b_im=[0.0])
        assert env.derivative_bound() == pytest.approx(4 * np.pi / 3, rel=1e-15)

    def test_pure_sine(self):
        env = FourierEnvelope(L=1, b0=0.0, b_re=[0.0], b_im=[-0.5])
        assert env.derivative_bound() == pytest.approx(2 * np.pi, rel=1e-15)

    def test_bounds_grid_slope(self):
        rng = np.random.default_rng(23)
        t = np.arange(4096) / 4096
        for _ in range(20):
            env = random_envelope(rng)
            values = env.evaluate(t)
            slopes = np.abs(np.roll(values, -1) - values) * 4096
            assert slopes.max() <= env.derivative_bound() + 1e-6

    def test_never_exceeds_apriori_at_equal_energy(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            env = random_envelope(rng)
            cap = 2 * np.pi * env.L * np.sqrt(2 * env.L + 1) * np.sqrt(env.energy())
            assert env.derivative_bound() <= cap + 1e-12


class TestAprioriBound:
    def test_dc_budget(self):
        assert apriori_derivative_bound(0, 100.0) == 0.0

    def test_first_harmonic_unit_signal(self):
        assert apriori_derivative_bound(1, 1.0) == pytest.approx(
            2 * np.pi * np.sqrt(3), rel=1e-15
        )

    def test_dominates_exact_slope_of_unit_cosine(self):
        # envelope cos(2*pi*t) has exact peak slope 2*pi
        assert apriori_derivative_bound(1, 1.0) >= 2 * np.pi

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            apriori_derivative_bound(-1, 1.0)
        for sup_norm in (-0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                apriori_derivative_bound(1, sup_norm)


_BUDGET_CHECKS = {
    "FourierEnvelope": lambda L: FourierEnvelope(
        L=L, b0=0.0, b_re=np.zeros(max(int(L), 0)), b_im=np.zeros(max(int(L), 0))
    ),
    "phasor_matrix": lambda L: phasor_matrix(L, [0.0, 0.5]),
    "apriori_derivative_bound": lambda L: apriori_derivative_bound(L, 1.0),
    "build_constraints": lambda L: build_constraints(_ONES, L, 200),
    "check_run": check_run,
}


_ONE = FourierEnvelope(L=1, b0=1.0, b_re=[0.0], b_im=[0.0])
_ONES = PeriodicSignal(np.ones(64))


class TestValidation:
    # Every entry point raises the same plain ValueError for a bad budget.
    @pytest.mark.parametrize("L", [-1, 65, 1.5, True], ids=lambda L: f"{L!r}-ValueError")
    @pytest.mark.parametrize("name", sorted(_BUDGET_CHECKS))
    def test_budget_range(self, name, L):
        with pytest.raises(ValueError, match=count_error("harmonic budget", 0, 64, L)) as info:
            _BUDGET_CHECKS[name](L)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "run",
        [
            {"L": 1.7}, {"L": np.inf}, {"L": True}, {"L": "1"}, {"L": -1}, {"L": 65},
            {"L": 1, "n": 64.5}, {"L": 1, "n": np.nan}, {"L": 1, "n": np.True_},
            {"L": 1, "n": 2}, {"L": 1, "n": 10 ** 6 + 1},
            {"L": 1, "grid_m": 8192.5}, {"L": 1, "grid_m": -np.inf},
            {"L": 1, "grid_m": 10 ** 6 + 1},
        ],
        ids=repr,
    )
    def test_run_must_be_integral_and_capped(self, run):
        # The certification grid is checked by certify, the rest by check_run.
        if "grid_m" in run:
            with pytest.raises(ValueError, match="^certification grid"):
                certify(_ONE, _ONES, grid_m=run["grid_m"])
            return
        if "n" in run:
            message = count_error("n", 3, 10 ** 6, run["n"])
        else:
            message = count_error("harmonic budget", 0, 64, run["L"])
        with pytest.raises(ValueError, match=message) as info:
            check_run(**run)
        assert type(info.value) is ValueError

    def test_integral_floats_and_numpy_ints_pass(self):
        check_run(2.0, np.int64(64))
        assert certify(_ONE, _ONES, grid_m=np.float64(8192.0)) == (True, 0.0)

    def test_budget_cap(self):
        with pytest.raises(ValueError, match=count_error("harmonic budget", 0, 64, 65)):
            FourierEnvelope(L=65, b0=0.0, b_re=np.zeros(65), b_im=np.zeros(65))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FourierEnvelope(L=2, b0=0.0, b_re=[1.0], b_im=[0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            FourierEnvelope(L=1, b0=np.nan, b_re=[0.0], b_im=[0.0])

    @pytest.mark.parametrize(
        "b0, b_re", [(1e160, 0.0), (0.0, 1e160)], ids=["dc", "harmonic"]
    )
    def test_energy_out_of_float_range(self, b0, b_re):
        # Unchecked, energy() raises OverflowError for the first and warns of
        # an overflow in matmul for the second.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="energy out of the float range"):
                FourierEnvelope(L=1, b0=b0, b_re=[b_re], b_im=[0.0])

    def test_largest_dc_keeps_its_energy(self):
        assert FourierEnvelope(L=0, b0=1e154, b_re=[], b_im=[]).energy() == 1e308

    def test_params_length_mismatch(self):
        with pytest.raises(ValueError, match="^expected 3 parameters, got 2$"):
            FourierEnvelope.from_params(1, [1.0, 2.0])

    def test_params_roundtrip(self):
        rng = np.random.default_rng(31)
        env = random_envelope(rng)
        for L in (env.L, float(env.L)):
            again = FourierEnvelope.from_params(L, env.params())
            assert again.b0 == env.b0
            np.testing.assert_array_equal(again.b_re, env.b_re)
            np.testing.assert_array_equal(again.b_im, env.b_im)

    def test_dict_roundtrip(self):
        env = FourierEnvelope(L=2, b0=0.25, b_re=[0.5, -0.125], b_im=[0.0, 2.0])
        again = FourierEnvelope.from_dict(env.to_dict())
        assert again.to_dict() == env.to_dict()

    def test_dict_length_mismatch(self):
        with pytest.raises(ValueError):
            FourierEnvelope.from_dict({"L": 2, "b0": 0.0, "b_re": [1.0], "b_im": [0.0, 0.0]})

    @pytest.mark.parametrize(
        "coeffs",
        [
            {"b0": "1.5", "b_re": ["0.5"], "b_im": [0]},
            {"b0": True, "b_re": [0.5], "b_im": [0]},
            {"b0": 1.0, "b_re": [None], "b_im": [0]},
            {"b0": 1.0, "b_re": [0.5], "b_im": [False]},
            {"b0": 1.0, "b_re": [10 ** 400], "b_im": [0]},
        ],
        ids=["string", "bool_b0", "null", "bool_b_im", "int_overflow"],
    )
    def test_dict_coefficients_must_be_numbers(self, coeffs):
        with pytest.raises(ValueError, match="^malformed envelope payload"):
            FourierEnvelope.from_dict({"L": 1, **coeffs})

    def test_coefficients_are_frozen(self):
        env = FourierEnvelope(L=1, b0=0.0, b_re=[1.0], b_im=[0.0])
        with pytest.raises(ValueError):
            env.b_re[0] = 2.0
