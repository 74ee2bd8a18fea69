import numpy as np
import pytest

from envlp import PeriodicSignal, read_signal_csv, write_signal_csv
from envlp.signals import observed_slope

from conftest import smooth_signal


class TestFromSamples:
    def test_constant_has_zero_slope(self):
        sig = PeriodicSignal.from_samples([2.0, 2.0, 2.0, 2.0])
        assert sig.lipschitz_c == 0.0
        assert sig.c_provenance == "estimated"

    def test_cosine_estimate_is_observed_slope(self):
        # An estimate bounds the interpolant's slope only: here it is just
        # below 2*pi, the slope of the sampled cosine.
        t = np.arange(1024) / 1024
        sig = PeriodicSignal.from_samples(np.cos(2 * np.pi * t))
        assert sig.lipschitz_c == observed_slope(sig.samples)
        assert 2 * np.pi * (1 - 1e-5) <= sig.lipschitz_c < 2 * np.pi

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            PeriodicSignal.from_samples([0.0, 1.0])
        with pytest.raises(ValueError, match="at least 4 samples, got 2"):
            PeriodicSignal(samples=[0.0, 1.0], lipschitz_c=4.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            PeriodicSignal.from_samples([0.0, np.inf, 0.0, 0.0])
        with pytest.raises(ValueError):
            PeriodicSignal.from_samples([np.inf, np.inf, 0.0, 0.0])
        samples = [np.nan] + [1.0] * 7
        with pytest.raises(ValueError):
            PeriodicSignal(samples=samples, lipschitz_c=1.0)
        # Costs square the samples, so magnitudes above 1e150 are out of range too.
        with pytest.raises(ValueError, match="at most 1e\\+150 in magnitude"):
            PeriodicSignal.from_samples([0.0, 1e155, 0.0, -1e155])

    @pytest.mark.parametrize("scale", [1e-160, 2.0**-1060], ids=["1e-160", "subnormal"])
    def test_too_small_to_cost(self, scale):
        # At 1e-160 the cost of approximate(sig, 8, 256) was subnormal, and at
        # 2**-1060 the solve failed KKT verification.
        values = smooth_signal(0).samples * scale
        with pytest.raises(ValueError, match=r"^signal magnitude \S+ is nonzero but below 1e-150$"):
            PeriodicSignal.from_samples(values)

    def test_smallest_and_zero_signals_accepted(self):
        assert PeriodicSignal.from_samples([1e-150, 0.0, -1e-150, 0.0]).sup_norm() == 1e-150
        assert PeriodicSignal.from_samples(np.zeros(8)).sup_norm() == 0.0

    def test_constructor_derives_provenance(self):
        values = [0.0, 1.0, 0.0, -1.0]
        assert PeriodicSignal(values).c_provenance == "estimated"
        assert PeriodicSignal(values, 4.5).c_provenance == "user_supplied"
        direct, named = PeriodicSignal(values), PeriodicSignal.from_samples(values)
        assert direct.lipschitz_c.hex() == named.lipschitz_c.hex()
        np.testing.assert_array_equal(direct.samples, named.samples)
        # The provenance is derived, so it cannot be passed in.
        with pytest.raises(TypeError):
            PeriodicSignal(values, 1.0, "user_supplied")

    def test_user_slope_below_observed_rejected(self):
        values = [0.0, 1.0, 0.0, -1.0]
        with pytest.raises(ValueError):
            PeriodicSignal.from_samples(values, lipschitz_c=1.0)
        with pytest.raises(ValueError, match="below the observed"):
            PeriodicSignal(samples=values, lipschitz_c=1.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_user_slope_rejected(self, c):
        values = [0.0, 1.0, 0.0, -1.0]
        with pytest.raises(ValueError):
            PeriodicSignal.from_samples(values, lipschitz_c=c)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PeriodicSignal(samples=values, lipschitz_c=c)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e8])
    @pytest.mark.parametrize("ratio", [0.5, 1 - 1e-12])
    def test_slope_check_is_scale_free(self, scale, ratio):
        t = np.arange(256) / 256
        values = (1.5 + np.cos(2 * np.pi * t)) * scale
        c = ratio * observed_slope(values)
        if ratio < 1 - 1e-9:
            with pytest.raises(ValueError):
                PeriodicSignal.from_samples(values, lipschitz_c=c)
        else:
            assert PeriodicSignal.from_samples(values, lipschitz_c=c).lipschitz_c == c

    def test_user_slope_accepted_and_tagged(self):
        values = [0.0, 1.0, 0.0, -1.0]
        sig = PeriodicSignal.from_samples(values, lipschitz_c=4.5)
        assert sig.lipschitz_c == 4.5
        assert sig.c_provenance == "user_supplied"

    def test_observed_slope_matches_by_hand(self):
        # steps of 1 at 4 samples per period -> slope 4
        assert observed_slope(np.array([0.0, 1.0, 0.0, -1.0])) == 4.0


class TestValueAt:
    def test_constant_everywhere(self):
        sig = PeriodicSignal.from_samples([3.25] * 8)
        assert sig.value_at(0.37) == 3.25

    def test_midpoint_interpolation(self):
        sig = PeriodicSignal.from_samples([0.0, 1.0, 0.0, -1.0])
        assert sig.value_at(0.125) == pytest.approx(0.5, abs=1e-15)

    def test_wraparound_interpolation(self):
        sig = PeriodicSignal.from_samples([0.0, 1.0, 0.0, -1.0])
        assert sig.value_at(0.875) == pytest.approx(-0.5, abs=1e-15)
        # np.mod(-1e-300, 1.0) rounds up to 1.0, the closed knot.
        assert sig.value_at(-1e-300) == sig.samples[0]
        np.testing.assert_array_equal(sig.value_at([1.0, 2.0, -3.0]), [sig.samples[0]] * 3)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m", [64, 49, 100])
    def test_exact_at_grid_points(self, m, k):
        # The grid i/(k*m) holds every knot j/m; (1/49)*49 rounds below 1.
        sig = smooth_signal(0, m=m)
        t = np.arange(k * m) / (k * m)
        np.testing.assert_array_equal(sig.value_at(t)[::k], sig.samples)

    def test_exact_at_every_knot_for_every_sample_count(self):
        for m in range(4, 400):
            samples = 1000.0 * np.arange(m) + 1.0
            sig = PeriodicSignal.from_samples(samples)
            np.testing.assert_array_equal(
                sig.value_at(np.arange(m) / m), samples, err_msg=f"m={m}"
            )

    def test_periodicity(self):
        sig = smooth_signal(1, m=32)
        rng = np.random.default_rng(2)
        t = rng.uniform(0, 1, size=50)
        np.testing.assert_allclose(sig.value_at(t + 1.0), sig.value_at(t), atol=1e-12)
        np.testing.assert_allclose(sig.value_at(t - 3.0), sig.value_at(t), atol=1e-12)

    def test_interpolant_respects_slope_bound(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            sig = smooth_signal(seed, m=128)
            t1 = rng.uniform(0, 1, size=200)
            t2 = rng.uniform(0, 1, size=200)
            dist = np.abs(t1 - t2)
            dist = np.minimum(dist, 1.0 - dist)
            gap = np.abs(sig.value_at(t1) - sig.value_at(t2))
            assert np.all(gap <= sig.lipschitz_c * dist + 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_non_finite_phase_rejected(self, bad, as_array):
        # Unchecked, NaN was cast to an int index and inf reached np.mod,
        # each with a RuntimeWarning.
        sig = smooth_signal(0, m=32)
        t = np.array([0.25, bad]) if as_array else bad
        with pytest.raises(ValueError, match="phase must be finite"):
            sig.value_at(t)


class TestReductions:
    def test_sup_norm_constant(self):
        assert PeriodicSignal.from_samples([2.0] * 4).sup_norm() == 2.0

    def test_sup_norm_sign(self):
        assert PeriodicSignal.from_samples([0.0, 1.0, 0.0, -3.0]).sup_norm() == 3.0

    def test_sup_norm_cos_hits_sample(self, cos_signal):
        assert cos_signal.sup_norm() == 1.0

    def test_energy_constant(self):
        assert PeriodicSignal.from_samples([2.0] * 4).signal_energy() == 4.0

    def test_energy_cos(self, cos_signal):
        assert cos_signal.signal_energy() == pytest.approx(0.5, abs=1e-6)

    def test_energy_zero(self):
        assert PeriodicSignal.from_samples([0.0] * 6).signal_energy() == 0.0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sig.csv"
        values = np.array([0.1, -2.5, 1 / 3, 7.0])
        write_signal_csv(path, values)
        np.testing.assert_array_equal(read_signal_csv(path), values)

    def test_header_and_comments(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# radial profile\nvalue\n1.0\n\n2.0\n# trailing note\n3.0\n")
        np.testing.assert_array_equal(read_signal_csv(path), [1.0, 2.0, 3.0])

    def test_bad_value_raises(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError):
            read_signal_csv(path)
