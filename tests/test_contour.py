import numpy as np
import pytest

from envlp import (
    Contour,
    approximate,
    centroid,
    radial_parametrize,
    read_polygon_csv,
    reconstruct_region,
    write_polygon_csv,
)
from envlp.errors import DegeneratePolygon, NoIntersection, NonpositiveRadius
from envlp.fourier import FourierEnvelope

from conftest import star_points, vertex_margins

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def regular_polygon(radius, sides, center=(0.0, 0.0)):
    theta = np.linspace(-np.pi, np.pi, sides, endpoint=False)
    return np.column_stack(
        (center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta))
    )


class TestCentroid:
    def test_unit_square(self):
        assert centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_right_triangle(self):
        assert centroid([(0, 0), (1, 0), (0, 1)]) == pytest.approx(
            (1 / 3, 1 / 3), abs=1e-15
        )

    def test_collinear_points(self):
        with pytest.raises(DegeneratePolygon):
            centroid([(0, 0), (1, 1), (2, 2)])

    def test_orientation_independent(self):
        assert centroid(UNIT_SQUARE[::-1]) == pytest.approx((0.5, 0.5), abs=1e-15)


class TestContourValidation:
    def test_too_few_vertices(self):
        with pytest.raises(DegeneratePolygon):
            Contour.from_points([(0, 0), (1, 0)])

    def test_self_intersection(self):
        bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
        with pytest.raises(DegeneratePolygon):
            Contour.from_points(bowtie)

    def test_non_finite_vertex(self):
        with pytest.raises(DegeneratePolygon):
            Contour.from_points([(0, 0), (1, 0), (np.nan, 1)])


class TestRadialParametrize:
    def test_circle_as_polygon(self):
        contour = Contour.from_points(regular_polygon(3.0, 64))
        sig = radial_parametrize(contour, M=256)
        assert sig.samples.max() <= 3.0 * (1 + 1e-12)
        assert sig.samples.min() >= 3.0 * (1 - 0.002)
        assert sig.star_shaped is True

    def test_square_ray_distances(self):
        sig = radial_parametrize(Contour.from_points(UNIT_SQUARE), M=256)
        # index M/2 is angle 0 (edge midpoint), 5M/8 is pi/4 (corner)
        assert sig.samples[128] == pytest.approx(0.5, abs=1e-12)
        assert sig.samples[160] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_ellipse_angle_convention(self):
        theta = np.linspace(-np.pi, np.pi, 400, endpoint=False)
        contour = Contour.from_points(
            np.column_stack((2 * np.cos(theta), np.sin(theta)))
        )
        sig = radial_parametrize(contour, M=256)
        assert sig.samples[0] == pytest.approx(2.0, abs=1e-6)  # theta = -pi
        assert sig.samples[128] == pytest.approx(2.0, abs=1e-6)  # theta = 0
        assert sig.samples[192] == pytest.approx(1.0, abs=1e-6)  # theta = +pi/2
        assert sig.samples[64] == pytest.approx(1.0, abs=1e-6)  # theta = -pi/2

    def test_non_star_shape_flagged_and_over_covered(self):
        notched = [
            (-1, -1), (1, -1), (1, 1), (0.55, 1),
            (0.55, -0.2), (0.45, -0.2), (0.45, 1), (-1, 1),
        ]
        sig = radial_parametrize(Contour.from_points(notched), M=256)
        assert sig.star_shaped is False

    def test_centroid_outside_material(self):
        # horseshoe: centroid sits in the void, some rays escape unhit
        t = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 40)
        outer = np.column_stack((2 * np.cos(t), 2 * np.sin(t)))
        inner = np.column_stack((1.8 * np.cos(t[::-1]), 1.8 * np.sin(t[::-1])))
        with pytest.raises(NoIntersection):
            radial_parametrize(Contour.from_points(np.vstack((outer, inner))), M=256)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            radial_parametrize(Contour.from_points(UNIT_SQUARE), M=32)


class TestReconstructRegion:
    def test_constant_envelope_cardinal_directions(self):
        env = FourierEnvelope(L=0, b0=2.0, b_re=[], b_im=[])
        pts = reconstruct_region(env, M=4)
        expected = [(-2, 0), (0, -2), (2, 0), (0, 2)]
        np.testing.assert_allclose(pts, expected, atol=1e-12)

    def test_nonpositive_radius(self):
        env = FourierEnvelope(L=0, b0=0.0, b_re=[], b_im=[])
        with pytest.raises(NonpositiveRadius):
            reconstruct_region(env, M=64)

    def test_round_trip_constant(self):
        env = FourierEnvelope(L=0, b0=1.5, b_re=[], b_im=[])
        ring = reconstruct_region(env, M=128)
        sig = radial_parametrize(Contour.from_points(ring), M=128)
        np.testing.assert_allclose(sig.samples, 1.5, atol=1.5e-6)

    def test_superset_of_star_vertices(self, star_contour, star_signal):
        res = approximate(star_signal, L=3, n=64)
        assert res.certified
        margins, r_max = vertex_margins(res.subopt, star_contour)
        assert np.all(margins >= -1e-9 * r_max)

    def test_recentered_output(self):
        env = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        pts = reconstruct_region(env, M=64, centroid=(5.0, -2.0))
        assert np.allclose(np.mean(pts, axis=0), (5.0, -2.0), atol=1e-12)


class TestPolygonCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "poly.csv"
        write_polygon_csv(path, star_points())
        np.testing.assert_array_equal(read_polygon_csv(path), star_points())

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("# a square\n0,0\n1,0\n1,1\n0,1\n")
        assert read_polygon_csv(path).shape == (4, 2)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("0,0\n1 1\n")
        with pytest.raises(ValueError):
            read_polygon_csv(path)
