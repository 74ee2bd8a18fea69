import tracemalloc

import numpy as np
import pytest

from envlp import (
    Contour,
    PeriodicSignal,
    approximate,
    centroid,
    radial_parametrize,
    read_polygon_csv,
    reconstruct_region,
)
from envlp import contour as contour_module
from envlp.contour import _edge_pairs, _ray_hits
from envlp.fourier import FourierEnvelope

from conftest import overhang_disk, star_points, vertex_margins

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
NOTCHED = [
    (-1, -1), (1, -1), (1, 1), (0.55, 1),
    (0.55, -0.2), (0.45, -0.2), (0.45, 1), (-1, 1),
]


def regular_polygon(radius, sides, center=(0.0, 0.0)):
    theta = np.linspace(-np.pi, np.pi, sides, endpoint=False)
    return np.column_stack(
        (center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta))
    )


def crossing_reference(points):
    """Per-pair reference for the pruned crossing scan of
    ``Contour.from_points``: the message for the first crossing pair in
    ``(i, j)`` order, else None."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    m = pts.shape[0]

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for i in range(m):
        p1, p2 = pts[i], pts[(i + 1) % m]
        for j in range(i + 1, m):
            if (j + 1) % m == i or (i + 1) % m == j:
                continue
            p3, p4 = pts[j], pts[(j + 1) % m]
            d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
            d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
            if (
                ((d1 > 0) != (d2 > 0))
                and ((d3 > 0) != (d4 > 0))
                and all(d != 0 for d in (d1, d2, d3, d4))
            ):
                return f"polygon edges {i} and {j} cross each other"
    return None


def crossing_message(points):
    try:
        Contour.from_points(points)
    except ValueError as err:
        return str(err)
    return None


def radial_reference(contour, M):
    """Per-ray reference for the span-indexed kernel ``_ray_hits``:
    ``(hits, star_shaped)``, or the message for the first ray that misses."""
    origin = np.asarray(contour.centroid, dtype=float)
    p = contour.points
    e = np.roll(p, -1, axis=0) - p
    w = p - origin
    radii = np.empty(M)
    star_shaped = True
    scale = max(1.0, float(np.max(np.abs(p))))
    for j in range(M):
        theta = -np.pi + 2.0 * np.pi * j / M
        direction = np.array([np.cos(theta), np.sin(theta)])
        denom = direction[0] * e[:, 1] - direction[1] * e[:, 0]
        ok = np.abs(denom) > 1e-12
        safe = np.where(ok, denom, 1.0)
        s = np.where(ok, (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / safe, -1.0)
        u = np.where(ok, (w[:, 0] * direction[1] - w[:, 1] * direction[0]) / safe, -1.0)
        dists = s[ok & (s > 1e-12) & (u >= -1e-12) & (u < 1.0 - 1e-12)]
        if dists.size == 0:
            return (
                f"ray at angle {theta:.6f} missed the boundary; "
                "is the centroid inside the polygon?"
            )
        if dists.size > 1 and np.ptp(dists) > 1e-9 * scale:
            star_shaped = False
        radii[j] = float(np.max(dists))
    return radii, star_shaped


def random_polygons(count=200, seed=20):
    """Seeded polygons with nonzero area: point clouds (mostly
    self-intersecting), near-stars with one vertex pushed out, and copies
    snapped to a half-unit grid (collinear and touching edges)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = int(rng.integers(4, 25))
        if len(out) % 2:
            pts = rng.normal(size=(v, 2))
        else:
            theta = np.sort(rng.uniform(-np.pi, np.pi, v))
            pts = rng.uniform(0.3, 1.0, v)[:, None] * np.column_stack(
                (np.cos(theta), np.sin(theta))
            )
            pts[rng.integers(v)] *= rng.uniform(-2.0, 3.0)
        if len(out) % 5 == 0:
            pts = np.round(2.0 * pts) / 2.0
        try:
            centroid(pts)
        except ValueError:
            continue
        out.append(pts)
    return out


def large_random_polygons(count=16, seed=22):
    """Seeded self-intersecting polygons of 100 to 2000 vertices whose first
    crossing has a small ``i``, so the per-pair reference stops early: point
    clouds (half of them snapped to a half-unit grid) and jagged stars with
    one of their first eight vertices pushed out through the centroid."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        v = int(np.exp(rng.uniform(np.log(100), np.log(2000))))
        if len(out) % 2:
            pts = rng.normal(size=(v, 2))
            if len(out) % 4 == 1:
                pts = np.round(2.0 * pts) / 2.0
        else:
            theta = np.sort(rng.uniform(-np.pi, np.pi, v))
            pts = rng.uniform(0.3, 1.0, v)[:, None] * np.column_stack(
                (np.cos(theta), np.sin(theta))
            )
            k = rng.integers(8)
            pts[k] *= -rng.uniform(1.2, 3.0) / np.hypot(*pts[k])
        try:
            centroid(pts)
        except ValueError:
            continue
        out.append(pts)
    return out


def subdivided(corners, per_edge):
    """Closed polygon through ``corners`` with every edge split into
    ``per_edge`` parts, so consecutive vertices are nearly collinear."""
    corners = np.asarray(corners, dtype=float)
    frac = np.arange(per_edge)[None, :, None] / per_edge
    step = np.roll(corners, -1, axis=0) - corners
    return (corners[:, None, :] + frac * step[:, None, :]).reshape(-1, 2)


def mushroom(per_edge=50):
    """Non-star cap on a stem, with every edge split into ``per_edge`` parts."""
    corners = [(-0.25, -1.0), (0.25, -1.0), (0.25, 0.5), (1.0, 0.5),
               (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.5), (-0.25, 0.5)]
    return subdivided(corners, per_edge)


def region_shape(kind, seed):
    """Seeded shapes of the kind the regions benchmark ingests, at a random
    rotation and offset: a star with its tips between rays and its edges
    subdivided, a circle with three thin spikes, a smooth blob with jittered
    angles, and the mushroom."""
    rng = np.random.default_rng(seed)
    if kind == "star":
        tips = tuple((k + rng.uniform(0.2, 0.8)) / 7 for k in range(7))
        pts = subdivided(star_points(tips=tips, r_inner=rng.uniform(0.4, 0.55)), 20)
    elif kind == "spikes":
        theta = np.linspace(-np.pi, np.pi, 240, endpoint=False)
        radius = np.ones_like(theta)
        radius[rng.choice(theta.size, 3, replace=False)] = rng.uniform(1.25, 1.45, 3)
        pts = radius[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))
    elif kind == "blob":
        theta = 2.0 * np.pi * (np.arange(300) + 0.8 * rng.random(300)) / 300
        k = np.arange(2, 6)
        radius = 1.0 + np.cos(np.multiply.outer(theta, k) + rng.uniform(0, 7, 4)) @ (
            rng.uniform(0.02, 0.08, 4)
        )
        pts = radius[:, None] * np.column_stack((np.cos(theta), np.sin(theta)))
    else:
        pts = mushroom(per_edge=25)
    turn = rng.uniform(-np.pi, np.pi)
    rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    return pts @ rotation.T + rng.uniform(-5.0, 5.0, 2)


def notch_near_centroid(gap):
    """Square with a slit cut in from the right whose end edge, 0.4 long,
    passes ``gap`` to the right of the centroid (to the left if negative)."""
    tip = 0.0
    for _ in range(8):  # the centroid moves with the slit: iterate to a fixed point
        pts = np.array(
            [(-1, -1), (1, -1), (1, -0.2), (tip, -0.2), (tip, 0.2), (1, 0.2), (1, 1), (-1, 1)],
            dtype=float,
        )
        tip = centroid(pts)[0] + gap
    return pts


def spiral_band(vertices=3000, per_turn=4):
    """A band wound round and round its centre with ``per_turn`` vertices per
    turn on each side: every ray from the centroid crosses two edges per
    turn, and three quarters of the edge pairs overlap in x."""
    theta = 2.0 * np.pi * np.arange(vertices // 2) / per_turn
    inner = 1.0 + theta / (2.0 * np.pi)
    ring = np.column_stack((np.cos(theta), np.sin(theta)))
    return np.vstack(((inner + 0.5)[:, None] * ring, (inner[:, None] * ring)[::-1]))


def majorant_reference(contour, M):
    """Per-ray reference for ``radial_parametrize``: sample ``j`` is the
    largest of the ray hits ``j - 1``, ``j``, ``j + 1`` and the distances of
    the vertices whose angle lies in ``[theta_{j-1}, theta_{j+1})``."""
    hits = radial_reference(contour, M)[0]
    offsets = contour.points - np.asarray(contour.centroid)
    cells = np.floor((np.arctan2(offsets[:, 1], offsets[:, 0]) + np.pi) * M / (2 * np.pi))
    radii = np.hypot(offsets[:, 0], offsets[:, 1])
    samples = np.empty(M)
    for j in range(M):
        near = radii[(cells % M == (j - 1) % M) | (cells % M == j)]
        samples[j] = max(hits[j - 1], hits[j], hits[(j + 1) % M], *near)
    return samples


def boundary_points(points, per_edge=7):
    """The vertices and ``per_edge - 1`` evenly spaced points inside each edge."""
    pts = np.asarray(points, dtype=float)
    frac = np.arange(per_edge)[None, :, None] / per_edge
    return (pts[:, None, :] + frac * (np.roll(pts, -1, axis=0) - pts)[:, None, :]).reshape(-1, 2)


def assert_matches_per_ray_loop(contour, M):
    """Ray hits and ``star_shaped`` equal the per-ray reference bit for bit,
    or both raise the same missed-ray text."""
    expected = radial_reference(contour, M)
    try:
        hits = _ray_hits(contour, M)[0]
    except ValueError as err:
        assert str(err) == expected
        return
    assert not isinstance(expected, str), expected
    samples, star_shaped = expected
    assert np.array_equal(hits, samples)
    assert contour.star_shaped is star_shaped


class TestCentroid:
    def test_unit_square(self):
        assert centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_right_triangle(self):
        assert centroid([(0, 0), (1, 0), (0, 1)]) == pytest.approx(
            (1 / 3, 1 / 3), abs=1e-15
        )

    def test_collinear_points(self):
        with pytest.raises(ValueError):
            centroid([(0, 0), (1, 1), (2, 2)])

    def test_orientation_independent(self):
        assert centroid(UNIT_SQUARE[::-1]) == pytest.approx((0.5, 0.5), abs=1e-15)

    @pytest.mark.parametrize("offset", [0.0, 1e-3, 5.0])
    def test_small_polygon_far_from_origin(self, offset):
        # At offset 5 the area was judged against 25 and rejected as zero.
        contour = Contour.from_points(1e-7 * np.asarray(UNIT_SQUARE) + offset)
        np.testing.assert_allclose(
            contour.centroid, (offset + 0.5e-7, offset + 0.5e-7), rtol=0, atol=1e-14
        )


class TestContourValidation:
    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Contour.from_points([(0, 0), (1, 0)])

    def test_self_intersection(self):
        bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
        with pytest.raises(ValueError):
            Contour.from_points(bowtie)

    def test_non_finite_vertex(self):
        with pytest.raises(ValueError):
            Contour.from_points([(0, 0), (1, 0), (np.nan, 1)])

    @pytest.mark.parametrize(
        "points",
        [
            [(np.cos(a), np.sin(a)) for a in np.pi / 2 + 0.8 * np.pi * np.arange(5)],
            [(0, 0), (1, 0), (np.nan, 1)],
            [(0, 0), (1, 0)],
            [(0, 0), (1, 1), (2, 2)],
        ],
        ids=["pentagram", "nan-vertex", "two-vertices", "zero-area"],
    )
    def test_constructor_rejects_what_from_points_rejects(self, points):
        with pytest.raises(ValueError) as expected:
            Contour.from_points(points)
        with pytest.raises(ValueError) as direct:
            Contour(points=points)
        assert str(direct.value) == str(expected.value)

    def test_constructor_takes_no_centroid(self):
        # The centroid is derived from the points, never given.
        with pytest.raises(TypeError):
            Contour(UNIT_SQUARE, centroid=(0.0, 0.0))

    @pytest.mark.parametrize("points", [UNIT_SQUARE, star_points()], ids=["square", "star"])
    def test_constructor_defaults_to_area_centroid(self, points):
        assert Contour(points).centroid == Contour.from_points(points).centroid
        assert Contour(points).centroid == centroid(points)

    def test_constructor_freezes_a_copy(self):
        pts = np.asarray(UNIT_SQUARE, dtype=float)
        contour = Contour(points=pts)
        assert contour.centroid == (0.5, 0.5)
        assert not contour.points.flags.writeable
        pts[0, 0] = 9.0
        assert contour.points[0, 0] == 0.0

    def test_from_points_checks_crossings_once(self, monkeypatch):
        calls = []
        real = contour_module._check_simple
        monkeypatch.setattr(
            contour_module, "_check_simple", lambda pts: calls.append(1) or real(pts)
        )
        Contour.from_points(UNIT_SQUARE)
        assert len(calls) == 1

    def test_from_points_computes_centroid_once(self, monkeypatch):
        calls = []
        real = contour_module.centroid
        monkeypatch.setattr(
            contour_module, "centroid", lambda pts: calls.append(1) or real(pts)
        )
        Contour.from_points(UNIT_SQUARE)
        assert len(calls) == 1

    def test_random_polygons_match_pairwise_scan(self):
        polygons = random_polygons()
        expected = [crossing_reference(pts) for pts in polygons]
        assert [crossing_message(pts) for pts in polygons] == expected
        rejected = sum(message is not None for message in expected)
        assert 50 <= rejected <= 150
        # Thousands of crossings each, met by the x-sorted scan out of order.
        polygons = large_random_polygons()
        expected = [crossing_reference(pts) for pts in polygons]
        assert [crossing_message(pts) for pts in polygons] == expected
        assert max(len(pts) for pts in polygons) > 1500
        assert None not in expected

    def test_collinear_edges_apart_in_x_do_not_cross(self):
        # Four base vertices on one line up to rounding: the orientations of
        # edges 0 and 2 are rounding noise, and their signs make the
        # pairwise test report a crossing, though edge 0 ends left of where
        # edge 2 starts.  The scan tests only pairs whose boxes overlap.
        pts = np.array(
            [(0.18381541895449266, 2.3853711230831087),
             (0.9663619441570109, 3.545594542688387),
             (1.000834077582913, 3.596703806146095),
             (1.1610197711104173, 3.8341991973220084),
             (-0.653, 4.458)]
        )
        assert max(pts[0, 0], pts[1, 0]) < min(pts[2, 0], pts[3, 0])
        assert crossing_reference(pts) == "polygon edges 0 and 2 cross each other"
        assert crossing_message(pts) is None

    @pytest.mark.parametrize(
        "points",
        [
            # vertex 3 touches edge 0: an orientation is 0, so no crossing
            [(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)],
            # edge 3 runs back along edge 0: all four orientations are 0
            [(0, 0), (3, 0), (3, 1), (2, 0), (1, 0), (0, 1)],
            # two edges meet at a vertex that is not shared
            [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1.0)],
            # only the wrap pair (0, m - 1) is non-consecutive in a triangle
            [(0, 0), (1, 0), (0, 1)],
            # edge m - 1 folds back along edge 0 through the shared vertex 0
            [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0)],
        ],
        ids=["t-touch", "collinear-overlap", "vertex-touch", "triangle", "wrap-fold"],
    )
    def test_touching_and_adjacent_edges_do_not_cross(self, points):
        assert crossing_reference(points) is None
        Contour.from_points(points)

    @pytest.mark.parametrize("case", ["crossings in two row blocks", "spike before a swap"])
    def test_first_crossing_pair_reported(self, case, monkeypatch):
        pts = regular_polygon(1.0, 400)
        if case == "crossings in two row blocks":
            for k in (300, 120):  # swapping k, k + 1 crosses edges k - 1 and k + 1
                pts[[k, k + 1]] = pts[[k + 1, k]]
            expected = "polygon edges 119 and 121 cross each other"
            # In chunks of 64 pairs the x-sorted scan meets (299, 301), near
            # x = 0, in an earlier chunk than (119, 121), near x = 0.31.
            monkeypatch.setattr(contour_module, "_BLOCK", 64)
            chunk_of = {
                (int(min(a, b)), int(max(a, b))): chunk
                for chunk, pairs in enumerate(_edge_pairs(pts))
                for a, b in zip(*pairs)
            }
            assert chunk_of[(299, 301)] < chunk_of[(119, 121)]
        else:
            pts[[150, 151]] = pts[[151, 150]]
            pts[100] *= -1.5  # edges 99 and 100 reach across the polygon
            expected = crossing_reference(pts)
            i, j = map(int, expected.split()[2:5:2])
            assert i == 99 and j > 151
        assert crossing_reference(pts) == expected
        assert crossing_message(pts) == expected


class TestRadialParametrize:
    def test_circle_as_polygon(self):
        contour = Contour.from_points(regular_polygon(3.0, 64))
        sig = radial_parametrize(contour, M=256)
        assert sig.samples.max() <= 3.0 * (1 + 1e-12)
        assert sig.samples.min() >= 3.0 * (1 - 0.002)
        assert contour.star_shaped is True

    def test_square_ray_distances(self):
        contour = Contour.from_points(UNIT_SQUARE)
        hits = _ray_hits(contour, 256)[0]
        # index M/2 is angle 0 (edge midpoint), 5M/8 is pi/4 (corner)
        assert hits[128] == pytest.approx(0.5, abs=1e-12)
        assert hits[160] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        # A sample is the largest distance one ray either side of its own.
        sig = radial_parametrize(contour, M=256)
        assert sig.samples[128] == pytest.approx(0.5 / np.cos(2 * np.pi / 256), abs=1e-12)
        assert sig.samples[160] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_ellipse_angle_convention(self):
        theta = np.linspace(-np.pi, np.pi, 400, endpoint=False)
        contour = Contour.from_points(
            np.column_stack((2 * np.cos(theta), np.sin(theta)))
        )
        hits = _ray_hits(contour, 256)[0]
        assert hits[0] == pytest.approx(2.0, abs=1e-6)  # theta = -pi
        assert hits[128] == pytest.approx(2.0, abs=1e-6)  # theta = 0
        assert hits[192] == pytest.approx(1.0, abs=1e-6)  # theta = +pi/2
        assert hits[64] == pytest.approx(1.0, abs=1e-6)  # theta = -pi/2

    def test_non_star_shape_flagged_and_over_covered(self):
        assert Contour.from_points(NOTCHED).star_shaped is False

    def test_star_shaped_depends_on_the_centre(self):
        # An L-shape is star-shaped about points of its corner square only.
        # With equal arms its centroid lies there; a long arm pulls it out.
        even = Contour([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert even.centroid == pytest.approx((2.5 / 3, 2.5 / 3))
        assert even.star_shaped is True
        long_arm = Contour([(0, 0), (4, 0), (4, 1), (1, 1), (1, 2), (0, 2)])
        assert long_arm.centroid == pytest.approx((1.7, 0.7))
        assert long_arm.star_shaped is False

    def test_centroid_outside_material(self):
        # horseshoe: centroid sits in the void, some rays escape unhit
        t = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 40)
        outer = np.column_stack((2 * np.cos(t), 2 * np.sin(t)))
        inner = np.column_stack((1.8 * np.cos(t[::-1]), 1.8 * np.sin(t[::-1])))
        contour = Contour.from_points(np.vstack((outer, inner)))
        with pytest.raises(ValueError) as info:
            radial_parametrize(contour, M=256)
        assert str(info.value) == radial_reference(contour, 256)

    @pytest.mark.parametrize("M", [64, 1000, 5001])
    @pytest.mark.parametrize("shape", ["star", "notched off-centre", "mushroom"])
    def test_samples_match_per_ray_loop(self, shape, M, star_contour):
        if shape == "star":
            contour = star_contour
        elif shape == "notched off-centre":
            contour = Contour.from_points(np.asarray(NOTCHED) + (3.7, -1.2))
        else:
            contour = Contour.from_points(mushroom())
        hits, star_shaped = radial_reference(contour, M)
        assert np.array_equal(_ray_hits(contour, M)[0], hits)
        assert contour.star_shaped is star_shaped
        assert star_shaped is (shape == "star")
        sig = radial_parametrize(contour, M=M)
        assert np.array_equal(sig.samples, majorant_reference(contour, M))

    @pytest.mark.parametrize("M", [64, 1000])
    @pytest.mark.parametrize("shape", ["rotated star", "thin spike", "mushroom"])
    def test_interpolant_dominates_boundary(self, shape, M):
        # Every vertex and edge point lies within the interpolant's radius
        # at its angle, also where it falls between two rays.
        if shape == "rotated star":
            pts = region_shape("star", 4)
        elif shape == "thin spike":
            # A unit circle with a tip at radius 3 half way between two rays,
            # on a base one degree wide.
            tip = -np.pi + 2 * np.pi * 10.5 / M
            theta = tip + np.deg2rad(np.arange(0.5, 360.0, 1.0))
            pts = np.vstack(
                (3 * np.array([np.cos(tip), np.sin(tip)]),
                 np.column_stack((np.cos(theta), np.sin(theta))))
            )
        else:
            pts = mushroom()
        contour = Contour.from_points(pts)
        assert contour.star_shaped is (shape != "mushroom")
        sig = radial_parametrize(contour, M=M)
        offsets = boundary_points(contour.points) - np.asarray(contour.centroid)
        t = (np.arctan2(offsets[:, 1], offsets[:, 0]) + np.pi) / (2 * np.pi)
        radii = np.hypot(offsets[:, 0], offsets[:, 1])
        assert np.all(sig.value_at(t) >= radii * (1 - 1e-12))
        # The plain ray hits leave the tips out.
        hits = PeriodicSignal.from_samples(_ray_hits(contour, M)[0])
        assert np.min(hits.value_at(t) - radii) < -1e-3

    @pytest.mark.parametrize("M", [64, 1000, 5001])
    def test_overhang_between_rays_not_star(self, M):
        contour = Contour.from_points(overhang_disk())
        assert contour.star_shaped is False
        # The rays see the overhang only once they are dense enough.
        assert radial_reference(contour, M)[1] is (M == 64)

    def test_star_flag_implies_single_crossings(self):
        # A polygon star-shaped about its centroid meets every ray once.
        flags = []
        for pts in random_polygons(count=120, seed=21):
            try:
                contour = Contour.from_points(pts)
                radial_parametrize(contour, M=1000)
            except ValueError:
                continue
            flags.append(contour.star_shaped)
            if contour.star_shaped:
                assert radial_reference(contour, 1000)[1] is True
        assert 10 <= sum(flags) <= len(flags) - 10

    @pytest.mark.parametrize(
        "scale", [1e-150, 1e-120, 1e-12, 1e-7, 1e-3, 1e4, 1e8, 1e120, 1e140]
    )
    def test_scaled_polygon_scales_samples(self, scale):
        pts = star_points(tips=tuple(k / 20 for k in range(20)), r_inner=0.8)
        base = Contour.from_points(pts)
        contour = Contour.from_points(scale * pts)
        np.testing.assert_allclose(
            contour.centroid, scale * np.asarray(base.centroid), rtol=0, atol=1e-15 * scale
        )
        sig, ref = radial_parametrize(contour, M=256), radial_parametrize(base, M=256)
        np.testing.assert_allclose(sig.samples, scale * ref.samples, rtol=1e-12)
        assert contour.star_shaped is base.star_shaped is True

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            radial_parametrize(Contour.from_points(UNIT_SQUARE), M=32)


class TestSpanKernelMatchesPerRayLoop:
    """Cases where casting each edge only against the rays of its angular
    span could go wrong, checked bit for bit against the per-ray loop."""

    @pytest.mark.parametrize("M", [64, 1000, 5001])
    @pytest.mark.parametrize("gap", [1e-9, -1e-9], ids=["right", "left"])
    def test_edge_through_centroid_neighbourhood(self, gap, M):
        # The slit's end edge spans nearly pi seen from the centroid; with
        # the centroid inside the slit the rays to its right miss.
        contour = Contour.from_points(notch_near_centroid(gap))
        w = contour.points[3:5] - np.asarray(contour.centroid)
        assert abs(w[0, 0]) <= 2e-9 * np.max(np.abs(contour.points))
        span = np.arctan2(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0], np.dot(w[0], w[1]))
        assert np.pi - abs(span) < 1e-7
        assert_matches_per_ray_loop(contour, M)

    @pytest.mark.parametrize("M", [64, 1000, 4096, 5001])
    @pytest.mark.parametrize(
        "points",
        [[(-1, 0), (0, -1), (1, 0), (0, 1)], UNIT_SQUARE],
        ids=["diamond", "square"],
    )
    def test_vertex_on_ray(self, points, M):
        # Diamond vertices lie on rays kM/4 and square corners on rays
        # (2k+1)M/8 where M is a multiple of 8.
        assert_matches_per_ray_loop(Contour.from_points(points), M)

    @pytest.mark.parametrize("M", [64, 1000, 5001])
    @pytest.mark.parametrize("shape", ["star", "notched off-centre", "mushroom"])
    def test_clockwise(self, shape, M):
        pts = {
            "star": star_points(),
            "notched off-centre": np.asarray(NOTCHED) + (3.7, -1.2),
            "mushroom": mushroom(),
        }[shape]
        assert_matches_per_ray_loop(Contour.from_points(pts[::-1]), M)

    @pytest.mark.parametrize("M", [64, 1000, 5001])
    @pytest.mark.parametrize("turn", [0.0, 1e-12, -1e-12, 0.5], ids=repr)
    def test_rays_wrapping_at_minus_pi(self, turn, M):
        # A heptagon vertex on, just above or just below the -x axis, or an
        # edge across it (turn = 0.5 of a side).
        theta = -np.pi + 2.0 * np.pi * (np.arange(7) + turn) / 7
        pts = np.column_stack((np.cos(theta), np.sin(theta))) + (2.5, -0.5)
        assert_matches_per_ray_loop(Contour.from_points(pts), M)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["star", "spikes", "blob", "mushroom"])
    def test_region_shapes(self, kind, seed):
        contour = Contour.from_points(region_shape(kind, seed))
        assert_matches_per_ray_loop(contour, (64, 1000, 5001)[seed])

    def test_chunk_boundaries(self, monkeypatch):
        # Chunks of 97 pairs split edges' ray ranges at every offset.
        monkeypatch.setattr(contour_module, "_BLOCK", 97)
        for pts in (mushroom(), region_shape("star", 3), notch_near_centroid(1e-9)):
            assert_matches_per_ray_loop(Contour.from_points(pts), 1000)


_ENV = FourierEnvelope(L=2, b0=2.0, b_re=[0.1, 0.0], b_im=[0.0, 0.2])


@pytest.mark.parametrize(
    "M", [3.7, 100.7, "8", "100", True, np.nan, 10 ** 6 + 1], ids=repr
)
@pytest.mark.parametrize(
    "call",
    [
        lambda M: radial_parametrize(Contour.from_points(UNIT_SQUARE), M=M),
        lambda M: reconstruct_region(_ENV, M=M),
    ],
    ids=["radial_parametrize", "reconstruct_region"],
)
def test_sample_count_integral_and_capped(call, M):
    # Both used to truncate a fractional M and accept a numeric string, and
    # reconstruct_region had no upper cap.
    with pytest.raises(ValueError):
        call(M)


class TestReconstructRegion:
    def test_constant_envelope_cardinal_directions(self):
        env = FourierEnvelope(L=0, b0=2.0, b_re=[], b_im=[])
        pts = reconstruct_region(env, M=4)
        expected = [(-2, 0), (0, -2), (2, 0), (0, 2)]
        np.testing.assert_allclose(pts, expected, atol=1e-12)

    @pytest.mark.parametrize("M", [3, 4, 5, 64, 1000])
    def test_radii_match_direct_evaluation(self, M):
        # M = 3, 4 fold the second harmonic onto lower bins.
        t = np.arange(M) / M
        theta = -np.pi + 2.0 * np.pi * t
        x, y = reconstruct_region(_ENV, M=M).T
        np.testing.assert_allclose(np.hypot(x, y), _ENV.evaluate(t), rtol=1e-14)
        np.testing.assert_allclose(
            np.arctan2(y, x), np.arctan2(np.sin(theta), np.cos(theta)), atol=1e-12
        )

    def test_nonpositive_radius(self):
        env = FourierEnvelope(L=0, b0=0.0, b_re=[], b_im=[])
        with pytest.raises(ValueError):
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

    def test_superset_of_star_tips_between_rays(self):
        # Seven tips, the first half way between two of the 64 rays.
        tips = tuple(k / 7 + 0.5 / 64 for k in range(7))
        contour = Contour.from_points(star_points(tips=tips, r_inner=0.45))
        res = approximate(radial_parametrize(contour, M=64), L=16, n=1024)
        assert res.certified
        margins, r_max = vertex_margins(res.subopt, contour)
        assert np.all(margins >= -1e-9 * r_max)

    def test_recentered_output(self):
        env = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        pts = reconstruct_region(env, M=64, centroid=(5.0, -2.0))
        assert np.allclose(np.mean(pts, axis=0), (5.0, -2.0), atol=1e-12)


    @pytest.mark.parametrize("c", [(np.nan, 0.0), (0.0, -np.inf), (1.0,)])
    def test_bad_centroid_rejected(self, c):
        env = FourierEnvelope(L=0, b0=1.0, b_re=[], b_im=[])
        with pytest.raises(ValueError, match="centroid must be two finite numbers"):
            reconstruct_region(env, M=64, centroid=c)


class TestBlockedKernelMemory:
    def test_peak_below_8_mb(self):
        # An unblocked rays x edges or edges x edges broadcast at V = 3000
        # needs about 72 MB per temporary.
        theta = -np.pi + 2.0 * np.pi * np.arange(3000) / 3000
        radius = 1.0 + 0.01 * np.sin(7.0 * theta)
        pts = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
        tracemalloc.start()
        try:
            contour = Contour.from_points(pts)
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            radial_parametrize(contour, M=4096)
            ray_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan_peak < 8e6
        assert ray_peak < 8e6

    def test_worst_case_peak_below_8_mb(self):
        # Each ray crosses 750 of the 3000 edges (3 million ray-edge pairs)
        # and 3.4 million edge pairs overlap in x: the pairs are only ever
        # held a chunk at a time.
        pts = spiral_band()
        tracemalloc.start()
        try:
            contour = Contour.from_points(pts)
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sig = radial_parametrize(contour, M=4096)
            ray_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert contour.star_shaped is False
        assert scan_peak < 8e6
        assert ray_peak < 8e6


class TestPolygonCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "poly.csv"
        np.savetxt(path, star_points(), delimiter=",")
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
