"""Closed planar contours and their radial parametrization.

A protection-region polygon becomes a periodic radial signal by casting rays
from its centroid: angle ``theta`` runs counter-clockwise from the +x axis
over ``[-pi, pi)`` and maps affinely onto phase ``t = (theta + pi) / (2*pi)``,
so sample index 0 points along ``-x``.  For star-shaped contours each ray
meets the boundary once and the parametrization is exact; otherwise the
largest intersection distance is kept (over-covering, never under-covering)
and the resulting signal is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneratePolygon, NoIntersection, NonpositiveRadius
from .fourier import FourierEnvelope
from .signals import PeriodicSignal, format_float

_AREA_EPS = 1e-12
_RAY_EPS = 1e-12


def _shoelace_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def centroid(points) -> tuple[float, float]:
    """Area-weighted centroid of a closed polygon (shoelace formula)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 3:
        raise DegeneratePolygon(f"polygon needs >= 3 vertices, got {pts.shape[0]}")
    area = _shoelace_area(pts)
    scale = max(1.0, float(np.max(np.abs(pts))) ** 2)
    if abs(area) <= _AREA_EPS * scale:
        raise DegeneratePolygon("polygon area is numerically zero")
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    cx = float(np.sum((x + xn) * cross) / (6.0 * area))
    cy = float(np.sum((y + yn) * cross) / (6.0 * area))
    return cx, cy


def _segments_cross(p1, p2, p3, p4) -> bool:
    """Proper crossing test for two segments sharing no endpoint."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and all(
        d != 0 for d in (d1, d2, d3, d4)
    )


@dataclass(frozen=True, eq=False)
class Contour:
    """Ordered polygon vertices (implicitly closed) plus their centroid."""

    points: np.ndarray
    centroid: tuple[float, float]

    @classmethod
    def from_points(cls, points) -> "Contour":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if pts.shape[0] < 3:
            raise DegeneratePolygon(f"polygon needs >= 3 vertices, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise DegeneratePolygon("polygon vertices must be finite")
        cx, cy = centroid(pts)
        m = pts.shape[0]
        # Pairwise edge-crossing scan; fine at desk scale.
        for i in range(m):
            a1, a2 = pts[i], pts[(i + 1) % m]
            for j in range(i + 1, m):
                if j == i or (j + 1) % m == i or (i + 1) % m == j:
                    continue
                if _segments_cross(a1, a2, pts[j], pts[(j + 1) % m]):
                    raise DegeneratePolygon(
                        f"polygon edges {i} and {j} cross each other"
                    )
        frozen = pts.copy()
        frozen.setflags(write=False)
        return cls(points=frozen, centroid=(cx, cy))


def _ray_distances(origin, direction, points) -> np.ndarray:
    """All positive distances at which a ray meets the polygon boundary."""
    p = points
    q = np.roll(points, -1, axis=0)
    e = q - p
    w = p - origin
    denom = direction[0] * e[:, 1] - direction[1] * e[:, 0]
    ok = np.abs(denom) > _RAY_EPS
    s = np.where(ok, (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / np.where(ok, denom, 1.0), -1.0)
    u = np.where(ok, (w[:, 0] * direction[1] - w[:, 1] * direction[0]) / np.where(ok, denom, 1.0), -1.0)
    hit = ok & (s > _RAY_EPS) & (u >= -_RAY_EPS) & (u < 1.0 - _RAY_EPS)
    return s[hit]


def radial_parametrize(contour: Contour, M: int = 1024) -> PeriodicSignal:
    """Radial signal of the contour on ``M`` uniform angles.

    Sample ``j`` is the boundary distance along angle ``-pi + 2*pi*j/M`` from
    the centroid.  Rays crossing the boundary more than once mark the contour
    as non-star-shaped: the farthest crossing is kept and the returned signal
    carries ``star_shaped=False``.
    """
    M = int(M)
    if M < 64:
        raise ValueError(f"need at least 64 angular samples, got {M}")
    origin = np.asarray(contour.centroid, dtype=float)
    radii = np.empty(M)
    star_shaped = True
    scale = max(1.0, float(np.max(np.abs(contour.points))))
    for j in range(M):
        theta = -np.pi + 2.0 * np.pi * j / M
        direction = np.array([np.cos(theta), np.sin(theta)])
        dists = _ray_distances(origin, direction, contour.points)
        if dists.size == 0:
            raise NoIntersection(
                f"ray at angle {theta:.6f} missed the boundary; "
                "is the centroid inside the polygon?"
            )
        if dists.size > 1 and np.ptp(dists) > 1e-9 * scale:
            star_shaped = False
        radii[j] = float(np.max(dists))
    return PeriodicSignal.from_samples(radii, star_shaped=star_shaped)


def reconstruct_region(
    env: FourierEnvelope, M: int = 1024, centroid: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Polygon traced by the envelope radii under the same angle convention.

    ``centroid`` re-anchors the region in the plane it came from; the default
    origin suits synthetic signals.
    """
    M = int(M)
    if M < 3:
        raise ValueError(f"need at least 3 boundary points, got {M}")
    t = np.arange(M) / M
    radii = np.asarray(env.evaluate(t), dtype=float)
    if np.any(radii <= 0.0):
        raise NonpositiveRadius(
            f"envelope reaches {float(np.min(radii)):.6g} <= 0; "
            "radial reconstruction is undefined"
        )
    theta = -np.pi + 2.0 * np.pi * t
    cx, cy = centroid
    return np.column_stack((cx + radii * np.cos(theta), cy + radii * np.sin(theta)))


def read_polygon_csv(path) -> np.ndarray:
    """Read ``x,y`` vertex lines; '#' comments skipped; polygon auto-closed."""
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'x,y' per line, got {line!r}")
        rows.append((float(parts[0]), float(parts[1])))
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def write_polygon_csv(path, points) -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lines = [f"{format_float(x)},{format_float(y)}" for x, y in pts]
    Path(path).write_text("\n".join(lines) + "\n")
