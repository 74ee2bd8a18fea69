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
from .fourier import FourierEnvelope, _check_count, _grid_values
from .signals import PeriodicSignal, data_lines, format_float

_AREA_EPS = 1e-12
_RAY_EPS = 1e-12
# Elements per temporary array in the blocked crossing and ray kernels.
_BLOCK = 1 << 15


def centroid(points) -> tuple[float, float]:
    """Area-weighted centroid of a closed polygon (shoelace formula).

    The cross terms are formed on coordinates relative to vertex 0, so the
    area test and the result do not depend on where the polygon lies.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 3:
        raise DegeneratePolygon(f"polygon needs >= 3 vertices, got {pts.shape[0]}")
    rel = pts - pts[0]
    x, y = rel[:, 0], rel[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    if abs(area) <= _AREA_EPS * float(np.max(np.abs(rel))) ** 2:
        raise DegeneratePolygon("polygon area is numerically zero")
    cx = float(pts[0, 0] + np.sum((x + xn) * cross) / (6.0 * area))
    cy = float(pts[0, 1] + np.sum((y + yn) * cross) / (6.0 * area))
    return cx, cy


def _straddles(o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """Where two orientations are both nonzero and of opposite sign."""
    return ((o1 > 0) != (o2 > 0)) & (o1 != 0) & (o2 != 0)


def _check_simple(pts: np.ndarray) -> None:
    """Raise for the first pair ``i < j`` of non-adjacent edges that cross.

    Edge ``i`` runs from vertex ``i`` to ``i + 1``; a pair crosses when each
    edge strictly straddles the other.  Blocks of edges ``i`` are tested
    against all edges ``j >= i + 2`` at once.
    """
    m = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    ex, ey = np.roll(x, -1) - x, np.roll(y, -1) - y
    step = max(1, _BLOCK // m)
    for i0 in range(0, m - 2, step):
        i1 = min(i0 + step, m - 2)
        i, j, v = slice(i0, i1), slice(i0 + 2, m), slice(i0, i1 + 1)
        # Vertices i, i + 1 against edges j; vertices j, j + 1 against edges i.
        oj = ex[j] * (y[v, None] - y[j]) - ey[j] * (x[v, None] - x[j])
        xj, yj = np.append(x[j], x[0]), np.append(y[j], y[0])
        oi = ex[i, None] * (yj - y[i, None]) - ey[i, None] * (xj - x[i, None])
        cross = _straddles(oj[:-1], oj[1:]) & _straddles(oi[:, :-1], oi[:, 1:])
        cross = np.triu(cross)  # column c is edge i0 + 2 + c: keep j >= i + 2
        if i0 == 0:
            cross[0, -1] = False  # edges 0 and m - 1 share vertex 0
        if cross.any():
            r, c = divmod(int(np.argmax(cross)), cross.shape[1])
            raise DegeneratePolygon(
                f"polygon edges {i0 + r} and {i0 + 2 + c} cross each other"
            )


@dataclass(frozen=True, eq=False)
class Contour:
    """Ordered polygon vertices (implicitly closed) plus their centroid."""

    points: np.ndarray
    centroid: tuple[float, float]

    @classmethod
    def from_points(cls, points) -> "Contour":
        """Validated contour: at least 3 finite vertices, nonzero area and no
        two non-adjacent edges crossing, checked by a blocked array scan."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise DegeneratePolygon("polygon vertices must be finite")
        cx, cy = centroid(pts)
        _check_simple(pts)
        frozen = pts.copy()
        frozen.setflags(write=False)
        return cls(points=frozen, centroid=(cx, cy))


def radial_parametrize(contour: Contour, M: int = 1024) -> PeriodicSignal:
    """Radial signal of the contour on ``M`` uniform angles.

    Sample ``j`` is the boundary distance along angle ``-pi + 2*pi*j/M`` from
    the centroid, the farthest where a ray crosses more than once; rays are
    cast in blocks, so memory stays bounded for any ``M`` and vertex count.
    ``star_shaped`` is read off the edges: True exactly when the polygon is
    star-shaped about its centroid, i.e. seen from there no edge turns back.
    """
    M = _check_count(M, 64, "M")
    p = contour.points
    e = np.roll(p, -1, axis=0) - p
    w = p - np.asarray(contour.centroid, dtype=float)
    s_num = w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]
    e_len, w_len = np.hypot(e[:, 0], e[:, 1]), np.hypot(w[:, 0], w[:, 1])
    s_min = _RAY_EPS * float(np.max(w_len))
    theta = -np.pi + 2.0 * np.pi * np.arange(M) / M
    dx, dy = np.cos(theta)[:, None], np.sin(theta)[:, None]
    far = np.empty(M)
    step = max(1, _BLOCK // p.shape[0])
    for j0 in range(0, M, step):
        rays = slice(j0, j0 + step)
        denom = dx[rays] * e[:, 1] - dy[rays] * e[:, 0]
        ok = np.abs(denom) > _RAY_EPS * e_len
        denom = np.where(ok, denom, 1.0)
        s = s_num / denom
        u = (w[:, 0] * dy[rays] - w[:, 1] * dx[rays]) / denom
        hit = ok & (s > s_min) & (u >= -_RAY_EPS) & (u < 1.0 - _RAY_EPS)
        far[rays] = np.max(np.where(hit, s, -np.inf), axis=1)
    missed = np.flatnonzero(far == -np.inf)
    if missed.size:
        raise NoIntersection(
            f"ray at angle {theta[missed[0]]:.6f} missed the boundary; "
            "is the centroid inside the polygon?"
        )
    backwards = s_num * np.sign(np.sum(s_num)) < -_RAY_EPS * w_len * e_len
    return PeriodicSignal.from_samples(far, star_shaped=not np.any(backwards))


def reconstruct_region(
    env: FourierEnvelope, M: int = 1024, centroid: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Polygon traced by the envelope radii under the same angle convention.

    ``M`` is an integer in ``[3, MAX_CONSTRAINTS]``.  The radii at the ``M``
    uniform angles come from one inverse real FFT
    (:func:`fourier.grid_values`), exact for every ``M``.  ``centroid``
    re-anchors the region in the plane it came from; the default origin
    suits synthetic signals.
    """
    M = _check_count(M, 3, "M")
    t = np.arange(M) / M
    radii = _grid_values(env.params(), M)
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
    for line in data_lines(path):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'x,y' per line, got {line!r}")
        rows.append((float(parts[0]), float(parts[1])))
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def write_polygon_csv(path, points) -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lines = [f"{format_float(x)},{format_float(y)}" for x, y in pts]
    Path(path).write_text("\n".join(lines) + "\n")
