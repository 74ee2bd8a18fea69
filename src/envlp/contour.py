"""Closed planar contours and their radial parametrization.

A protection-region polygon becomes a periodic radial signal by casting rays
from its centroid: angle ``theta`` runs counter-clockwise from the +x axis
over ``[-pi, pi)`` and maps affinely onto phase ``t = (theta + pi) / (2*pi)``,
so sample index 0 points along ``-x``.  For star-shaped contours each ray
meets the boundary once and the parametrization is exact; otherwise the
largest intersection distance is kept and ``Contour.star_shaped`` is False.
Only the ray samples are covered: an envelope lies above the linear
interpolant of the ``M`` samples, and polygon vertices between two rays may
stick out of it until majorant sampling (ROADMAP item 1) covers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneratePolygon, NoIntersection, NonpositiveRadius
from .fourier import FourierEnvelope, _check_count, _grid_values
from .signals import PeriodicSignal, data_lines, format_floats

_AREA_EPS = 1e-12
_RAY_EPS = 1e-12
_MIN_RAYS = 64
# Pairs per chunk in the edge-pair and ray-edge kernels.
_BLOCK = 1 << 15


def centroid(points) -> tuple[float, float]:
    """Area-weighted centroid of a closed polygon (shoelace formula).

    The cross terms are formed on coordinates relative to vertex 0, so the
    area test and the result do not depend on where the polygon lies, and
    divided by a power of two near their largest magnitude, which is exact
    and keeps the cubic terms in the float range at any scale.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise DegeneratePolygon("polygon vertices must be finite")
    if pts.shape[0] < 3:
        raise DegeneratePolygon(f"polygon needs >= 3 vertices, got {pts.shape[0]}")
    rel = pts - pts[0]
    # 2**(e - 1) rather than 2**e, which is inf for extents near 1e308.
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(rel)))[1] - 1)
    rel = rel / scale
    x, y = rel[:, 0], rel[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    if abs(area) <= _AREA_EPS * float(np.max(np.abs(rel))) ** 2:
        raise DegeneratePolygon("polygon area is numerically zero")
    cx = float(pts[0, 0] + scale * (np.sum((x + xn) * cross) / (6.0 * area)))
    cy = float(pts[0, 1] + scale * (np.sum((y + yn) * cross) / (6.0 * area)))
    return cx, cy


def _straddles(o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """Where two orientations are both nonzero and of opposite sign."""
    return ((o1 > 0) != (o2 > 0)) & (o1 != 0) & (o2 != 0)


def _pairs(counts: np.ndarray):
    """Every ``(k, offset)`` with ``0 <= offset < counts[k]``, in chunks of
    about ``_BLOCK`` pairs: owner array and offset array per chunk."""
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1])
    for a in range(0, total, _BLOCK):
        b = min(a + _BLOCK, total)
        k0, k1 = np.searchsorted(ends, [a, b - 1], side="right")
        owners = np.arange(k0, k1 + 1)
        k = np.repeat(owners, np.minimum(ends[owners], b) - np.maximum(starts[owners], a))
        yield k, np.arange(a, b) - starts[k]


def _edge_pairs(pts: np.ndarray):
    """Chunks ``(a, b)`` of the non-adjacent edge pairs whose closed bounding
    boxes overlap, the only pairs that can cross; each pair once, in either
    order.

    Edges are sorted by their left end; each is paired with the later edges
    whose left end is at most its right end, found by binary search.
    """
    m = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    x_lo, x_hi = np.minimum(x, xn), np.maximum(x, xn)
    y_lo, y_hi = np.minimum(y, yn), np.maximum(y, yn)
    order = np.argsort(x_lo, kind="stable")
    reach = np.searchsorted(x_lo[order], x_hi[order], side="right")
    for k, offset in _pairs(reach - np.arange(m) - 1):
        a, b = order[k], order[k + 1 + offset]
        # |a - b| = m - 1 only for the wrap pair (0, m - 1), which shares vertex 0.
        apart = np.abs(a - b)
        keep = np.flatnonzero(
            (apart >= 2) & (apart < m - 1) & (y_lo[a] <= y_hi[b]) & (y_lo[b] <= y_hi[a])
        )
        yield a[keep], b[keep]


def _check_simple(pts: np.ndarray) -> None:
    """Raise for the first pair ``i < j`` of non-adjacent edges that cross.

    Edge ``i`` runs from vertex ``i`` to ``i + 1``; a pair crosses when each
    edge strictly straddles the other.  Only pairs whose bounding boxes
    overlap are tested (:func:`_edge_pairs`), and the first crossing in
    ``(i, j)`` order is kept across chunks.
    """
    m = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    ex, ey = xn - x, yn - y
    first = m * m  # i * m + j of the first crossing found so far
    for a, b in _edge_pairs(pts):
        # Vertices a, a + 1 against edge b, then, where they straddle it,
        # vertices b, b + 1 against edge a.
        o1 = ex[b] * (y[a] - y[b]) - ey[b] * (x[a] - x[b])
        o2 = ex[b] * (yn[a] - y[b]) - ey[b] * (xn[a] - x[b])
        half = np.flatnonzero(_straddles(o1, o2))
        a, b = a[half], b[half]
        o3 = ex[a] * (y[b] - y[a]) - ey[a] * (x[b] - x[a])
        o4 = ex[a] * (yn[b] - y[a]) - ey[a] * (xn[b] - x[a])
        cross = _straddles(o3, o4)
        if cross.any():
            a, b = a[cross], b[cross]
            first = min(first, int(np.min(np.minimum(a, b) * m + np.maximum(a, b))))
    if first < m * m:
        i, j = divmod(first, m)
        raise DegeneratePolygon(f"polygon edges {i} and {j} cross each other")


@dataclass(frozen=True, eq=False)
class Contour:
    """Ordered polygon vertices (implicitly closed) plus a centroid, by
    default the polygon's area-weighted :func:`centroid`.  Validated on
    construction: at least 3 finite vertices, nonzero area, no two
    non-adjacent edges crossing (the first crossing pair in ``(i, j)``
    order is reported), and a given centroid of two finite numbers."""

    points: np.ndarray
    centroid: tuple[float, float] | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=float).reshape(-1, 2)
        c = centroid(pts)  # finite vertices, at least 3 of them, nonzero area
        _check_simple(pts)
        c = np.asarray(c if self.centroid is None else self.centroid, dtype=float)
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise ValueError(f"centroid must be two finite numbers, got {self.centroid!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "centroid", (float(c[0]), float(c[1])))

    @classmethod
    def from_points(cls, points) -> "Contour":
        """Same as ``Contour(points)``: about the area-weighted centroid."""
        return cls(points=points)

    def _edges(self):
        """Per edge ``i``: ``(ex, ey)`` from vertex ``i`` to ``i + 1``, ``(wx, wy)``
        from the centroid to vertex ``i``, and their cross product ``s_num``."""
        px, py = self.points[:, 0], self.points[:, 1]
        ex, ey = np.roll(px, -1) - px, np.roll(py, -1) - py
        wx, wy = px - self.centroid[0], py - self.centroid[1]
        return ex, ey, wx, wy, wx * ey - wy * ex

    @property
    def star_shaped(self) -> bool:
        """True exactly when the polygon is star-shaped about ``centroid``:
        seen from there, no edge turns against the polygon's orientation.
        It is read off the edges, so it holds for every ray count; a notch or
        overhang that falls between two rays still clears it."""
        ex, ey, wx, wy, s_num = self._edges()
        tol = _RAY_EPS * np.hypot(wx, wy) * np.hypot(ex, ey)
        return not np.any(s_num * np.sign(np.sum(s_num)) < -tol)


def radial_parametrize(contour: Contour, M: int = 1024) -> PeriodicSignal:
    """Radial signal of the contour on ``M`` uniform angles.

    Sample ``j`` is the boundary distance along angle ``-pi + 2*pi*j/M`` from
    the centroid, the farthest where a ray crosses more than once.  Each edge
    is cast only against the rays its angular span from the centroid covers,
    plus one ray and a rounding slack on each side, so a hit is never missed
    and the cost is O(V + M) for a star-shaped polygon; pairs are formed in
    chunks, so memory stays bounded for any ``M`` and vertex count.
    """
    M = _check_count(M, _MIN_RAYS, "M")
    ex, ey, wx, wy, s_num = contour._edges()
    e_len, w_len = np.hypot(ex, ey), np.hypot(wx, wy)
    tol = _RAY_EPS * e_len
    s_min = _RAY_EPS * float(np.max(w_len))
    theta = -np.pi + 2.0 * np.pi * np.arange(M) / M
    dx, dy = np.cos(theta), np.sin(theta)
    # Span of edge i in ray units: from the angle of w_i, signed like s_num
    # (the cross product of w_i and w_i + e_i).  A hit may lie up to
    # _RAY_EPS * |e| before vertex i, and rounding moves it about
    # 1e-15 * (|w| + |e|) off the edge; seen from the centroid, which is at
    # least |s_num| / |e| from the edge's line, both stay within the slack.
    # An edge whose line passes through the centroid gets every ray.
    per_rad = M / (2.0 * np.pi)
    start = (np.arctan2(wy, wx) + np.pi) * per_rad
    end = start + np.arctan2(s_num, wx * (wx + ex) + wy * (wy + ey)) * per_rad
    slack = 10.0 * _RAY_EPS * (w_len + e_len) * e_len
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(slack > 0.0, slack / np.abs(s_num), 0.0)
    pad = 1.0 + np.minimum(slack * per_rad, M)
    lo = np.floor(np.minimum(start, end) - pad).astype(np.int64)
    hi = np.ceil(np.maximum(start, end) + pad).astype(np.int64)
    far = np.full(M, -np.inf)
    for i, offset in _pairs(np.minimum(hi - lo + 1, M)):
        j = (lo[i] + offset) % M
        cx, cy = dx[j], dy[j]
        denom = cx * ey[i] - cy * ex[i]
        ok = np.abs(denom) > tol[i]
        denom = np.where(ok, denom, 1.0)
        s = s_num[i] / denom
        u = (wx[i] * cy - wy[i] * cx) / denom
        hit = ok & (s > s_min) & (u >= -_RAY_EPS) & (u < 1.0 - _RAY_EPS)
        np.maximum.at(far, j[hit], s[hit])
    missed = np.flatnonzero(far == -np.inf)
    if missed.size:
        raise NoIntersection(
            f"ray at angle {theta[missed[0]]:.6f} missed the boundary; "
            "is the centroid inside the polygon?"
        )
    return PeriodicSignal.from_samples(far)


def reconstruct_region(
    env: FourierEnvelope, M: int = 1024, centroid: tuple[float, float] = (0.0, 0.0)
) -> np.ndarray:
    """Polygon traced by the envelope radii under the same angle convention.

    ``M`` is an integer in ``[3, MAX_CONSTRAINTS]``.  The radii at the ``M``
    uniform angles come from one inverse real FFT
    (:func:`fourier.grid_values`), exact for every ``M``.  ``centroid``,
    two finite numbers, re-anchors the region in the plane it came from;
    the default origin suits synthetic signals.
    """
    M = _check_count(M, 3, "M")
    c = np.asarray(centroid, dtype=float)
    if c.shape != (2,) or not np.all(np.isfinite(c)):
        raise ValueError(f"centroid must be two finite numbers, got {centroid!r}")
    t = np.arange(M) / M
    radii = _grid_values(env.params(), M)
    if np.any(radii <= 0.0):
        raise NonpositiveRadius(
            f"envelope reaches {float(np.min(radii)):.6g} <= 0; "
            "radial reconstruction is undefined"
        )
    theta = -np.pi + 2.0 * np.pi * t
    return np.column_stack((c[0] + radii * np.cos(theta), c[1] + radii * np.sin(theta)))


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
    cells = format_floats(np.asarray(points, dtype=float).reshape(-1, 2))
    lines = [f"{x},{y}" for x, y in zip(cells[::2], cells[1::2])]
    Path(path).write_text("\n".join(lines) + "\n")
