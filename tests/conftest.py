import re

import numpy as np
import pytest

from envlp import Contour, PeriodicSignal, radial_parametrize

# Tips of the synthetic five-pointed star sit on the n=16 phase grid so a
# doubling chain of constraint grids sees every peak from n=16 onward.
STAR_TIPS = (0.0, 3 / 16, 3 / 8, 5 / 8, 13 / 16)
STAR_OUTER = 1.0
STAR_INNER = 0.6


def count_error(what, low, high, value):
    """A ``pytest.raises`` pattern for the whole message of an out-of-range
    count, which shows a numpy scalar as its Python value."""
    if isinstance(value, np.generic):
        value = value.item()
    return f"^{re.escape(f'{what} must be an integer from {low} to {high}, got {value!r}')}$"


def star_points(tips=STAR_TIPS, r_outer=STAR_OUTER, r_inner=STAR_INNER):
    pts = []
    k = len(tips)
    for i, t in enumerate(tips):
        theta = -np.pi + 2.0 * np.pi * t
        pts.append((r_outer * np.cos(theta), r_outer * np.sin(theta)))
        t_next = tips[(i + 1) % k] + (1.0 if i == k - 1 else 0.0)
        theta_mid = -np.pi + 2.0 * np.pi * 0.5 * (t + t_next)
        pts.append((r_inner * np.cos(theta_mid), r_inner * np.sin(theta_mid)))
    return np.asarray(pts)


def overhang_disk():
    """Unit disk with a vertex every 2 degrees and a thin overhang: a
    0.5-degree pocket under a 2-degree cap, all between rays 10 and 11 of 64
    (at -123.75 and -118.125 degrees), so only rays through the cap cross
    the boundary more than once."""

    def polar(deg, r):
        return (r * np.cos(np.deg2rad(deg)), r * np.sin(np.deg2rad(deg)))

    left = [polar(a, 1.0) for a in np.arange(-180.0, -121.0, 2.0)]
    right = [polar(a, 1.0) for a in np.arange(-118.0, 180.0, 2.0)]
    bump = [
        polar(-121.0, 1.0), polar(-121.0, 0.9), polar(-120.5, 0.9),
        polar(-120.5, 1.2), polar(-121.5, 1.25), polar(-119.5, 1.3),
        polar(-120.0, 1.0),
    ]
    return np.array(left + bump + right)


def vertex_margins(envelope, contour):
    """Radial margin of ``envelope`` over each contour vertex, in the units of
    the radii, with angles taken from the contour centroid."""
    offsets = contour.points - np.asarray(contour.centroid)
    theta = np.arctan2(offsets[:, 1], offsets[:, 0])
    radii = np.hypot(offsets[:, 0], offsets[:, 1])
    margins = envelope.evaluate((theta + np.pi) / (2.0 * np.pi)) - radii
    return margins, float(np.max(radii))


def smooth_signal(seed, m=512, base=1.5, harmonics=3):
    """Random positive smooth test signal: DC plus a few decaying harmonics."""
    rng = np.random.default_rng(seed)
    t = np.arange(m) / m
    values = np.full(m, float(base))
    for k in range(1, harmonics + 1):
        a, b = rng.normal(scale=0.4 / k, size=2)
        values += a * np.cos(2 * np.pi * k * t) + b * np.sin(2 * np.pi * k * t)
    return PeriodicSignal.from_samples(values)


@pytest.fixture(scope="session")
def cos_signal():
    t = np.arange(1024) / 1024
    return PeriodicSignal.from_samples(np.cos(2 * np.pi * t))


@pytest.fixture(scope="session")
def cos_signal_user_c():
    t = np.arange(1024) / 1024
    return PeriodicSignal.from_samples(np.cos(2 * np.pi * t), lipschitz_c=2 * np.pi)


@pytest.fixture(scope="session")
def star_contour():
    return Contour.from_points(star_points())


@pytest.fixture(scope="session")
def star_signal(star_contour):
    return radial_parametrize(star_contour, M=1024)
