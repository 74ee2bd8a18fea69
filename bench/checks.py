"""Independent numpy-only checks of the program's outputs.

None of these call into ``envlp``: each re-derives what it checks from the
benchmark's own inputs and the emitted files, so a bug shared by the program
and its own certification cannot hide.
"""

from __future__ import annotations

import numpy as np

RECHECK_GRID = 65536
RECHECK_TOL = 1e-9
COVER_TOL = 1e-9
SCALE_TOL = 1e-9
MONOTONE_TOL = 1e-9


def envelope_on_grid(payload: dict, m: int) -> np.ndarray:
    """Values of a serialized envelope at phases ``j/m`` via one inverse FFT.

    ``b0 + 2*sum(b_re*cos - b_im*sin)`` is the real part of a one-sided
    spectrum, which is a different evaluation route from the program's
    direct cos/sin sums.
    """
    L = int(payload["L"])
    spectrum = np.zeros(m // 2 + 1, dtype=complex)
    spectrum[0] = float(payload["b0"]) * m
    spectrum[1 : L + 1] = (np.asarray(payload["b_re"]) + 1j * np.asarray(payload["b_im"])) * m
    return np.fft.irfft(spectrum, m)


def interpolant_on_grid(samples: np.ndarray, m: int) -> np.ndarray:
    """Periodic linear interpolant of ``samples`` (sample i at phase i/M)."""
    knots = np.arange(samples.size + 1) / samples.size
    return np.interp(np.arange(m) / m, knots, np.append(samples, samples[0]))


def envelope_above(payload: dict, samples: np.ndarray) -> bool:
    """The lifted envelope lies above the signal interpolant on a dense grid.

    The tolerance is the program's certification tolerance, relative once
    the signal exceeds unit size so rounding at large scales is not flagged.
    """
    margin = envelope_on_grid(payload, RECHECK_GRID) - interpolant_on_grid(
        samples, RECHECK_GRID
    )
    return bool(np.min(margin) >= -RECHECK_TOL * max(1.0, float(np.max(np.abs(samples)))))


def cover_margin(vertices: np.ndarray, region: np.ndarray, centroid) -> float:
    """Smallest radial margin of polygon ``vertices`` inside ``region``.

    ``region`` is star-shaped about ``centroid``: for each vertex the ray
    from the centroid through it is intersected with the region edge that
    spans its angle.  Negative means the vertex sticks out.
    """
    c = np.asarray(centroid, dtype=float)
    rel = region - c
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    order = np.argsort(theta)
    theta, rel = theta[order], rel[order]
    theta_ext = np.append(theta, theta[0] + 2.0 * np.pi)
    rel_ext = np.vstack((rel, rel[:1]))
    v = vertices - c
    phi = np.arctan2(v[:, 1], v[:, 0])
    phi = np.where(phi < theta[0], phi + 2.0 * np.pi, phi)
    j = np.clip(np.searchsorted(theta_ext, phi, side="right") - 1, 0, theta.size - 1)
    a, b = rel_ext[j], rel_ext[j + 1]
    edge = b - a
    d = np.column_stack((np.cos(phi), np.sin(phi)))
    reach = (a[:, 0] * edge[:, 1] - a[:, 1] * edge[:, 0]) / (
        d[:, 0] * edge[:, 1] - d[:, 1] * edge[:, 0]
    )
    return float(np.min(reach - np.hypot(v[:, 0], v[:, 1])))


def covers(vertices: np.ndarray, region: np.ndarray, centroid) -> bool:
    scale = float(np.max(np.hypot(*(vertices - np.asarray(centroid)).T)))
    return cover_margin(vertices, region, centroid) >= -COVER_TOL * scale


def scale_equivariant(cost_scaled: float, scale: float, cost_unit: float) -> bool:
    """``cost/s**2`` of a scaled twin matches the unit twin's cost."""
    return abs(cost_scaled / scale**2 - cost_unit) <= SCALE_TOL * abs(cost_unit)


def nested_monotone(costs: dict) -> bool:
    """``cost_appopt`` rises with ``n`` along doubling chains and falls with ``L``.

    ``costs`` maps ``(L, n)`` to ``cost_appopt``.  Finer grids add
    constraints (cost cannot drop); more harmonics widen the feasible set
    (cost cannot rise).  The tolerance is relative to the larger cost.
    """

    def ok(low, high):
        return low <= high + MONOTONE_TOL * max(abs(low), abs(high))

    for (L, n), cost in costs.items():
        if (L, 2 * n) in costs and not ok(cost, costs[(L, 2 * n)]):
            return False
        if (L + 1, n) in costs and not ok(costs[(L + 1, n)], cost):
            return False
    return True
