"""Uniformly sampled periodic signals with slope metadata.

The target of the approximation is always one period of a real signal given
as ``M`` uniform samples, sample ``i`` at phase ``i/M``.  Between samples the
signal is the periodic linear interpolant, so every guarantee downstream is
with respect to that interpolant; guarantees for an underlying continuous
signal require a user-supplied slope bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MIN_SAMPLES = 4
# Costs square the samples: above MAX they leave the float range, and below
# MIN (unless all zero) they fall to subnormals or to a 0.0 that looks optimal.
MAX_MAGNITUDE = 1e150
MIN_MAGNITUDE = 1e-150

# The interpolant's slope is exactly ``observed_slope``, so its guarantee needs
# no factor.  What the larger lift does is hide contour tips that fall between
# rays: at 1.0, one regions benchmark pass (seed 7) failed the polygon cover
# check on r05, r13 and r14; at 1.5 on r05 and r13.  ROADMAP item 1 (majorant
# sampling) covers the polygon itself; until then the factor stays.
SLOPE_SAFETY = 1.5

_SLOPE_SLACK = 1e-9

USER_SUPPLIED = "user_supplied"
ESTIMATED = "estimated"


def format_floats(values) -> list[str]:
    """``repr`` of each value, the shortest text that parses back to the same
    float bit for bit: the one rendering of floats in every file and JSON
    payload the package writes.  A NaN or infinity raises ``ValueError``."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot serialize a non-finite value")
    return list(map(repr, values.tolist()))


def observed_slope(values: np.ndarray) -> float:
    """Largest slope of the periodic linear interpolant through ``values``;
    0 for no values and NaN when a value is not finite."""
    values = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        steps = np.abs(np.roll(values, -1) - values)
    return float(np.max(steps, initial=0.0) * values.shape[0])


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """One period of a real signal on a uniform grid.

    ``lipschitz_c`` bounds the interpolant slope (and, when user-supplied, the
    slope of the underlying signal).  Omitted, it is estimated as
    ``SLOPE_SAFETY`` times the observed slope; ``c_provenance`` records which
    (``ESTIMATED`` or ``USER_SUPPLIED``) and cannot be passed in.  The
    constructor checks that there are at least ``MIN_SAMPLES`` samples, each
    at most ``MAX_MAGNITUDE`` in magnitude and, unless all are zero, the
    largest at least ``MIN_MAGNITUDE``, and that ``lipschitz_c`` is finite
    and at least their observed slope.
    """

    samples: np.ndarray
    lipschitz_c: float | None = None
    c_provenance: str = field(init=False)

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float).reshape(-1)
        if samples.shape[0] < MIN_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SAMPLES} samples, got {samples.shape[0]}"
            )
        peak = np.max(np.abs(samples))  # NaN if any sample is NaN
        if not peak <= MAX_MAGNITUDE:
            raise ValueError(
                f"signal samples must be finite and at most {MAX_MAGNITUDE:g} in magnitude"
            )
        if 0.0 < peak < MIN_MAGNITUDE:
            raise ValueError(f"signal magnitude {peak:g} is nonzero but below {MIN_MAGNITUDE:g}")
        observed = observed_slope(samples)
        if self.lipschitz_c is None:
            c, provenance = SLOPE_SAFETY * observed, ESTIMATED
        else:
            c, provenance = float(self.lipschitz_c), USER_SUPPLIED
        if not 0 <= c < np.inf:
            raise ValueError(f"slope bound must be finite and nonnegative, got {c}")
        if c < observed * (1.0 - _SLOPE_SLACK):
            raise ValueError(
                f"slope bound {c} is below the observed discrete slope {observed}"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "lipschitz_c", c)
        object.__setattr__(self, "c_provenance", provenance)

    @classmethod
    def from_samples(cls, values, lipschitz_c: float | None = None) -> "PeriodicSignal":
        """Same as ``PeriodicSignal(values, lipschitz_c)``."""
        return cls(samples=values, lipschitz_c=lipschitz_c)

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    def value_at(self, t):
        """Periodic linear interpolant at phase ``t`` (scalar or array),
        exact at every sample phase ``j/m``.  A non-finite phase raises
        ``ValueError``."""
        t_arr = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t_arr)):
            raise ValueError("phase must be finite")
        # The closed knot 1.0 carries samples[0], also for a phase np.mod rounds
        # up to 1.0; np.interp returns fp[j] at x == xp[j], so knots are exact.
        knots = np.arange(self.m + 1) / self.m
        out = np.interp(np.mod(t_arr, 1.0), knots, np.append(self.samples, self.samples[0]))
        return float(out) if t_arr.ndim == 0 else out

    def sup_norm(self) -> float:
        """Largest absolute sample value."""
        return float(np.max(np.abs(self.samples)))

    def signal_energy(self) -> float:
        """Mean-square value over one period (periodic trapezoid on the grid)."""
        return float(np.mean(self.samples ** 2))


def data_lines(path):
    """Stripped lines of a text file, skipping blank lines and '#' comments."""
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def read_signal_csv(path) -> np.ndarray:
    """Read one sample value per line; '#' comments and an optional
    ``value`` header line are skipped."""
    values = []
    for line in data_lines(path):
        if values or line.lower() != "value":
            values.append(float(line))
    return np.asarray(values, dtype=float)


def write_signal_csv(path, values) -> None:
    """Write one sample per line, each as :func:`format_floats` renders it."""
    Path(path).write_text("\n".join(format_floats(values)) + "\n")
