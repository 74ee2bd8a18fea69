"""Uniformly sampled periodic signals with slope metadata.

The target of the approximation is always one period of a real signal given
as ``M`` uniform samples, sample ``i`` at phase ``i/M``.  Between samples the
signal is the periodic linear interpolant, so every guarantee downstream is
with respect to that interpolant; guarantees for an underlying continuous
signal require a user-supplied slope bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LipschitzTooSmall, NonFiniteSample, TooFewSamples

MIN_SAMPLES = 4

# Discrete slopes underestimate a continuum derivative bound; the factor keeps
# the lift conservative while staying overridable via a user-supplied value.
SLOPE_SAFETY = 1.5

_SLOPE_SLACK = 1e-9

USER_SUPPLIED = "user_supplied"
ESTIMATED = "estimated"


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used in all emitted files."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def observed_slope(values: np.ndarray) -> float:
    """Largest slope of the periodic linear interpolant through ``values``."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    return float(np.max(np.abs(np.roll(values, -1) - values)) * m)


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """One period of a real signal on a uniform grid.

    ``lipschitz_c`` bounds the interpolant slope (and, when user-supplied, the
    slope of the underlying signal).  ``star_shaped`` is optional geometry
    metadata set by the contour pipeline: ``False`` flags a radial profile
    that over-covers a non-star-shaped region.
    """

    samples: np.ndarray
    lipschitz_c: float
    c_provenance: str
    star_shaped: bool | None = None

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float).reshape(-1)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "lipschitz_c", float(self.lipschitz_c))

    @classmethod
    def from_samples(
        cls,
        values,
        lipschitz_c: float | None = None,
        star_shaped: bool | None = None,
    ) -> "PeriodicSignal":
        """Validate samples and attach a slope bound.

        When ``lipschitz_c`` is omitted it is estimated as ``SLOPE_SAFETY``
        times the largest observed discrete slope; a supplied value below the
        observed slope is rejected.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.shape[0] < MIN_SAMPLES:
            raise TooFewSamples(
                f"need at least {MIN_SAMPLES} samples, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteSample("signal samples must all be finite")
        observed = observed_slope(values)
        if lipschitz_c is None:
            c = SLOPE_SAFETY * observed
            provenance = ESTIMATED
        else:
            c = float(lipschitz_c)
            if not 0 <= c < np.inf:
                raise LipschitzTooSmall(f"slope bound must be finite and nonnegative, got {c}")
            if c < observed * (1.0 - _SLOPE_SLACK):
                raise LipschitzTooSmall(
                    f"slope bound {c} is below the observed discrete slope {observed}"
                )
            provenance = USER_SUPPLIED
        return cls(
            samples=values,
            lipschitz_c=c,
            c_provenance=provenance,
            star_shaped=star_shaped,
        )

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    def value_at(self, t):
        """Linear interpolation with periodic wrap; exact at sample points."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        m = self.m
        u = np.mod(t_arr, 1.0) * m
        idx = np.floor(u).astype(int) % m
        frac = u - np.floor(u)
        out = self.samples[idx] * (1.0 - frac) + self.samples[(idx + 1) % m] * frac
        return float(out) if scalar else out

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
    """Write one sample per line with round-trip float formatting."""
    lines = [format_float(v) for v in np.asarray(values, dtype=float)]
    Path(path).write_text("\n".join(lines) + "\n")
