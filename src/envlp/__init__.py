"""Certified lowpass envelope approximation of periodic signals.

Given one period of a real signal, the package finds a cheap bandlimited
trigonometric polynomial guaranteed to lie at or above the signal everywhere,
together with a certified bound on how far its cost is from optimal.  A
contour front end turns closed planar regions into radial signals and back.
"""

from . import errors
from .contour import (
    Contour,
    centroid,
    radial_parametrize,
    read_polygon_csv,
    reconstruct_region,
    write_polygon_csv,
)
from .fourier import (
    FourierEnvelope,
    apriori_derivative_bound,
    grid_values,
    phasor_matrix,
    phasor_row,
)
from .qp import QpProblem, QpSolution, kkt_residuals, solve
from .signals import PeriodicSignal, read_signal_csv, write_signal_csv
from .solver import (
    EnvelopeResult,
    approximate,
    build_constraints,
    certify,
    fine_grid_opt,
    gap_bound,
    lift_to_envelope,
    solve_appopt,
)

__version__ = "0.1.0"

__all__ = [
    "Contour",
    "EnvelopeResult",
    "FourierEnvelope",
    "PeriodicSignal",
    "QpProblem",
    "QpSolution",
    "approximate",
    "apriori_derivative_bound",
    "build_constraints",
    "centroid",
    "certify",
    "errors",
    "fine_grid_opt",
    "gap_bound",
    "grid_values",
    "kkt_residuals",
    "lift_to_envelope",
    "phasor_matrix",
    "phasor_row",
    "radial_parametrize",
    "read_polygon_csv",
    "read_signal_csv",
    "reconstruct_region",
    "solve",
    "solve_appopt",
    "write_polygon_csv",
    "write_signal_csv",
]
