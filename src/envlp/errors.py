"""Exception types shared across the package.

A count out of range or not an integer (a harmonic budget, constraint count,
grid, ray or sample count) has no class here: it raises a plain
``ValueError`` of the form ``<name> must be an integer from <low> to <high>,
got <value>``.
"""


class EnvelopeError(Exception):
    """Base class for every error raised by this package."""


class TooFewSamples(EnvelopeError, ValueError):
    """A periodic signal needs at least four samples."""


class NonFiniteSample(EnvelopeError, ValueError):
    """Signal samples must all be finite and at most ``MAX_MAGNITUDE`` (1e150)
    in magnitude."""


class LipschitzTooSmall(EnvelopeError, ValueError):
    """A user-supplied slope bound is below the slope observed in the samples."""


class DimensionMismatch(EnvelopeError, ValueError):
    """Array shapes passed to the QP layer are inconsistent."""


class NotConverged(EnvelopeError, RuntimeError):
    """A solve ended without a KKT-certified result.

    The message starts with the failing stage (``qp: ...``); the last iterate
    and its residuals are attached as ``solution``.
    """

    def __init__(self, message: str, solution=None):
        super().__init__(message)
        self.solution = solution


class DegeneratePolygon(EnvelopeError, ValueError):
    """Polygon has (numerically) zero area, too few vertices, or crosses itself."""


class NoIntersection(EnvelopeError, RuntimeError):
    """A ray cast from the centroid failed to hit the polygon boundary."""


class NonpositiveRadius(EnvelopeError, ValueError):
    """Envelope dips to zero or below; a radial region cannot be rebuilt from it."""
