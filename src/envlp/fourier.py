"""Real trigonometric polynomials: the family the envelopes are drawn from.

A degree-``L`` envelope is stored through its real parametrization

    f(t) = b0 + sum_{k=1..L} 2*(b_re[k]*cos(2*pi*k*t) - b_im[k]*sin(2*pi*k*t))

which is the real form of a conjugate-symmetric complex coefficient set.  The
canonical parameter vector layout ``[b0, b_re[1..L], b_im[1..L]]`` (length
``2L+1``) is used by every matrix row and serialized vector in the package.

All objects are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# The active-set pass keeps a dense inverse of order up to 2L+1, and each
# constraint row it adds is formed by direct cos/sin of phases up to
# 2*pi*L*t, whose rounding grows with L.  Values on uniform grids come from
# one inverse real FFT (``grid_values``), whose accuracy does not rest on L.
MAX_HARMONICS = 64

MAX_CONSTRAINTS = 10 ** 6


def _integral(value) -> bool:
    """Whether ``value`` is an integer or an integral float, and not a bool."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    return isinstance(value, (float, np.floating)) and float(value).is_integer()


def _check_count(value, low: int, what: str, high: int = MAX_CONSTRAINTS) -> int:
    """``value`` as an int after checking it is integral (see :func:`_integral`)
    and in ``[low, high]``: the one range check for every count, be it a
    harmonic budget, constraints, grid points, rays or samples.  The message
    shows a numpy scalar as its Python value."""
    if not _integral(value) or not low <= value <= high:
        shown = value.item() if isinstance(value, np.generic) else value
        raise ValueError(f"{what} must be an integer from {low} to {high}, got {shown!r}")
    return int(value)


def check_run(L: int, n: int | None = None) -> None:
    """Validate a run with :func:`_check_count`: the harmonic budget ``L`` in
    ``[0, MAX_HARMONICS]`` and, when given, the constraint count ``n`` in
    ``[2L+1, MAX_CONSTRAINTS]``, because with fewer than ``2L+1`` rows the
    polynomial between grid points is uncontrolled."""
    L = _check_count(L, 0, "harmonic budget", MAX_HARMONICS)
    if n is not None:
        _check_count(n, 2 * L + 1, "n")


@dataclass(frozen=True, eq=False)
class FourierEnvelope:
    """Bandlimited real trigonometric polynomial of degree ``L``.

    Attributes
    ----------
    L : int
        Harmonic budget; the polynomial has ``2L+1`` real degrees of freedom.
    b0 : float
        DC coefficient (also the mean value over one period).
    b_re, b_im : np.ndarray
        Real and imaginary parts of the positive-frequency coefficients,
        index ``k-1`` holding harmonic ``k``; both have length ``L``.
    """

    L: int
    b0: float
    b_re: np.ndarray
    b_im: np.ndarray

    def __post_init__(self):
        check_run(self.L)
        L = int(self.L)
        b_re = np.array(self.b_re, dtype=float)
        b_im = np.array(self.b_im, dtype=float)
        if b_re.shape != (L,) or b_im.shape != (L,):
            raise ValueError(
                f"coefficient arrays must be 1-D of length L={L}, "
                f"got shapes {b_re.shape} and {b_im.shape}"
            )
        if not (np.isfinite(self.b0) and np.all(np.isfinite(b_re)) and np.all(np.isfinite(b_im))):
            raise ValueError("coefficients must be finite")
        b_re.setflags(write=False)
        b_im.setflags(write=False)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "b_re", b_re)
        object.__setattr__(self, "b_im", b_im)
        try:
            with np.errstate(over="ignore"):
                energy = self.energy()
        except OverflowError:
            energy = np.inf
        if not np.isfinite(energy):
            raise ValueError("coefficients have an energy out of the float range")

    @classmethod
    def from_params(cls, L: int, params: np.ndarray) -> "FourierEnvelope":
        """Build from a parameter vector in the canonical layout."""
        check_run(L)
        L = int(L)
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.shape != (2 * L + 1,):
            raise ValueError(f"expected {2 * L + 1} parameters, got {params.shape[0]}")
        return cls(L=L, b0=params[0], b_re=params[1 : L + 1], b_im=params[L + 1 :])

    def params(self) -> np.ndarray:
        """Parameter vector ``[b0, b_re..., b_im...]`` (length ``2L+1``)."""
        return np.concatenate(([self.b0], self.b_re, self.b_im))

    def evaluate(self, t):
        """Value of the polynomial at phase ``t`` (scalar or array, period 1):
        the phasor rows of ``t`` times :meth:`params`.  On ``m`` uniform
        phases :func:`grid_values` is faster.  A non-finite phase raises
        ``ValueError`` (from :func:`phasor_matrix`)."""
        out = phasor_matrix(self.L, t) @ self.params()
        return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))

    def energy(self) -> float:
        """Sum of squared complex coefficients, equal to the mean-square value
        of the polynomial over one period."""
        return float(self.b0 ** 2 + 2.0 * (self.b_re @ self.b_re + self.b_im @ self.b_im))

    def derivative_bound(self) -> float:
        """Uniform bound on the slope, computed from the realized coefficients.

        Equals ``2*pi * sum_k 2*k*|b[k]|`` and is tight when a single harmonic
        dominates.  Always at most the a-priori bound at equal energy.
        """
        k = np.arange(1, self.L + 1, dtype=float)
        return float(2.0 * TWO_PI * np.sum(k * np.hypot(self.b_re, self.b_im)))

    def to_dict(self) -> dict:
        """Serialized form used in result JSON."""
        return {
            "L": self.L,
            "b0": self.b0,
            "b_re": [float(v) for v in self.b_re],
            "b_im": [float(v) for v in self.b_im],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FourierEnvelope":
        """Inverse of :meth:`to_dict`; each coefficient must be a JSON number."""
        try:
            b0, b_re, b_im = payload["b0"], payload["b_re"], payload["b_im"]
            if not all(type(v) in (int, float) for v in (b0, *b_re, *b_im)):
                raise TypeError("coefficients must be numbers, not bools, strings or null")
            return cls(L=payload["L"], b0=b0, b_re=b_re, b_im=b_im)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed envelope payload: {exc!r}") from exc


def phasor_matrix(L: int, t: np.ndarray) -> np.ndarray:
    """Constraint rows, one per phase in ``t``, such that ``row @ params``
    equals the polynomial at that phase.

    Layout matches the canonical parameter vector:
    ``[1, 2cos(2*pi*t), ..., 2cos(2*pi*L*t), -2sin(2*pi*t), ..., -2sin(2*pi*L*t)]``.
    A non-finite phase raises ``ValueError``.
    """
    check_run(L)
    t = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t)):
        raise ValueError("phase must be finite")
    return _phasors(int(L), t)


def _phasors(L: int, t: np.ndarray) -> np.ndarray:
    """:func:`phasor_matrix` on a checked ``L`` and a 1-D float ``t``: the one
    direct cos/sin kernel.  Besides the rows, one ``T x L`` temporary of
    phases ``2*pi*k*t`` is alive; cos and sin are written into the rows."""
    rows = np.empty((t.shape[0], 2 * L + 1))
    rows[:, 0] = 1.0
    ang = TWO_PI * np.multiply.outer(t, np.arange(1, L + 1, dtype=float))
    cos_part = np.cos(ang, out=rows[:, 1 : L + 1])
    cos_part *= 2.0
    sin_part = np.sin(ang, out=rows[:, L + 1 :])
    sin_part *= -2.0
    return rows


def grid_values(params: np.ndarray, m: int) -> np.ndarray:
    """Values at the ``m`` uniform phases ``j/m`` of the polynomial with
    canonical parameters ``params``, from one inverse real FFT.

    The spectrum (bins ``0..L``) is evaluated on ``m*r`` phases, with ``m*r``
    the smallest multiple of ``m`` above ``2L``, so no harmonic aliases, and
    every ``r``-th value is kept.  The result is therefore exact to rounding
    for every ``m`` in ``[1, MAX_CONSTRAINTS]``, including ``m <= 2L``, at a
    cost of at most ``2L`` extra points; for ``m > 2L``, ``r`` is 1.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim != 1 or params.shape[0] % 2 != 1:
        raise ValueError(f"expected 2L+1 parameters, got shape {params.shape}")
    if not np.all(np.isfinite(params)):
        raise ValueError("coefficients must be finite")
    return _grid_values(params, _check_count(m, 1, "grid"))


def _grid_values(params: np.ndarray, m: int) -> np.ndarray:
    """:func:`grid_values` on a 1-D float ``params`` of odd length and a
    checked int ``m``."""
    L = (params.shape[0] - 1) // 2
    r = 2 * L // m + 1
    # irfft pads bins above L itself, so no spectrum is zeroed per call
    # (zeroing one page-faulted on every QP matvec).
    spectrum = np.concatenate(([params[0]], params[1 : L + 1] + 1j * params[L + 1 :]))
    return np.fft.irfft(spectrum, m * r, norm="forward")[::r]


def _rmatvec(L: int, y: np.ndarray) -> np.ndarray:
    """``A^T y`` for the :func:`_phasors` rows of the grid ``i/n``,
    ``n = len(y) >= 2L+1``: bins ``0..L`` of one real FFT of ``y``."""
    bins = np.fft.rfft(y)[: L + 1]
    return np.concatenate((bins.real[:1], 2.0 * bins.real[1:], 2.0 * bins.imag[1:]))


def _gram_tables(L: int, n: int):
    """:func:`_gram`'s index tables for the grid ``i/n``: the FFT bin of each
    harmonic ``m <= 2L`` and whether it is folded, then ``|j - k|``,
    ``j + k`` and ``sign(j - k)`` for ``j, k = 1..L``."""
    m = np.arange(2 * L + 1)
    folded = m > n // 2
    j = np.arange(1, L + 1)
    diff = j - j[:, None]
    sign = np.sign(diff).astype(float)
    return np.where(folded, n - m, m), folded, np.abs(diff), j + j[:, None], sign


def _gram(w: np.ndarray, tables) -> np.ndarray:
    """``A^T diag(w) A`` for the :func:`_phasors` rows of the grid ``i/n``,
    ``n = len(w) >= 2L+1``, from one real FFT of ``w`` and the
    :func:`_gram_tables` of ``(L, n)``.

    Each entry is a sum of ``C_m = sum_i w_i cos(2 pi m i/n)`` and
    ``S_m = sum_i w_i sin(2 pi m i/n)`` at ``m = |j - k|`` and ``j + k``,
    so only ``m <= 2L`` is read.  ``C_m - i S_m`` is bin ``m`` of the
    FFT, and a harmonic above ``n/2`` is read from bin ``n - m`` with
    ``S`` negated, so the result is exact for every ``n >= 2L+1``.
    """
    bin_of, folded, diff, total, sign = tables
    L = diff.shape[0]
    bins = np.fft.rfft(w)[bin_of]
    c = bins.real
    s = np.where(folded, bins.imag, -bins.imag)
    out = np.empty((2 * L + 1, 2 * L + 1))
    out[0, 0] = c[0]
    out[0, 1 : L + 1] = 2.0 * c[1 : L + 1]
    out[0, L + 1 :] = -2.0 * s[1 : L + 1]
    out[1 : L + 1, 1 : L + 1] = 2.0 * (c[diff] + c[total])
    out[L + 1 :, L + 1 :] = 2.0 * (c[diff] - c[total])
    # Row cos(j), column sin(k): -2 (S_{k+j} + S_{k-j}), S_{-m} = -S_m.
    out[1 : L + 1, L + 1 :] = -2.0 * (s[total] + sign * s[diff])
    out[1:, 0] = out[0, 1:]
    out[L + 1 :, 1 : L + 1] = out[1 : L + 1, L + 1 :].T
    return out


def apriori_derivative_bound(L: int, sup_norm: float) -> float:
    """Slope bound available before solving: ``2*pi*L*sqrt(2L+1)*sup_norm``.

    Valid for any degree-``L`` polynomial whose coefficient energy is at most
    ``sup_norm**2``, which holds for every envelope of a signal bounded by
    ``sup_norm`` (the constant envelope at that height is always feasible).
    The ``sqrt(2L+1)`` factor comes from Cauchy-Schwarz on the coefficient sum.
    """
    check_run(L)
    if not 0 <= sup_norm < np.inf:
        raise ValueError(f"sup_norm must be finite and nonnegative, got {sup_norm}")
    return float(TWO_PI * L * np.sqrt(2.0 * L + 1.0) * sup_norm)
