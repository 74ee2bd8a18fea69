"""End-to-end envelope pipeline: discretize, solve, lift, bound, certify.

The discretized problem asks for the cheapest degree-``L`` trigonometric
polynomial that lies above the signal at the ``n`` grid phases ``i/n``.  Its
minimizer is only guaranteed above the signal at those phases, so the result
is lifted by ``(c + c') / n`` in DC (``c`` the signal slope bound, ``c'`` the
envelope slope bound), which restores the everywhere-above property and costs
an exactly computable amount.  That same amount bounds the distance of both
the unlifted and the lifted cost from the continuum optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .fourier import (  # MAX_CONSTRAINTS stays importable from here
    MAX_CONSTRAINTS,
    FourierEnvelope,
    _grid_values,
    _phasor_rows,
    apriori_derivative_bound,
    check_run,
    phasor_matrix,
)
from .signals import PeriodicSignal

CERTIFY_TOL = 1e-9  # relative to the signal's largest absolute sample
DEFAULT_CERTIFY_GRID = 8192

EXACT_POSTSOLVE = "exact_postsolve"
APRIORI = "apriori"
C_PRIME_MODES = (EXACT_POSTSOLVE, APRIORI)


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Everything one discretized run produces.

    ``cost_*`` are coefficient energies; ``paper_cost_subopt`` subtracts the
    fixed signal energy (the area actually lost to the over-approximation,
    which may be negative for sign-changing signals).  ``gap_bound`` bounds
    both ``cost(optimum) - cost_appopt`` and ``cost_subopt - cost(optimum)``.
    """

    appopt: FourierEnvelope
    subopt: FourierEnvelope
    n: int
    L: int
    c: float
    c_prime: float
    c_prime_mode: str
    cost_appopt: float
    cost_subopt: float
    paper_cost_subopt: float
    gap_bound: float
    certified: bool
    min_margin: float
    solver_diag: qp.QpSolution

    def to_dict(self) -> dict:
        """JSON-ready payload (field order is the wire contract)."""
        return {
            "L": self.L,
            "n": self.n,
            "appopt": self.appopt.to_dict(),
            "subopt": self.subopt.to_dict(),
            "c": self.c,
            "c_prime": self.c_prime,
            "c_prime_mode": self.c_prime_mode,
            "cost_appopt": self.cost_appopt,
            "cost_subopt": self.cost_subopt,
            "paper_cost_subopt": self.paper_cost_subopt,
            "gap_bound": self.gap_bound,
            "certified": self.certified,
            "min_margin": self.min_margin,
            "solver": {
                "iterations": self.solver_diag.iterations,
                "converged": self.solver_diag.converged,
                "primal_violation": self.solver_diag.primal_violation,
                "stationarity": self.solver_diag.stationarity,
            },
        }


def _q_diag(L: int) -> np.ndarray:
    """Diagonal of ``Q``: the coefficient energy in the canonical layout."""
    q_diag = np.full(2 * L + 1, 2.0)
    q_diag[0] = 1.0
    return q_diag


def build_constraints(sig: PeriodicSignal, L: int, n: int) -> qp.QpProblem:
    """Assemble the ``n``-point constraint system for harmonic budget ``L``."""
    check_run(L, n)
    L, n = int(L), int(n)
    t = np.arange(n) / n
    rows = phasor_matrix(L, t)
    rows.setflags(write=False)
    return qp.QpProblem(q_diag=_q_diag(L), a_rows=rows, g=sig.value_at(t))


class _GridProblem:
    """The system of :func:`build_constraints` without its ``n x (2L+1)``
    matrix, for :func:`qp.solve`: row ``i`` is formed when asked for, bit
    for bit as ``phasor_matrix`` forms it, and ``A x`` is the polynomial
    with parameters ``x`` on the grid ``i/n``, by the one inverse real FFT
    of :func:`fourier.grid_values`.
    """

    def __init__(self, sig: PeriodicSignal, L: int, n: int):
        self.L, self.n, self.d = L, n, 2 * L + 1
        self.q_diag = _q_diag(L)
        self.g = sig.value_at(np.arange(n) / n)

    def rows(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        rows = _phasor_rows(self.L, idx.reshape(-1) / self.n)
        return rows.reshape(idx.shape + (self.d,))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _grid_values(x, self.n)


def solve_appopt(
    sig: PeriodicSignal,
    L: int,
    n: int,
    initial_lam: np.ndarray | None = None,
):
    """Solve the discretized problem; returns ``(envelope, qp_solution)``.

    The envelope lies above the signal at every grid phase ``i/n`` to solver
    feasibility tolerance; between grid phases it may dip below.  The
    problem is that of :func:`build_constraints`, but its rows are formed
    only as the active-set pass adds them, so memory stays O(n).
    """
    check_run(L, n)
    problem = _GridProblem(sig, int(L), int(n))
    solution = qp.solve(problem, initial_lam=initial_lam)
    return FourierEnvelope.from_params(L, solution.x), solution


def _lift_delta(appopt: FourierEnvelope, c: float, c_prime: float, n: int) -> float:
    """The DC lift ``(c + c')/n`` after checking that ``c`` and ``c'`` are
    finite and nonnegative and that ``n`` passes :func:`check_run` for the
    budget of ``appopt``."""
    if not (0 <= c < np.inf and 0 <= c_prime < np.inf):
        raise ValueError(f"slope bounds must be finite and nonnegative, got {c} and {c_prime}")
    check_run(appopt.L, n)
    return (c + c_prime) / n


def lift_to_envelope(
    appopt: FourierEnvelope, c: float, c_prime: float, n: int
) -> FourierEnvelope:
    """Add ``(c + c')/n`` to the DC coefficient; harmonics are untouched."""
    delta = _lift_delta(appopt, c, c_prime, n)
    return FourierEnvelope(
        L=appopt.L, b0=appopt.b0 + delta, b_re=appopt.b_re, b_im=appopt.b_im
    )


def gap_bound(appopt: FourierEnvelope, c: float, c_prime: float, n: int) -> float:
    """Exact cost increase of the lift: ``2*b0*delta + delta**2``.

    Upper-bounds the suboptimality of both the unlifted and lifted costs with
    respect to the continuum optimum.  The DC coefficient of a solved problem
    is never negative (it equals half the multiplier sum), so the bound is
    nonnegative as well.
    """
    delta = _lift_delta(appopt, c, c_prime, n)
    return float(2.0 * appopt.b0 * delta + delta * delta)


def certify(
    subopt: FourierEnvelope,
    sig: PeriodicSignal,
    grid_m: int = DEFAULT_CERTIFY_GRID,
):
    """Check the everywhere-above property on a dense phase grid.

    Returns ``(certified, min_margin)`` where ``min_margin`` is the smallest
    value of envelope minus signal over ``grid_m`` uniform phases; the check
    passes when ``min_margin >= -CERTIFY_TOL * sig.sup_norm()``.  A grid at
    least four times denser than ``max(L, 1) * n`` is recommended so dips
    between constraint phases are visible.  The envelope is evaluated on the
    grid by one inverse real FFT (:func:`fourier.grid_values`), exact for
    every grid size.
    """
    check_run(subopt.L, grid_m=grid_m)
    grid_m = int(grid_m)
    t = np.arange(grid_m) / grid_m
    margin = _grid_values(subopt.params(), grid_m) - sig.value_at(t)
    min_margin = float(np.min(margin))
    return min_margin >= -CERTIFY_TOL * sig.sup_norm(), min_margin


def approximate(
    sig: PeriodicSignal,
    L: int,
    n: int,
    c_prime_mode: str = EXACT_POSTSOLVE,
    grid_m: int = DEFAULT_CERTIFY_GRID,
    initial_lam: np.ndarray | None = None,
) -> EnvelopeResult:
    """Full pipeline: solve, bound the envelope slope, lift, bound, certify.

    ``c_prime_mode`` selects the envelope slope bound: ``exact_postsolve``
    (default; computed from the realized coefficients, tighter) or
    ``apriori`` (available before solving, reproduces the original
    construction).
    """
    if c_prime_mode not in C_PRIME_MODES:
        raise ValueError(
            f"c_prime_mode must be one of {C_PRIME_MODES}, got {c_prime_mode!r}"
        )
    check_run(L, n, grid_m)
    appopt, solution = solve_appopt(sig, L, n, initial_lam=initial_lam)
    c = sig.lipschitz_c
    if c_prime_mode == EXACT_POSTSOLVE:
        c_prime = appopt.derivative_bound()
    else:
        c_prime = apriori_derivative_bound(L, sig.sup_norm())
    subopt = lift_to_envelope(appopt, c, c_prime, n)
    bound = gap_bound(appopt, c, c_prime, n)
    certified, min_margin = certify(subopt, sig, grid_m=grid_m)
    cost_appopt = appopt.energy()
    cost_subopt = subopt.energy()
    return EnvelopeResult(
        appopt=appopt,
        subopt=subopt,
        n=int(n),
        L=int(L),
        c=float(c),
        c_prime=float(c_prime),
        c_prime_mode=c_prime_mode,
        cost_appopt=cost_appopt,
        cost_subopt=cost_subopt,
        paper_cost_subopt=cost_subopt - sig.signal_energy(),
        gap_bound=bound,
        certified=certified,
        min_margin=min_margin,
        solver_diag=solution,
    )


def fine_grid_opt(sig: PeriodicSignal, L: int, n_fine: int = 4096) -> FourierEnvelope:
    """Dense-grid solve used as a stand-in for the continuum optimum.

    Its cost is within ``gap_bound(.., n_fine)`` of the true optimum, so with
    ``n_fine`` well above any comparison grid (16x or more) it serves as the
    brute-force reference in tests.
    """
    envelope, _ = solve_appopt(sig, L, n_fine)
    return envelope
