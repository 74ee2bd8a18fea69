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

import math
from dataclasses import dataclass

import numpy as np

from . import qp
from .fourier import (
    FourierEnvelope,
    _check_count,
    _grid_values,
    _phasors,
    apriori_derivative_bound,
    check_run,
    phasor_matrix,
)
from .signals import PeriodicSignal

CERTIFY_TOL = 1e-9  # relative to the signal's largest absolute sample
DEFAULT_CERTIFY_GRID = 8192
MIN_CERTIFY_GRID = 16

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


def build_constraints(sig: PeriodicSignal, L: int, n: int) -> qp.QpProblem:
    """The ``n``-point system of :class:`_GridProblem`, its rows formed up front."""
    check_run(L, n)
    grid = _GridProblem(sig, int(L), int(n))
    rows = phasor_matrix(grid.L, np.arange(grid.n) / grid.n)
    return qp.QpProblem(q_diag=grid.q_diag, a_rows=rows, g=grid.g)


class _GridProblem:
    """The one definition of the discretized system on the grid ``i/n``:
    energy weights ``q_diag``, signal values ``g``, row ``i`` formed when
    asked for, bit for bit as ``phasor_matrix`` forms it, and ``A x`` by the
    one inverse real FFT of :func:`fourier.grid_values`.  :func:`qp.solve`
    reads it without the ``n x (2L+1)`` matrix, :func:`build_constraints`
    forms its rows, and :func:`certify` reads its slack ``A x - g``.
    """

    def __init__(self, sig: PeriodicSignal, L: int, n: int):
        self.L, self.n, self.d = L, n, 2 * L + 1
        self.q_diag = np.full(self.d, 2.0)
        self.q_diag[0] = 1.0
        self.g = sig.value_at(np.arange(n) / n)

    def rows(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        rows = _phasors(self.L, idx.reshape(-1) / self.n)
        return rows.reshape(idx.shape + (self.d,))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _grid_values(x, self.n)


def _seed_on_grid(initial_lam, n: int) -> np.ndarray:
    """Mark row ``(i*n + m//2) // m mod n``, the phase ``j/n`` nearest ``i/m``,
    for each positive entry ``i`` of ``initial_lam``, ``m = len(initial_lam)``."""
    lam = np.asarray([] if initial_lam is None else initial_lam, dtype=float).reshape(-1)
    seed = np.zeros(n)
    seed[(np.flatnonzero(lam > 0.0) * n + lam.size // 2) // lam.size % n] = 1.0
    return seed


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

    ``initial_lam`` may be the multipliers ``lam`` of a run of the same
    signal on any grid ``i/m``, ``m = len(initial_lam)``: the pass starts
    from their active phases rounded onto the grid ``i/n``.  Only where the
    entries are positive matters, so ``None``, an empty array, or one with
    no positive entry (all zero, negative or NaN) starts cold.
    """
    check_run(L, n)
    L, n = int(L), int(n)
    problem = _GridProblem(sig, L, n)
    solution = qp.solve(problem, initial_lam=_seed_on_grid(initial_lam, n))
    return FourierEnvelope.from_params(L, solution.x), solution


def _lift_delta(appopt: FourierEnvelope, c: float, c_prime: float, n: int) -> float:
    """The DC lift ``(c + c')/n`` after checking that ``c`` and ``c'`` are
    finite and nonnegative, that ``n`` passes :func:`check_run` for the
    budget of ``appopt``, and that the lifted cost stays in the float range.

    The lifted DC squared bounds the gap ``2*b0*delta + delta**2`` and, held
    to half the largest float, leaves room for the harmonics, whose energy
    is at most ``MAX_MAGNITUDE**2`` for a solved signal.  The product is
    taken in Python floats, which overflow to inf without a warning.
    """
    if not (0 <= c < np.inf and 0 <= c_prime < np.inf):
        raise ValueError(f"slope bounds must be finite and nonnegative, got {c} and {c_prime}")
    check_run(appopt.L, n)
    delta = (c + c_prime) / n
    top = abs(appopt.b0) + float(delta)
    if not math.isfinite(2.0 * top * top):
        raise ValueError(
            f"lift {delta:.6g} on DC {appopt.b0:.6g} puts the envelope's cost "
            "out of the float range"
        )
    return delta


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
    passes when ``min_margin >= -CERTIFY_TOL * sig.sup_norm()``.  ``grid_m``
    (an integer from ``MIN_CERTIFY_GRID`` to ``MAX_CONSTRAINTS``) is a parameter here
    only; :func:`approximate` uses the default.  A grid at least four times
    denser than ``max(L, 1) * n`` is recommended so dips between constraint
    phases are visible; when ``grid_m`` divides ``n`` (the default 8192 and
    ``n = 16384``, say) every phase checked is a constraint phase, and
    between them only the lift guarantees the envelope.  The margin is the
    slack ``A x - g`` of :class:`_GridProblem` on ``grid_m`` phases, ``x``
    the envelope's parameters: one inverse real FFT, exact for every grid
    size.
    """
    grid_m = _check_count(grid_m, MIN_CERTIFY_GRID, "certification grid")
    grid = _GridProblem(sig, subopt.L, grid_m)
    min_margin = float(np.min(grid.matvec(subopt.params()) - grid.g))
    return min_margin >= -CERTIFY_TOL * sig.sup_norm(), min_margin


def approximate(
    sig: PeriodicSignal,
    L: int,
    n: int,
    c_prime_mode: str = EXACT_POSTSOLVE,
    initial_lam: np.ndarray | None = None,
) -> EnvelopeResult:
    """Full pipeline: solve, bound the envelope slope, lift, bound, certify.

    ``c_prime_mode`` selects the envelope slope bound: ``exact_postsolve``
    (default; computed from the realized coefficients, tighter) or
    ``apriori`` (available before solving, reproduces the original
    construction).  ``certified`` comes from :func:`certify` on its default
    ``DEFAULT_CERTIFY_GRID`` = 8192 phases; when 8192 divides ``n`` these
    are all constraint phases, so it re-checks the solve there, and between
    constraint phases the lift is what guarantees the result.  For another
    grid call ``certify(result.subopt, sig, grid_m=...)``.  ``initial_lam``
    is a warm start as in :func:`solve_appopt`: the multipliers of a run on
    any grid.
    """
    if c_prime_mode not in C_PRIME_MODES:
        raise ValueError(
            f"c_prime_mode must be one of {C_PRIME_MODES}, got {c_prime_mode!r}"
        )
    appopt, solution = solve_appopt(sig, L, n, initial_lam=initial_lam)
    c = sig.lipschitz_c
    if c_prime_mode == EXACT_POSTSOLVE:
        c_prime = appopt.derivative_bound()
    else:
        c_prime = apriori_derivative_bound(L, sig.sup_norm())
    subopt = lift_to_envelope(appopt, c, c_prime, n)
    bound = gap_bound(appopt, c, c_prime, n)
    certified, min_margin = certify(subopt, sig)
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
