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
    _gram,
    _gram_tables,
    _grid_values,
    _phasors,
    _rmatvec,
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
    grid = _GridProblem(sig, L, n)
    rows = phasor_matrix(grid.L, np.arange(grid.n) / grid.n)
    return qp.QpProblem(q_diag=grid.q_diag, a_rows=rows, g=grid.g)


class _GridProblem:
    """The discretized system on the grid ``i/n`` of a run that passes
    :func:`check_run`, as :func:`qp.solve` reads it: row ``i`` formed when
    asked for, bit for bit as ``phasor_matrix`` forms it, and ``A x`` by the
    inverse real FFT of :func:`fourier.grid_values`."""

    def __init__(self, sig: PeriodicSignal, L: int, n: int):
        check_run(L, n)
        self.L, self.n, self.d = int(L), int(n), 2 * int(L) + 1
        self.q_diag = np.full(self.d, 2.0)
        self.q_diag[0] = 1.0
        self.g = sig.value_at(np.arange(self.n) / self.n)

    def rows(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        rows = _phasors(self.L, idx.reshape(-1) / self.n)
        return rows.reshape(idx.shape + (self.d,))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _grid_values(x, self.n)


def _seed_on_grid(initial_lam, n: int) -> np.ndarray:
    """Carry each positive entry ``i`` of ``initial_lam`` to row
    ``(i*n + m//2) // m mod n``, the phase ``j/n`` nearest ``i/m``,
    ``m = len(initial_lam)``; a row two phases reach keeps the larger."""
    lam = np.asarray([] if initial_lam is None else initial_lam, dtype=float).reshape(-1)
    seed = np.zeros(n)
    active = np.flatnonzero(lam > 0.0)
    np.maximum.at(seed, (active * n + lam.size // 2) // lam.size % n, lam[active])
    return seed


# Cold runs with at least this many harmonics start from the interior point.
# Cold pass / (start + pass) over the five benchmark families at three seeds,
# 2 shared vCPUs, one BLAS thread: (16, 1024) 1.6x, (24, 49) 1.1x,
# (24, 1024) 2.0x, (32, 2048) 2.6x, (48, 4096) 3.6x, (64, 4096) 4.5x.
# Below 24 the cold pass is kept.  With the start on every cold grid solve
# (in-process passes at seed 7, medians of 15 and 7 alternating passes, two
# runs), regions took 157-162 ms per pass against 176-181 ms; sweep_small,
# whose cold solves are at n = 32, took 1830-1859 ms against 1644-1701 ms.
_INTERIOR_START_MIN_L = 24

# Mehrotra steps of the interior start: at most this many, each stopping
# short of the boundary by this factor, until the duality gap falls to this
# fraction of the energy, or to the floor while more rows are ranked than
# qp._seed reads.  On the smooth family at 5 seeds x 3 scales x (48, 4096),
# (64, 4096), (64, 16384) and (64, 65536), the pass then took 0 steps in 54
# of 60 runs (96 in all); with the floor at 1e-12, in 48 (171 steps), and
# with none, in 0 (9483 steps).
_START_STEPS = 50
_START_BACKOFF = 0.995
_START_GAP = 1e-9
_START_FLOOR = 1e-13


def _interior_start(problem: _GridProblem) -> np.ndarray:
    """Row priorities for the active-set pass, ranked by an interior point.

    Runs Mehrotra's predictor-corrector (SIAM J. Optim. 2(4), 1992) on
    ``g / max|g|``.  The start ``x = (max(g, 0) + 1) e_0``,
    ``lam = 2 (max(g, 0) + 1) / n`` is primal and dual feasible, because the
    harmonics sum to 0 over the grid, and each step keeps it so.  A step
    solves ``(2Q + A^T D A) dx = r``, ``D = lam / s``, for two right-hand
    sides, one LU solve each; :func:`fourier._gram` forms the matrix, on
    index tables built once per start, and :func:`fourier._rmatvec` the
    right-hand sides, so all length-``n`` work is FFTs and elementwise
    updates of ``s``, ``lam`` and two buffers.

    The steps stop once the duality gap ``s^T lam`` is at most ``1e-9`` of
    the energy ``x^T Q x`` and at most ``2(2L+1)`` rows have ``lam_i > s_i``,
    the most candidates :func:`qp._seed` reads.  With more (a degenerate
    problem, where many rows are nearly tight) they go on to a gap of
    ``1e-13`` of the energy, where the top-ranked rows are mostly spread
    enough for ``qp._seed`` to find ``2L+1`` independent ones.  At most
    ``_START_STEPS`` steps are taken, and a singular matrix ends them.

    Returns ``lam_i / s_i`` where it is above 1, 0 elsewhere, in ``lam``'s
    buffer: priorities only, from which :func:`qp.solve` picks warm rows.
    """
    n, high = problem.n, float(np.max(problem.g))
    if not high > 0.0:
        return np.zeros(n)  # x = 0 is optimal
    scale = max(high, -float(np.min(problem.g)))
    q2 = 2.0 * problem.q_diag
    top = high / scale + 1.0
    x = np.zeros(problem.d)
    x[0] = top
    s = np.divide(problem.g, -scale)
    s += top
    lam = np.full(n, 2.0 * top / n)
    dl = np.empty(n)
    tables = _gram_tables(problem.L, n)
    for _step in range(_START_STEPS):
        gap = float(s @ lam)
        energy = float(x @ (problem.q_diag * x))
        if gap <= _START_GAP * energy and (
            gap <= _START_FLOOR * energy
            or np.count_nonzero(lam > s) <= qp._SEED_READ * problem.d
        ):
            break
        k = _gram(np.divide(lam, s, out=dl), tables)
        k[np.diag_indices_from(k)] += q2
        # numpy has no triangular solve, and at L = 64 one LU solve per
        # right-hand side is four times faster than inverting the factor.
        # Predictor: dl = -lam - lam * ds / s.
        try:
            dx = np.linalg.solve(k, -q2 * x)
        except np.linalg.LinAlgError:
            break  # k is singular; the corrector solves with the same k
        ds = problem.matvec(dx)
        np.divide(ds, s, out=dl)
        alpha = 1.0 / max(1.0, -float(np.min(dl)), 1.0 + float(np.max(dl)))
        dl += 1.0
        dl *= -lam
        gap_aff = max(0.0, (1.0 - alpha) * gap + alpha * alpha * float(ds @ dl))
        sigma_mu = (gap_aff / gap) ** 3 * gap / n
        # Corrector: w = (ds * dl - sigma mu) / s, dl = -lam - w - lam * ds / s.
        w = ds
        w *= dl
        w -= sigma_mu
        w /= s
        dx = np.linalg.solve(k, -q2 * x - _rmatvec(problem.L, w))
        ds = problem.matvec(dx)
        np.divide(ds, s, out=dl)
        shrink = -float(np.min(dl))
        dl += 1.0
        dl *= lam
        dl += w
        np.negative(dl, out=dl)
        np.divide(dl, lam, out=w)
        shrink = max(shrink, -float(np.min(w)))
        alpha = 1.0 / max(1.0, shrink / _START_BACKOFF)
        x += alpha * dx
        ds *= alpha
        s += ds
        dl *= alpha
        lam += dl
        del k, w, ds  # freed before the next step allocates its own
    np.divide(lam, s, out=lam)
    lam[lam <= 1.0] = 0.0
    return lam


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
    signal on any grid ``i/m``, ``m = len(initial_lam)``: their active
    phases, rounded onto the grid ``i/n``, are the candidate start rows,
    ranked by their values; a row that two phases round to takes the
    larger.  ``None``, an empty array, or one with no positive
    entry (all zero, negative or NaN) gives none; then a run with
    ``L >= 24`` takes those :func:`_interior_start` ranks, and a smaller
    run starts from ``x = 0``.  :func:`qp.solve` picks the start from
    either, and the pass alone forms and verifies the result.
    """
    problem = _GridProblem(sig, L, n)
    seed = _seed_on_grid(initial_lam, problem.n)
    if problem.L >= _INTERIOR_START_MIN_L and not seed.any():
        seed = _interior_start(problem)
    solution = qp.solve(problem, initial_lam=seed)
    return FourierEnvelope.from_params(problem.L, solution.x), solution


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
    between them only the lift guarantees the envelope.  The envelope on
    the grid is one inverse real FFT, exact for every grid size.
    """
    grid_m = _check_count(grid_m, MIN_CERTIFY_GRID, "certification grid")
    envelope = _grid_values(subopt.params(), grid_m)
    min_margin = float(np.min(envelope - sig.value_at(np.arange(grid_m) / grid_m)))
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
    is the warm start of :func:`solve_appopt`, whose values rank the
    candidate rows from which, or else from an interior point or zero,
    :func:`qp.solve` picks the start rows.
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
