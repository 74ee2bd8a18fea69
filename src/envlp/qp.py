"""Dual active-set solver for diagonal quadratic programs.

Solves ``min x^T Q x  subject to  A x >= g`` with ``Q`` diagonal and positive
definite by one dual active-set pass in the style of Goldfarb and Idnani
(Math. Programming 27, 1983): starting from the unconstrained minimum
``x = 0`` it repeatedly adds the worst violated row, with a full step that
makes the row tight or a partial step (ratio test on the working-set
multipliers) that drops a blocking row first.  Because Q is diagonal, every
direction comes from a small dense solve on the working set.

The problem is homogeneous in ``g``: ``(x, lam)`` solves it exactly when
``(x / s, lam / s)`` solves it with ``g / s``.  The pass therefore runs on
``g / max|g|``, so all tolerances are relative to ``max|g|`` and scaled
inputs give scaled results.  Each result is certified by a fresh
recomputation of all KKT residuals against the caller's problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotConverged

# Contract tolerances for feasibility and stationarity, relative to ``max|g|``.
TOL_FEAS = 1e-9
TOL_STAT = 1e-8

# Convergence targets a fraction of the contract tolerances so downstream
# checks (certification at -1e-9 relative, nested-cost comparisons at 1e-8)
# keep slack.
_SAFETY = 0.1

_RANK_CUT = 1e-12


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Problem data: diagonal ``q_diag`` of Q, constraint rows, right-hand sides.

    Stored read-only; a read-only float ``a_rows`` is kept without a copy, and
    a writeable one is copied, never frozen or aliased."""

    q_diag: np.ndarray
    a_rows: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        q = np.array(self.q_diag, dtype=float).reshape(-1)
        a = np.asarray(self.a_rows, dtype=float)
        if a.ndim != 2:
            a = a.reshape(-1, q.shape[0]) if a.size else a.reshape(0, q.shape[0])
        if a.flags.writeable:
            a = a.copy()
        g = np.array(self.g, dtype=float).reshape(-1)
        if np.any(q <= 0):
            raise ValueError("all q_diag entries must be positive")
        if a.shape[1] != q.shape[0]:
            raise DimensionMismatch(
                f"rows have length {a.shape[1]} but q_diag has length {q.shape[0]}"
            )
        if g.shape[0] != a.shape[0]:
            raise DimensionMismatch(
                f"{a.shape[0]} rows but {g.shape[0]} right-hand sides"
            )
        for arr in (q, a, g):
            arr.setflags(write=False)
        object.__setattr__(self, "q_diag", q)
        object.__setattr__(self, "a_rows", a)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.a_rows.shape[0]

    @property
    def d(self) -> int:
        return self.q_diag.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ (self.q_diag * x))


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Primal/dual iterate with its KKT residuals.

    ``converged`` is True only when feasibility, complementarity and
    stationarity were all verified below tolerance on a fresh recomputation.
    """

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool
    primal_violation: float
    dual_violation: float
    complementarity: float
    stationarity: float


def _residuals(problem: QpProblem, x: np.ndarray, lam: np.ndarray):
    slack = problem.a_rows @ x - problem.g
    primal = float(max(0.0, -np.min(slack, initial=0.0)))
    dual = float(max(0.0, -np.min(lam, initial=0.0)))
    comp = float(np.max(np.abs(lam * slack), initial=0.0))
    stat = float(
        np.max(
            np.abs(2.0 * problem.q_diag * x - problem.a_rows.T @ lam), initial=0.0
        )
    )
    return primal, dual, comp, stat


def kkt_residuals(problem: QpProblem, solution: QpSolution):
    """Recompute all four KKT residuals from scratch.

    Returns ``(primal_violation, dual_violation, complementarity,
    stationarity)``; independent of any solver-internal state so it can audit
    a solve after the fact.
    """
    x = np.asarray(solution.x, dtype=float).reshape(-1)
    lam = np.asarray(solution.lam, dtype=float).reshape(-1)
    if x.shape[0] != problem.d:
        raise DimensionMismatch(f"x has length {x.shape[0]}, expected {problem.d}")
    if lam.shape[0] != problem.n:
        raise DimensionMismatch(
            f"lambda has length {lam.shape[0]}, expected {problem.n}"
        )
    return _residuals(problem, x, lam)


def _active_set(a, g, q, feas_target):
    """One dual active-set pass on ``A x >= g``; returns ``(x, lam, failure)``.

    ``failure`` is None once every row holds to ``feas_target``; otherwise it
    says why the pass stopped, and ``(x, lam)`` is its last iterate.  The
    working set stays linearly independent, so every direction comes from a
    small positive-definite solve, and both loops are capped.
    """
    n, d = a.shape
    ginv = 0.5 / q
    x = np.zeros(d)
    active: list[int] = []
    lam_active: list[float] = []

    def multipliers():
        lam = np.zeros(n)
        for idx, value in zip(active, lam_active):
            lam[idx] += max(value, 0.0)
        return lam

    for _outer in range(30 * (d + 1) + 100):
        slack = a @ x - g
        p = int(np.argmin(slack))
        if slack[p] >= -0.5 * feas_target:
            return x, multipliers(), None
        row_p = a[p]
        scale_p = float(row_p @ (ginv * row_p))
        lam_p = 0.0
        for _inner in range(3 * d + 20):
            if active:
                nw = a[active]
                k_mat = (nw * ginv) @ nw.T
                rhs = nw @ (ginv * row_p)
                try:
                    r = np.linalg.solve(k_mat, rhs)
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(k_mat, rhs, rcond=None)[0]
                z = ginv * (row_p - nw.T @ r)
            else:
                r = np.zeros(0)
                z = ginv * row_p
            viol = float(g[p] - row_p @ x)
            if viol <= 0.25 * feas_target:
                # The drop steps alone satisfied row p; its multiplier stays.
                if lam_p > 0.0:
                    active.append(p)
                    lam_active.append(lam_p)
                break
            denom = float(row_p @ z)
            t_full = viol / denom if denom > _RANK_CUT * max(scale_p, 1.0) else np.inf
            t_drop = np.inf
            blocker = -1
            for k in range(len(active)):
                if r[k] > _RANK_CUT:
                    bound = lam_active[k] / r[k]
                    if bound < t_drop:
                        t_drop, blocker = bound, k
            step = min(t_full, t_drop)
            if not np.isfinite(step):
                failure = f"constraints are infeasible: row {p} cannot be satisfied"
                return x, multipliers(), failure
            x = x + step * z
            lam_p += step
            for k in range(len(active)):
                lam_active[k] -= step * r[k]
            if t_drop < t_full:
                active.pop(blocker)
                lam_active.pop(blocker)
                continue
            active.append(p)
            lam_active.append(lam_p)
            break
        else:
            return x, multipliers(), f"row {p} still violated after {3 * d + 20} drops"
    return x, multipliers(), f"no feasible point after {30 * (d + 1) + 100} rows added"


def solve(problem: QpProblem, initial_lam: np.ndarray | None = None) -> QpSolution:
    """Minimize ``x^T Q x`` over ``A x >= g`` by one dual active-set pass.

    The tolerances are fixed at ``TOL_FEAS`` and ``TOL_STAT``, relative to
    ``s = max|g|`` (``s = 1`` when ``g`` is zero): the returned solution has
    primal violation at most ``0.1 * TOL_FEAS * s``, stationarity at most
    ``0.5 * TOL_STAT * s`` and summed complementarity at most
    ``0.1 * TOL_STAT * (s**2 + x^T Q x)``.

    A warm start ``initial_lam`` (clipped to be nonnegative; zero when
    omitted) is checked first through ``x = A^T lam / (2Q)``.  If it already
    meets the tolerances it is returned with ``iterations == 0``; otherwise
    the active-set pass runs and ``iterations == 1``.

    Raises :class:`NotConverged` with the pass's last iterate attached when
    the constraints are infeasible or the result fails KKT verification.
    """
    a = problem.a_rows
    g = problem.g
    q = problem.q_diag
    n = problem.n

    if initial_lam is None:
        lam = np.zeros(n)
    else:
        lam = np.asarray(initial_lam, dtype=float).reshape(-1)
        if lam.shape[0] != n:
            raise DimensionMismatch(
                f"initial_lam has length {lam.shape[0]}, expected {n}"
            )
        lam = np.maximum(lam, 0.0)

    s = float(np.max(np.abs(g), initial=0.0)) or 1.0
    feas_target = _SAFETY * TOL_FEAS
    comp_factor = _SAFETY * TOL_STAT
    stat_target = 0.5 * TOL_STAT

    def _pack(x, lam_out, iterations):
        primal, dual, comp, stat = _residuals(problem, x, lam_out)
        comp_sum = float(np.sum(np.abs(lam_out * (a @ x - g))))
        converged = (
            primal <= feas_target * s
            and comp_sum <= comp_factor * (s * s + problem.objective(x))
            and stat <= stat_target * s
        )
        return QpSolution(
            x=x,
            lam=lam_out,
            iterations=iterations,
            converged=converged,
            primal_violation=primal,
            dual_violation=dual,
            complementarity=comp,
            stationarity=stat,
        )

    warm = _pack((a.T @ lam) / (2.0 * q), lam, 0)
    if warm.converged:
        return warm
    x, lam, failure = _active_set(a, g / s, q, feas_target)
    solution = _pack(s * x, s * lam, 1)
    if solution.converged:
        return solution
    raise NotConverged(
        f"qp: {failure or 'KKT verification failed'} "
        f"(primal_violation={solution.primal_violation:.3e}, "
        f"stationarity={solution.stationarity:.3e})",
        solution=solution,
    )
