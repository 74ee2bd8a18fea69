"""Dual active-set solver for diagonal quadratic programs.

Solves ``min x^T Q x  subject to  A x >= g`` with ``Q`` diagonal and positive
definite by one dual active-set pass in the style of Goldfarb and Idnani
(Math. Programming 27, 1983): starting from the unconstrained minimum
``x = 0``, or from warm rows, it repeatedly adds the worst violated row,
with a full step that makes the row tight or a partial step (ratio test on
the working-set multipliers) that drops a blocking row first.  With
``G = (2Q)^-1`` diagonal, each direction needs the inverse of the small
working-set matrix ``N G N^T``; it is kept and updated in place on every
add and drop (Gill, Golub, Murray and Saunders, Math. Comp. 28, 1974)
instead of being re-solved.

One rule, :func:`_seed`, picks the warm rows from the candidates a caller
ranks, as :func:`solve` states; its pruning is a crossover from an
interior point to a basis (Megiddo, ORSA J. Computing 3(1), 1991).

The problem is homogeneous in ``g``: ``(x, lam)`` solves it exactly when
``(x / s, lam / s)`` solves it with ``g / s``.  The pass therefore runs on
``g / max|g|``, so all tolerances are relative to ``max|g|`` and scaled
inputs give scaled results.  Each result is certified by a fresh
recomputation of all KKT residuals against the caller's problem.

The pass reads the constraints through two calls only, so a problem whose
rows have structure need not store them: ``problem.rows(idx)`` returns the
rows ``idx`` (an index gives one 1-D row, an index array a 2-D stack, as
``a_rows[idx]`` would) and ``problem.matvec(x)`` returns ``A x`` for all
``n`` rows.  Besides these a problem has ``q_diag``, ``g``, ``n`` and ``d``.
:class:`QpProblem` implements both calls on dense rows; the envelope solver
implements them on its uniform phase grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged

# Contract tolerances for feasibility and stationarity, relative to ``max|g|``.
TOL_FEAS = 1e-9
TOL_STAT = 1e-8

# Convergence targets a fraction of the contract tolerances so downstream
# checks (certification at -1e-9 relative, nested-cost comparisons at 1e-8)
# keep slack.
_SAFETY = 0.1

_RANK_CUT = 1e-12

# When the whole support is refused, :func:`_seed` reads at most this many
# times ``d`` ranked candidates: twice ``d`` leaves Gram-Schmidt room for
# ``d`` independent rows among near-ties.
_SEED_READ = 2


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Problem data: diagonal ``q_diag`` of Q, constraint rows, right-hand sides.

    Each is stored as a read-only copy, so the caller's arrays are never
    frozen or aliased.  ``q_diag`` needs at least one entry; ``a_rows`` may
    have none."""

    q_diag: np.ndarray
    a_rows: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        q = np.array(self.q_diag, dtype=float).reshape(-1)
        a = np.array(self.a_rows, dtype=float)
        if a.ndim != 2 and a.size == 0:
            a = a.reshape(0, q.shape[0])
        g = np.array(self.g, dtype=float).reshape(-1)
        if q.size == 0:
            raise ValueError("q_diag has no entries")
        if np.any(q <= 0):
            raise ValueError("all q_diag entries must be positive")
        if a.ndim != 2 or a.shape[1] != q.shape[0]:
            raise ValueError(
                f"a_rows has shape {a.shape} but q_diag has length {q.shape[0]}"
            )
        if g.shape[0] != a.shape[0]:
            raise ValueError(f"{a.shape[0]} rows but {g.shape[0]} right-hand sides")
        for name, arr in (("q_diag", q), ("a_rows", a), ("g", g)):
            # min and max propagate NaN and see +-inf with no n-by-d temporary.
            ends = [np.min(arr, initial=0.0), np.max(arr, initial=0.0)]
            if not np.all(np.isfinite(ends)):
                raise ValueError(f"{name} has a non-finite entry")
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

    def rows(self, idx) -> np.ndarray:
        """Constraint rows ``idx``: ``a_rows[idx]``."""
        return self.a_rows[idx]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A x`` over all rows."""
        return self.a_rows @ x


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Primal/dual iterate with its KKT residuals.

    ``converged`` is True only when feasibility, complementarity and
    stationarity were all verified below tolerance on a fresh recomputation.
    ``adds`` and ``drops`` count the active-set pass's working-set steps,
    ``warm_rows`` the rows it took from the warm start, and ``iterations``
    is 1 when the pass made any step, 0 when its start was already optimal.
    """

    x: np.ndarray
    lam: np.ndarray
    iterations: int
    converged: bool
    primal_violation: float
    dual_violation: float
    complementarity: float
    stationarity: float
    adds: int = 0
    drops: int = 0
    warm_rows: int = 0


def _residuals(problem, x: np.ndarray, lam: np.ndarray):
    """The four KKT residuals, then the summed complementarity and
    ``max(|A|^T |lam|)``, the size of the terms summed into ``A^T lam``.
    ``A^T lam`` is formed from the rows with a nonzero multiplier only."""
    slack = problem.matvec(x) - problem.g
    # 0.0 - min gives +0.0 when nothing is violated and keeps NaN (max drops it).
    primal = float(0.0 - np.min(slack, initial=0.0))
    dual = float(0.0 - np.min(lam, initial=0.0))
    comp_terms = np.abs(lam * slack)
    comp = float(np.max(comp_terms, initial=0.0))
    active = np.flatnonzero(lam)
    rows = problem.rows(active)
    grad = 2.0 * problem.q_diag * x
    grad -= lam[active] @ rows
    stat = float(np.max(np.abs(grad), initial=0.0))
    terms = float(np.max(np.abs(lam[active]) @ np.abs(rows), initial=0.0))
    return primal, dual, comp, stat, float(np.sum(comp_terms)), terms


def kkt_residuals(problem, solution: QpSolution):
    """Recompute all four KKT residuals from scratch.

    Returns ``(primal_violation, dual_violation, complementarity,
    stationarity)``; independent of any solver-internal state so it can audit
    a solve after the fact.
    """
    x = np.asarray(solution.x, dtype=float).reshape(-1)
    lam = np.asarray(solution.lam, dtype=float).reshape(-1)
    if x.shape[0] != problem.d:
        raise ValueError(f"x has length {x.shape[0]}, expected {problem.d}")
    if lam.shape[0] != problem.n:
        raise ValueError(f"lambda has length {lam.shape[0]}, expected {problem.n}")
    return _residuals(problem, x, lam)[:4]


def _factor(problem, g, ginv, support):
    """``(N, H, mu)`` on the rows ``support``, or None.

    ``H`` inverts ``N G N^T`` and ``mu = H g_W``, so ``x = G N^T mu`` makes
    every row of ``support`` tight.  None unless there are 1 to ``d`` rows,
    each passes the add step's independence test, and ``mu >= 0``.
    """
    if not 0 < support.size <= ginv.shape[0]:
        return None
    rows = problem.rows(support)
    m = (rows * ginv) @ rows.T
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.diag(chol) ** 2 <= _RANK_CUT * np.diag(m)):
        return None
    cinv = np.linalg.inv(chol)
    h = cinv.T @ cinv
    mu = h @ g[support]
    mu += h @ (g[support] - m @ mu)
    return (rows, h, mu) if np.all(mu >= 0.0) else None


def _seed(problem, g, ginv, warm):
    """The warm start of a pass, ``(support, N, H, mu)``, or None for ``x = 0``,
    picked from ``warm`` by the rule :func:`solve` states.

    The whole support goes to :func:`_factor` unsorted.  If it is refused,
    a ranked row counts as independent when its Gram-Schmidt pivot in the
    metric ``G`` passes ``_RANK_CUT``, and :func:`_factor` takes the rows
    left after the pruning.
    """
    support = np.flatnonzero(warm > 0.0)
    seed = _factor(problem, g, ginv, support)
    if seed is None and support.size:
        read = _SEED_READ * ginv.shape[0]
        ranked = support[np.argsort(-warm[support], kind="stable")[:read]]
        # Orthogonalized twice, ``r @ r`` is the squared pivot _factor tests.
        basis = problem.rows(ranked)
        basis *= np.sqrt(ginv)
        k = 0
        for j, v in enumerate(basis):
            if k == ginv.shape[0]:
                break
            r = v - basis[:k].T @ (basis[:k] @ v)
            r -= basis[:k].T @ (basis[:k] @ r)
            if r @ r > _RANK_CUT * (v @ v):
                basis[k] = r / np.sqrt(r @ r)
                ranked[k] = ranked[j]
                k += 1
        support = ranked[:k]
        while support.size:
            rows = problem.rows(support)
            mu = np.linalg.solve((rows * ginv) @ rows.T, g[support])
            if np.min(mu) >= 0.0:
                break
            support = np.delete(support, np.argmin(mu))
        support = np.sort(support)
        seed = _factor(problem, g, ginv, support)
    return None if seed is None else (support, *seed)


def _active_set(problem, g, feas_target, warm):
    """One dual active-set pass on ``A x >= g``, with ``A`` and ``Q`` those of
    ``problem`` and ``g`` given apart, so the pass can run on scaled data.

    Returns ``(x, lam, failure, adds, drops, warm_rows)``.  ``failure`` is
    None once every row holds to ``feas_target``; otherwise it says why the
    pass stopped, and ``(x, lam)`` is its last iterate.  The pass starts from
    the ``warm_rows`` rows that :func:`_seed` takes from ``warm``, else from
    ``x = 0``, and returns at once, with no step, if no row is violated.

    The working set stays linearly independent, so it has at most ``d`` rows.
    Only its rows ``N`` and the inverse ``H`` of ``N G N^T`` are stored, in
    the first ``k`` slots of zero-padded buffers.  An add borders ``H`` with
    the new row's Schur complement; a drop downdates it and moves the last
    slot into the freed one.  Each direction takes one refinement step
    ``r += H (N z)``.  Both loops are capped; an inner pass takes at most
    ``k + 1`` steps, as each drops a row, adds row ``p`` or returns.
    """
    n, d = problem.n, problem.d
    ginv = 0.5 / problem.q_diag
    seed = _seed(problem, g, ginv, warm)  # first: its temporaries die before the buffers
    rows, h, rank1 = np.zeros((d, d)), np.zeros((d, d)), np.empty((d, d))
    lam_w, idx = np.zeros(d), np.zeros(d, dtype=np.intp)
    k = warm_rows = 0 if seed is None else seed[0].size
    if seed is not None:
        idx[:k], rows[:k], h[:k, :k], lam_w[:k] = seed
    x = ginv * (rows.T @ lam_w)  # 0 with no warm rows
    adds = drops = 0

    def result(failure):
        lam = np.zeros(n)
        lam[idx[:k]] = np.maximum(lam_w[:k], 0.0)
        return x, lam, failure, adds, drops, warm_rows

    if n == 0:
        return result(None)  # no row, so none is violated
    for _outer in range(30 * (d + 1) + 100):
        slack = problem.matvec(x) - g
        p = int(np.argmin(slack))
        if slack[p] >= -0.5 * feas_target:
            return result(None)
        row_p = problem.rows(p)
        v = ginv * row_p
        cut = _RANK_CUT * float(row_p @ v)
        lam_p = 0.0
        for _inner in range(k + 1):
            r = h @ (rows @ v)
            z = v - ginv * (rows.T @ r)
            r += h @ (rows @ z)
            z = v - ginv * (rows.T @ r)
            denom = float(row_p @ z)
            viol = float(g[p] - row_p @ x)
            # Satisfied by the drop steps alone, row p joins with no step.
            if viol > 0.25 * feas_target:
                t_full = viol / denom if denom > cut and k < d else np.inf
                ratios = np.full(d, np.inf)
                np.divide(lam_w, r, out=ratios, where=r > _RANK_CUT)
                j = int(np.argmin(ratios))
                step = min(t_full, float(ratios[j]))
                if step == np.inf:
                    failure = f"constraints are infeasible: row {p} cannot be satisfied"
                    return result(failure)
                x += step * z
                lam_p += step
                lam_w -= step * r
                if step < t_full:
                    # Drop slot j: downdate H, then move the last slot into j.
                    col = h[:, j].copy()
                    h -= np.multiply.outer(col, col / col[j], out=rank1)
                    k -= 1
                    h[j], rows[j] = h[k], rows[k]
                    h[:, j] = h[:, k]
                    lam_w[j], idx[j] = lam_w[k], idx[k]
                    h[k] = h[:, k] = rows[k] = lam_w[k] = 0.0
                    drops += 1
                    continue
            if denom <= cut:
                return result(f"row {p} is dependent on the working set")
            # Add row p: border H with its Schur complement ``denom``.
            u = r / denom
            h += np.multiply.outer(u, r, out=rank1)
            h[k] = h[:, k] = -u
            h[k, k] = 1.0 / denom
            rows[k], lam_w[k], idx[k] = row_p, lam_p, p
            k += 1
            adds += 1
            break
    return result(f"no feasible point after {30 * (d + 1) + 100} rows added")


def solve(problem, initial_lam: np.ndarray | None = None) -> QpSolution:
    """Minimize ``x^T Q x`` over ``A x >= g`` by one dual active-set pass.

    ``problem`` is a :class:`QpProblem` or any object with ``q_diag``,
    ``g``, ``n``, ``d``, ``rows`` and ``matvec`` (module docstring).

    The tolerances are fixed at ``TOL_FEAS`` and ``TOL_STAT``, relative to
    ``s = max|g|`` (``s = 1`` when ``g`` is zero): the returned solution has
    primal violation at most ``0.1 * TOL_FEAS * s``, stationarity at most
    ``0.5 * TOL_STAT * s`` or, if larger, ``d * eps * max(|A|^T |lam|)``,
    the rounding in forming ``A^T lam`` (rows scaled by ``r`` scale ``x``
    by ``1/r`` and that rounding with it), and summed complementarity at
    most ``0.1 * TOL_STAT * (s**2 + x^T Q x)``.

    Every solve runs the pass once and verifies its result once.  The rows
    where ``initial_lam`` is positive are the candidates for its start,
    ranked by value (ties by index), so only the order and sign of
    ``initial_lam`` are read.  :func:`_seed` keeps all of them if at most
    ``d``, independent and with nonnegative re-solved multipliers.  Else
    it reads at most the first ``2d`` ranked candidates (``2(2L+1)`` on
    the envelope grid), keeps each independent of those already kept, up
    to ``d``, and drops the most negative re-solved multiplier until none
    is.  With none kept the pass starts from ``x = 0``.
    ``iterations`` is 0 when that start was already optimal, so the pass
    made no add or drop step, and 1 otherwise.

    Raises :class:`NotConverged` with the pass's last iterate attached when
    the constraints are infeasible or the result fails KKT verification.
    """
    warm = np.asarray([] if initial_lam is None else initial_lam, dtype=float).reshape(-1)
    if initial_lam is not None and warm.shape[0] != problem.n:
        raise ValueError(f"initial_lam has length {warm.shape[0]}, expected {problem.n}")

    s = float(np.max(np.abs(problem.g), initial=0.0)) or 1.0
    feas_target = _SAFETY * TOL_FEAS
    x, lam, failure, adds, drops, warm_rows = _active_set(
        problem, problem.g / s, feas_target, warm
    )
    x, lam = s * x, s * lam
    primal, dual, comp, stat, comp_sum, terms = _residuals(problem, x, lam)
    energy = float(x @ (problem.q_diag * x))
    converged = (
        primal <= feas_target * s
        and comp_sum <= _SAFETY * TOL_STAT * (s * s + energy)
        and stat <= max(0.5 * TOL_STAT * s, problem.d * np.finfo(float).eps * terms)
    )
    solution = QpSolution(
        x, lam, int(adds + drops > 0), converged, primal, dual, comp, stat,
        adds, drops, warm_rows,
    )
    if converged:
        return solution
    raise NotConverged(
        f"qp: {failure or 'KKT verification failed'} "
        f"(primal_violation={primal:.3e}, stationarity={stat:.3e})",
        solution=solution,
    )
