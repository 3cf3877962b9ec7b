"""Dense two-phase simplex for small feasibility and minimization problems.

Solves  min c.x  subject to  A x = b,  x >= 0,  in float64: Bland's
anti-cycling rule, two phases, artificial variables driven out of the basis.

Its one library caller is the support function of an h-polytope
(:func:`lce.geometry._hpoly_support`): a handful of equality rows against a
few dozen columns, so a dense tableau is the right tool and no external
solver is involved.  Convexity and extensibility are decided by
:mod:`lce.hull`; the tests keep a rational twin of this solver as their
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LceError, NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX_COLUMNS = 20000
FLOAT_TOL = 1e-9  # pivot, reduced-cost and phase-1 feasibility tolerance of the float backend


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: float | None
    x: np.ndarray | None


def solve_lp(c, A, b, *, max_iter: int | None = None) -> LPResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0``."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP shapes")
    if c.size > MAX_COLUMNS:
        raise LceError(f"LP has {c.size} columns, cap is {MAX_COLUMNS}")
    return _solve_float(c, A, b, max_iter)


# ---------------------------------------------------------------------------
# float64 backend


def _solve_float(c, A, b, max_iter):
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    if max_iter is None:
        max_iter = 200 + 20 * (m + n)

    # Phase 1 tableau: [A | I | b], artificial basis.
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = b
    basis = list(range(n, n + m))
    cost1 = np.zeros(n + m)
    cost1[n:] = 1.0
    obj1 = _run(T, basis, cost1, max_iter)
    if obj1 is None:
        raise NumericalError("phase-1 simplex did not terminate")
    if obj1 > FLOAT_TOL * (1.0 + float(np.abs(b).sum())):
        return LPResult(INFEASIBLE, None, None)

    # Drive any leftover artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(len(basis)):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        row = T[i, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > FLOAT_TOL:
            _pivot(T, i, j)
            basis[i] = j
            keep_rows.append(i)
        # else: redundant row, dropped below
    T = T[keep_rows]
    basis = [basis[i] for i in keep_rows]

    # Phase 2 on original columns only.
    T2 = np.concatenate([T[:, :n], T[:, -1:]], axis=1)
    obj2 = _run(T2, basis, c, max_iter)
    if obj2 is None:
        raise NumericalError("phase-2 simplex did not terminate")
    if obj2 == -np.inf:
        return LPResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    x[basis] = T2[:, -1]
    return LPResult(OPTIMAL, float(obj2), x)


def _run(T, basis, cost, max_iter):
    """Bland-rule simplex loop on tableau T; returns objective or -inf/None."""
    m = T.shape[0]
    ncols = T.shape[1] - 1
    if m == 0:
        # no constraints left: any negative cost direction is unbounded
        return -np.inf if np.any(cost[:ncols] < -FLOAT_TOL) else 0.0
    for _ in range(max_iter):
        cb = cost[basis]
        reduced = cost[:ncols] - cb @ T[:, :ncols]
        entering = np.nonzero(reduced < -FLOAT_TOL)[0]
        if entering.size == 0:
            return float(cb @ T[:, -1])
        j = int(entering[0])
        col = T[:, j]
        pos = col > FLOAT_TOL
        if not pos.any():
            return -np.inf
        ratios = np.full(m, np.inf)
        ratios[pos] = T[pos, -1] / col[pos]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        i = int(min(ties, key=lambda r: basis[r]))
        _pivot(T, i, j)
        basis[i] = j
    return None


def _pivot(T, row, col):
    piv = T[row] / T[row, col]
    factors = T[:, col].copy()
    T -= np.outer(factors, piv)
    T[row] = piv
