"""Dense two-phase simplex for small feasibility and minimization problems.

Solves  min c.x  subject to  A x = b,  x >= 0.

Two arithmetic backends share the same algorithm (Bland's anti-cycling rule,
two phases, artificial variables driven out of the basis):

* a vectorized float64 backend, fast enough for thousands of small LPs, and
* an exact ``fractions.Fraction`` backend for degenerate geometry, where every
  float input is converted to the rational it represents exactly.

Problem sizes here are a handful of equality rows against at most a few
hundred columns (convex-combination and lower-envelope programs), so a dense
tableau is the right tool; no external solver is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def solve_lp(c, A, b, *, exact: bool = False, max_iter: int | None = None) -> LPResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0``."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP shapes")
    if c.size > MAX_COLUMNS:
        raise LceError(f"LP has {c.size} columns, cap is {MAX_COLUMNS}")
    if exact:
        return _solve_exact(c, A, b)
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


# ---------------------------------------------------------------------------
# exact Fraction backend


def _solve_exact(c, A, b):
    m, n = A.shape
    Af = [[Fraction(x) for x in row] for row in A.tolist()]
    bf = [Fraction(x) for x in b.tolist()]
    cf = [Fraction(x) for x in c.tolist()]
    for i in range(m):
        if bf[i] < 0:
            Af[i] = [-x for x in Af[i]]
            bf[i] = -bf[i]

    rows = [Af[i] + [Fraction(int(i == k)) for k in range(m)] + [bf[i]] for i in range(m)]
    basis = list(range(n, n + m))
    cost1 = [Fraction(0)] * n + [Fraction(1)] * m
    obj1 = _run_exact(rows, basis, cost1)
    if obj1 is None or obj1 > 0:
        return LPResult(INFEASIBLE, None, None)

    keep = []
    for i in range(len(basis)):
        if basis[i] < n:
            keep.append(i)
            continue
        j = next((k for k in range(n) if rows[i][k] != 0), None)
        if j is not None:
            _pivot_exact(rows, i, j)
            basis[i] = j
            keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    obj2 = _run_exact(rows, basis, cf)
    if obj2 is None:
        return LPResult(UNBOUNDED, None, None)
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = float(rows[i][-1])
    return LPResult(OPTIMAL, float(obj2), x)


def _run_exact(rows, basis, cost):
    m = len(rows)
    if m == 0:
        return None if any(c < 0 for c in cost) else Fraction(0)
    ncols = len(rows[0]) - 1
    # Bland's rule in exact arithmetic terminates; cap is a safety net only.
    for _ in range(100000):
        reduced = list(cost[:ncols])
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                ri = rows[i]
                for j in range(ncols):
                    if ri[j] != 0:
                        reduced[j] -= cb * ri[j]
        j = next((k for k in range(ncols) if reduced[k] < 0), None)
        if j is None:
            return sum(cost[basis[i]] * rows[i][-1] for i in range(m))
        candidates = [(rows[i][-1] / rows[i][j], basis[i], i) for i in range(m) if rows[i][j] > 0]
        if not candidates:
            return None
        _, _, i = min(candidates)
        _pivot_exact(rows, i, j)
        basis[i] = j
    raise NumericalError("exact simplex iteration cap")


def _pivot_exact(rows, row, col):
    piv = rows[row][col]
    rows[row] = [x / piv for x in rows[row]]
    for i in range(len(rows)):
        if i == row:
            continue
        f = rows[i][col]
        if f != 0:
            rows[i] = [a - f * p for a, p in zip(rows[i], rows[row])]


# ---------------------------------------------------------------------------
# geometry-flavoured wrappers


def hull_membership(points, z, *, exact: bool = False) -> bool:
    """Is ``z`` a convex combination of the rows of ``points``?"""
    pts = np.asarray(points, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).ravel()
    if pts.ndim != 2 or pts.shape[1] != z.size:
        raise ValueError("points and target have mismatched dimension")
    mpts = pts.shape[0]
    A = np.vstack([pts.T, np.ones((1, mpts))])
    b = np.concatenate([z, [1.0]])
    res = solve_lp(np.zeros(mpts), A, b, exact=exact)
    return res.status == OPTIMAL


def envelope_minimum(points, values, z, *, exact: bool = False):
    """Minimize ``sum(lam * values)`` over convex combinations of ``points`` hitting ``z``.

    Returns ``(feasible, minimum)``; ``minimum`` is None when infeasible.
    """
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if pts.shape[0] != vals.size or pts.shape[1] != z.size:
        raise ValueError("inconsistent envelope LP inputs")
    mpts = pts.shape[0]
    if mpts == 0:
        return False, None
    A = np.vstack([pts.T, np.ones((1, mpts))])
    b = np.concatenate([z, [1.0]])
    res = solve_lp(vals, A, b, exact=exact)
    if res.status != OPTIMAL:
        return False, None
    return True, res.objective
