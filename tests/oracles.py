"""Test oracles and fixtures: definitional references for the fast routes of
:mod:`lce`, and the helpers that only the tests use.

- Caratheodory oracles for Z^d-convexity and log-concave extensibility: exact
  convex combinations of at most d + 1 points, in rational arithmetic.  They
  check the integer hulls of :mod:`lce.hull` and so never import that module
  (``test_harness_cli`` enforces it).
- LP references: a rational twin of :func:`lce.simplex.solve_lp` (its
  ``Fraction`` tableau), hull-membership and envelope LPs over either, and
  the per-point LP decisions of convexity and extensibility built on them,
  which check the exact mode of :mod:`lce.convexity`.  And the d = 1
  local-concavity test p(k)^2 >= p(k-1) p(k+1).
- The whole-spectrum FFT convolution (rfftn product, then irfftn), whose
  bytes the column panels of :mod:`lce.lattice` must give, and the FFT
  sample check with an exact sum at every cell, whose verdicts and messages
  its float-filtered check must give.
- The pointwise smoothed density, which checks the blocked cell quadrature of
  :mod:`lce.smoothing`; quadrature moments of a continuous density, which
  check the closed forms each :mod:`lce.densities` family declares; and
  rejection-sampled moments of an h-polytope, read from its rows
  ``A x <= b`` alone, which check the polar-hull moments of
  :mod:`lce.geometry`.
- Fixtures: a zoo of 1-d log-concave p.m.f.s, uniform p.m.f.s on sets,
  convolution powers, translates, a tail-bound spot check, a sweep-envelope
  test and a report loader.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from lce.convexity import DEFAULT_ENVELOPE_TOL, ConvexityReport, ExtensibilityReport
from lce.densities import ContinuousDensity, as_points
from lce.errors import LceError, NumericalError
from lce.families import (
    binomial_pmf,
    one_sided_geometric,
    quantized_gaussian,
    two_sided_geometric,
    uniform_interval,
)
from lce.harness import CheckResult, ReportDocument
from lce.lattice import (
    _FFT_CHECK_SAMPLES,
    _FFT_CHECK_TOL,
    Box,
    LatticePmf,
    LatticeSet,
    _check_cells,
    convolve,
    support_set,
)
from lce.numerics import adaptive_quad, next_pow2, stable_sum
from lce.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_lp
from lce.smoothing import bspline_eval

BRUTEFORCE_SUPPORT_CAP = 16


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the LP route)


def hull_membership_bruteforce(points: np.ndarray, z) -> bool:
    """Definitional hull membership: z is an exact convex combination of at
    most d+1 of the given integer points (Caratheodory), decided in rational
    arithmetic."""
    pts = np.asarray(points)
    z = tuple(int(x) for x in z)
    d = pts.shape[1]
    tuples = [tuple(int(x) for x in row) for row in pts]
    if z in tuples:
        return True
    if _exact_affine_combination(tuples, z) is None:
        return False  # z is off the affine hull of the points
    for size in range(2, d + 2):
        for subset in combinations(tuples, size):
            lam = _exact_affine_combination(subset, z)
            if lam is not None and all(l >= 0 for l in lam):
                return True
    return False


def _exact_affine_combination(points, z):
    """Solve sum lam_i p_i = z, sum lam_i = 1 exactly; None if inconsistent."""
    pts = list(points)
    m = len(pts)
    d = len(z)
    rows = [[Fraction(p[i]) for p in pts] + [Fraction(z[i])] for i in range(d)]
    rows.append([Fraction(1)] * m + [Fraction(1)])
    # Gaussian elimination with exact pivots.
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent
    if r < m:
        # Underdetermined: free variables set to zero.
        lam = [Fraction(0)] * m
        for i, c in enumerate(pivots):
            lam[c] = rows[i][-1]
        # Verify (free-variable choice may violate nothing: system was consistent).
        if any(sum(Fraction(p[k]) * lam[j] for j, p in enumerate(pts)) != z[k] for k in range(d)):
            return None
        if sum(lam) != 1:
            return None
        return lam
    return [rows[i][-1] for i in range(m)]


def _membership_2d_integer(points: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Exact hull membership for integer points in d=2, vectorized: z lies in
    conv(points) iff it coincides with a point, lies on a segment, or lies in a
    triangle (Caratheodory); orientation tests in integer arithmetic."""
    pts = points.astype(np.int64)
    zs = zs.astype(np.int64)
    inside = np.zeros(len(zs), dtype=bool)
    ptset = {tuple(p) for p in pts}
    for i, z in enumerate(zs):
        if tuple(z) in ptset:
            inside[i] = True
    m = len(pts)
    if m >= 2:
        ii, jj = np.triu_indices(m, k=1)
        a, b = pts[ii], pts[jj]
        ab = b - a
        for i, z in enumerate(zs):
            if inside[i]:
                continue
            az = z - a
            colinear = ab[:, 0] * az[:, 1] - ab[:, 1] * az[:, 0] == 0
            dot = np.sum(az * ab, axis=1)
            within = (dot >= 0) & (dot <= np.sum(ab * ab, axis=1))
            inside[i] = bool(np.any(colinear & within))
    if m >= 3:
        combo = np.array(list(combinations(range(m), 3)), dtype=np.int64)
        a, b, c = pts[combo[:, 0]], pts[combo[:, 1]], pts[combo[:, 2]]

        def cross(u, v):
            return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

        # Degenerate (collinear) triples hull to segments, handled above; the
        # all-signs test would wrongly accept any collinear query point.
        keep = cross(b - a, c - a) != 0
        a, b, c = a[keep], b[keep], c[keep]
        if len(a):
            for i, z in enumerate(zs):
                if inside[i]:
                    continue
                s1 = cross(b - a, z - a)
                s2 = cross(c - b, z - b)
                s3 = cross(a - c, z - c)
                inside[i] = bool(
                    np.any(((s1 >= 0) & (s2 >= 0) & (s3 >= 0)) | ((s1 <= 0) & (s2 <= 0) & (s3 <= 0)))
                )
    return inside


def zd_convex_bruteforce(A: LatticeSet) -> ConvexityReport:
    """Definitional convexity check: exact hull membership of every box point.

    d=2 runs vectorized integer orientation tests; other dimensions fall back
    to exact rational Caratheodory solves once integer support bounds and the
    affine hull of A (both exact) have not ruled the point out.
    """
    if len(A) == 0:
        raise LceError("convexity of the empty set is not defined here")
    box = A.bounding_box()
    if box.ncells > 100_000:
        raise LceError("bounding box too large for the brute-force oracle")
    pts = A.array() - box.lo
    candidates = [z for z in _box_points_lex(box) if z not in A]
    zs = np.array(candidates, dtype=np.int64).reshape(-1, A.dim) - box.lo
    if A.dim == 2:
        mask = _membership_2d_integer(pts, zs)
    else:
        # z is outside if u . z > max(u . A) for some u = +-e_i +- e_j (exact on box offsets).
        pairs = combinations(np.eye(A.dim, dtype=np.int64), 2)
        U = np.array([s * a + t * b for a, b in pairs for s in (1, -1) for t in (1, -1)]).reshape(-1, A.dim).T
        near = np.all(zs @ U <= (pts @ U).max(axis=0), axis=1)
        mask = [ok and hull_membership_bruteforce(pts, z) for z, ok in zip(zs, near)]
    witnesses = [z for z, inc in zip(candidates, mask) if inc]
    return ConvexityReport(is_convex=not witnesses, witnesses=witnesses)


def zd_convex_lp(A: LatticeSet, *, exact: bool = True) -> ConvexityReport:
    """Convexity by one hull-membership LP per bounding-box point outside A,
    rational unless ``exact`` is False; witnesses in lexicographic order."""
    if len(A) == 0:
        raise LceError("convexity of the empty set is not defined here")
    generators = A.array()
    witnesses = [z for z in _box_points_lex(A.bounding_box())
                 if z not in A and hull_membership(generators, np.array(z, dtype=np.float64), exact=exact)]
    return ConvexityReport(is_convex=not witnesses, witnesses=witnesses)


def _box_points_lex(box: Box):
    ranges = [range(l, h + 1) for l, h in zip(box.lo, box.hi)]
    return product(*ranges)


def is_log_concave_1d(p: LatticePmf) -> ExtensibilityReport:
    """Fast d=1 test: interval support plus p(k)^2 >= p(k-1) p(k+1).

    Equivalent to the envelope procedure on interval supports; the reported
    gaps are the local midpoint-convexity violations of V.
    """
    if p.dim != 1:
        raise LceError("fast path is for d = 1")
    support = support_set(p)
    if len(support) == 0:
        raise LceError("p.m.f. has empty support")
    pts = support.sorted_points()
    ks = [k[0] for k in pts]
    interval = ks == list(range(ks[0], ks[-1] + 1))
    witnesses = [] if interval else [(k,) for k in range(ks[0], ks[-1] + 1) if (k,) not in support]
    gaps = {}
    for k in pts:
        gaps[k] = 0.0
    if interval:
        logs = np.log([p.value_at((k,)) for k in ks])
        for j in range(1, len(ks) - 1):
            gap = -logs[j] - 0.5 * (-logs[j - 1] - logs[j + 1])
            gaps[(ks[j],)] = max(0.0, float(gap))
    ok = interval and max(gaps.values()) <= DEFAULT_ENVELOPE_TOL
    return ExtensibilityReport(
        is_extensible=ok,
        support_convex=interval,
        envelope_gaps=gaps,
        tolerance_used=DEFAULT_ENVELOPE_TOL,
        convexity_witnesses=witnesses,
    )


def envelope_minimum_bruteforce(points, values, z):
    """Caratheodory oracle: minimize the interpolated value over exact convex
    combinations drawn from every affine subset of at most d+1 points."""
    pts = np.asarray(points)
    if pts.shape[0] > BRUTEFORCE_SUPPORT_CAP:
        raise LceError("too many points for the brute-force envelope oracle")
    d = pts.shape[1]
    z = tuple(int(round(float(x))) for x in np.asarray(z).ravel())
    tuples = [tuple(int(x) for x in row) for row in pts]
    vals = [Fraction(float(v)) for v in np.asarray(values, dtype=np.float64)]
    best = None
    for size in range(1, d + 2):
        for subset_idx in combinations(range(len(tuples)), size):
            sub = [tuples[i] for i in subset_idx]
            lam = _exact_affine_combination(sub, z)
            if lam is None or any(l < 0 for l in lam):
                continue
            val = sum(l * vals[i] for l, i in zip(lam, subset_idx))
            if best is None or val < best:
                best = val
    if best is None:
        return False, None
    return True, float(best)


def is_log_concave_extensible_bruteforce(p: LatticePmf) -> ExtensibilityReport:
    """Envelope decision via the Caratheodory oracle (small supports only)."""
    if len(support_set(p)) > BRUTEFORCE_SUPPORT_CAP:
        raise LceError("support too large for the brute-force extensibility oracle")
    return _extensibility_report(p, zd_convex_bruteforce, envelope_minimum_bruteforce)


def is_log_concave_extensible_lp(p: LatticePmf) -> ExtensibilityReport:
    """Envelope decision by rational LPs: one hull-membership LP per box point
    outside the support and one envelope LP per support point."""
    return _extensibility_report(p, zd_convex_lp, lambda o, ov, z: envelope_minimum(o, ov, z, exact=True))


def _extensibility_report(p: LatticePmf, convexity, minimum) -> ExtensibilityReport:
    support = support_set(p)
    if len(support) == 0:
        raise LceError("p.m.f. has empty support")
    conv_report = convexity(support)
    pts = support.sorted_points()
    V = np.array([-math.log(p.value_at(k)) for k in pts])
    gaps = _envelope_gaps(pts, V, minimum)
    ok = conv_report.is_convex and max(gaps.values()) <= DEFAULT_ENVELOPE_TOL
    return ExtensibilityReport(
        is_extensible=ok,
        support_convex=conv_report.is_convex,
        envelope_gaps=gaps,
        tolerance_used=DEFAULT_ENVELOPE_TOL,
        convexity_witnesses=conv_report.witnesses,
    )


def _envelope_gaps(pts: list, vals: np.ndarray, minimum) -> dict:
    """Gap V(k) - min at every point k, where ``minimum(others, values, k)``
    returns ``(feasible, min)`` for the cheapest convex combination of the
    other lifted points above k; 0 where infeasible."""
    arr = np.array(pts, dtype=np.float64)
    gaps = {}
    for idx, k in enumerate(pts):
        if len(pts) == 1:
            gaps[k] = 0.0
            continue
        feasible, mn = minimum(np.delete(arr, idx, axis=0), np.delete(vals, idx), arr[idx])
        gaps[k] = max(0.0, float(vals[idx]) - mn) if feasible else 0.0
    return gaps


# ---------------------------------------------------------------------------
# rational twin of the float simplex, and its geometric wrappers


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


def solve_lp_exact(c, A, b) -> LPResult:
    """:func:`lce.simplex.solve_lp` in rational arithmetic, over the rationals
    that the float inputs represent."""
    return _solve_exact(*(np.asarray(x, dtype=np.float64) for x in (c, A, b)))


def hull_membership(points, z, *, exact: bool = False) -> bool:
    """Is ``z`` a convex combination of the rows of ``points``?"""
    pts = np.asarray(points, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).ravel()
    if pts.ndim != 2 or pts.shape[1] != z.size:
        raise ValueError("points and target have mismatched dimension")
    mpts = pts.shape[0]
    A = np.vstack([pts.T, np.ones((1, mpts))])
    b = np.concatenate([z, [1.0]])
    res = (solve_lp_exact if exact else solve_lp)(np.zeros(mpts), A, b)
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
    res = (solve_lp_exact if exact else solve_lp)(vals, A, b)
    if res.status != OPTIMAL:
        return False, None
    return True, res.objective


# ---------------------------------------------------------------------------
# whole-spectrum FFT convolution and the all-exact FFT sample check


def whole_spectrum_convolution(p: np.ndarray, q: np.ndarray, out_shape) -> np.ndarray:
    """The plain spectrum product: rfftn of each operand padded to powers of
    two, their product, then irfftn, cut to ``out_shape``.  It holds whole
    padded spectra and a whole padded real array at once."""
    padded = tuple(next_pow2(s) for s in out_shape)
    axes = tuple(range(len(padded)))
    product = np.fft.rfftn(p, s=padded, axes=axes) * np.fft.rfftn(q, s=padded, axes=axes)
    full = np.fft.irfftn(product, s=padded, axes=axes)
    return np.ascontiguousarray(full[tuple(slice(0, s) for s in out_shape)])


def fft_check_products(p: np.ndarray, q: np.ndarray, out: np.ndarray):
    """(flat index, window products) at each cell that the FFT sample check
    samples: p[lo:hi+1] times q[c-hi : c-lo+1] flipped, as :mod:`lce.lattice`
    forms them."""
    idx = np.linspace(0, out.size - 1, num=min(_FFT_CHECK_SAMPLES, out.size)).astype(np.int64)
    flip = (slice(None, None, -1),) * out.ndim
    for flat in sorted(set(idx.tolist())):
        cell = np.unravel_index(flat, out.shape)
        lo = [max(0, int(c) - s + 1) for c, s in zip(cell, q.shape)]
        hi = [min(int(c), s - 1) for c, s in zip(cell, p.shape)]
        p_win = p[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
        q_win = q[tuple(slice(c - b, c - a + 1) for c, a, b in zip(cell, lo, hi))][flip]
        yield flat, p_win * q_win


def verify_fft_subsample_exact(p: np.ndarray, q: np.ndarray, out: np.ndarray, scale: float):
    """The FFT sample check with an exact sum at every sampled cell: the
    verdict and the message that the filtered check of :mod:`lce.lattice`
    must give."""
    worst = 0.0
    for flat, products in fft_check_products(p, q, out):
        worst = max(worst, abs(stable_sum(products) - float(out.flat[flat])))
    if worst > _FFT_CHECK_TOL * scale:
        raise NumericalError(
            f"FFT/direct subsample discrepancy {worst:.3e} exceeds {_FFT_CHECK_TOL * scale:.3e}"
        )


# ---------------------------------------------------------------------------
# pointwise smoothed density


def smoothed_density_eval(p: LatticePmf, n: int, x) -> np.ndarray | float:
    """Density of S + U_1 + ... + U_n at x: sum_s p(s) prod_i B_n(x_i - s_i).

    For n = 1 this is exactly p(floor(x)).
    """
    if n < 1:
        raise LceError("n must be >= 1")
    pts = as_points(x, p.dim)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    k = np.floor(pts).astype(np.int64)
    t = pts - k
    lo = np.array(p.box.lo, dtype=np.int64)
    shape = np.array(p.values.shape, dtype=np.int64)
    out = np.zeros(pts.shape[0])
    for j in product(range(n), repeat=p.dim):
        coeff = np.ones(pts.shape[0])
        for axis, ji in enumerate(j):
            coeff *= bspline_eval(n, t[:, axis] + ji)
        idx = k - np.array(j, dtype=np.int64) - lo
        valid = np.all((idx >= 0) & (idx < shape), axis=1)
        if valid.any():
            gathered = np.zeros(pts.shape[0])
            gathered[valid] = p.values[tuple(idx[valid].T)]
            out += coeff * gathered
    return float(out[0]) if scalar else out


def quadrature_moments(f: ContinuousDensity, box: Box):
    """Mass, first moments and uncentered second moments of ``f`` over the
    cells of ``box`` (each lattice point +- 1/2), by adaptive quadrature."""
    rel_tol = 1e-8
    lo = np.array(box.lo, dtype=np.float64) - 0.5
    hi = np.array(box.hi, dtype=np.float64) + 0.5
    d = f.dim
    m0, _ = adaptive_quad(f.evaluate, lo, hi, rel_tol=rel_tol)
    # Odd moments can vanish by symmetry; anchor their tolerance to the mass
    # scale so the splitter cannot chase a zero target.
    W = float(np.max(np.abs(np.stack([lo, hi]))))
    m1 = np.zeros(d)
    raw2 = np.zeros((d, d))
    for i in range(d):
        m1[i], _ = adaptive_quad(
            lambda x, i=i: x[..., i] * f.evaluate(x), lo, hi, rel_tol=rel_tol, abs_tol=rel_tol * m0 * W
        )
        for j in range(i, d):
            val, _ = adaptive_quad(
                lambda x, i=i, j=j: x[..., i] * x[..., j] * f.evaluate(x), lo, hi,
                rel_tol=rel_tol, abs_tol=rel_tol * m0 * W * W,
            )
            raw2[i, j] = raw2[j, i] = val
    return m0, m1, raw2


def hpoly_moments_mc(A, b, n: int = 200_000, seed: int = 0):
    """Volume, barycenter and normalized second moment of the bounded
    h-polytope {x : A x <= b} by rejection sampling from its bounding box (2d
    float LPs), each as a ``(value, standard error)`` pair."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, d = A.shape

    def support(u):  # max u.x st A x <= b, with x = xp - xm and slacks
        res = solve_lp(np.concatenate([-u, u, np.zeros(m)]), np.hstack([A, -A, np.eye(m)]), b)
        assert res.status == OPTIMAL
        return -res.objective

    lo = np.array([-support(-e) for e in np.eye(d)])
    hi = np.array([support(e) for e in np.eye(d)])
    pts = lo + (hi - lo) * np.random.default_rng(seed).random((n, d))
    sel = pts[np.all(pts @ A.T <= b, axis=1)]
    share = len(sel) / n
    boxvol = float(np.prod(hi - lo))
    prods = sel[:, :, None] * sel[:, None, :]
    root = math.sqrt(len(sel))
    return ((boxvol * share, boxvol * math.sqrt(share * (1.0 - share) / n)),
            (sel.mean(axis=0), sel.std(axis=0, ddof=1) / root),
            (prods.mean(axis=0), prods.std(axis=0, ddof=1) / root))


# ---------------------------------------------------------------------------
# fixtures and helpers


def extensible_zoo_1d(count: int = 50) -> list[LatticePmf]:
    """At least ``count`` log-concave 1-d p.m.f.s: geometric-type, binomial-type,
    uniform, and quantized-Gaussian instances."""
    zoo: list[LatticePmf] = []
    for m in (1, 2, 3, 5, 8, 13, 25, 40):
        zoo.append(uniform_interval(m))
    for n in (1, 2, 4, 8, 16, 32, 64):
        for prob in (0.5, 0.3):
            zoo.append(binomial_pmf(n, prob))
    for q in (0.1, 0.25, 0.4, 0.5, 0.65, 0.8, 0.9, 0.95):
        zoo.append(one_sided_geometric(q))
        zoo.append(two_sided_geometric(q))
    for sigma in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        zoo.append(quantized_gaussian(sigma))
    i = 0
    while len(zoo) < count:
        zoo.append(binomial_pmf(10 + i, 0.5))
        i += 1
    return zoo


def make_uniform_on_set(S: LatticeSet) -> LatticePmf:
    """Uniform mass 1/|S| on each point of S; zero deficit."""
    if len(S) == 0:
        raise LceError("cannot build a uniform p.m.f. on the empty set")
    box = S.bounding_box()
    _check_cells(box)
    vals = np.zeros(box.shape)
    w = 1.0 / len(S)
    lo = np.array(box.lo, dtype=np.int64)
    for pt in S.sorted_points():
        vals[tuple(np.array(pt, dtype=np.int64) - lo)] = w
    return LatticePmf(box, vals, 0.0, {"family": "uniform_on_set", "support_size": len(S)})


def self_convolve(p: LatticePmf, n: int) -> LatticePmf:
    """n-fold convolution power of p; n = 1 returns p unchanged."""
    if n < 1:
        raise LceError("n must be a positive integer")
    out = p
    for _ in range(n - 1):
        out = convolve(out, p)
    return out


def shifted(p: LatticePmf, vec) -> LatticePmf:
    """p translated by the integer vector ``vec``."""
    v = tuple(int(x) for x in vec)
    box = Box(tuple(l + x for l, x in zip(p.box.lo, v)), tuple(h + x for h, x in zip(p.box.hi, v)))
    return LatticePmf(box, p.values, p.deficit, dict(p.meta))


def spot_check_tail(f: ContinuousDensity) -> float:
    """Worst ratio f(x)/bound(x) at 8 radii on 16 random rays, from the
    tail radius out to 4 (1 + radius) beyond it (<= 1 means valid)."""
    tb = f.tail_bound
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((16, f.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = tb.radius + np.linspace(0.0, 4.0 * (1.0 + tb.radius), 8)
    worst = 0.0
    for r in radii:
        pts = r * dirs
        fv = f(pts)
        bound = tb.amplitude * math.exp(-tb.rate * r)
        if bound > 0:
            worst = max(worst, float(np.max(fv)) / bound)
    return worst


def rate_envelope_ok(values, *, noise_floor: float = 0.0, rel_slack: float = 1e-6) -> bool:
    """Sweep-envelope test for quantities expected to be O(1) along a sweep.

    ``values`` are the rate statistics at increasing sweep parameters.  The
    test fits the admissible constant at the smallest parameter and requires
    (a) every later value to stay below it, and (b) no increase at the largest
    parameter.  ``noise_floor`` absorbs floating-point noise when the true
    quantity has decayed to rounding level.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return True
    cap = max(vals[0], noise_floor) * (1.0 + rel_slack) + noise_floor
    if any(v > cap for v in vals[1:]):
        return False
    return vals[-1] <= max(vals[-2] * (1.0 + rel_slack), noise_floor)


def load_report(path) -> ReportDocument:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    results = [
        CheckResult(
            check_id=r["check_id"],
            inputs=dict(r["inputs"]),
            measured=dict(r["measured"]),
            bound=dict(r["bound"]),
            status=r["status"],
            runtime_ms=float(r["runtime_ms"]),
            notes=dict(r.get("notes", {})),
        )
        for r in doc["results"]
    ]
    return ReportDocument(
        config=dict(doc["config"]), results=results, summary=dict(doc["summary"]), tool_version=doc["tool_version"]
    )
