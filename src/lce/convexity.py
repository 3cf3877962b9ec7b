"""Decision procedures for Z^d-convexity and log-concave extensibility.

A set A is Z^d-convex when A equals conv(A) intersected with Z^d.  A p.m.f. p
is log-concave extensible when its support is Z^d-convex and V = -log p lies
on the lower convex envelope of its own lifted support points.

Both decisions come from :mod:`lce.hull` in every dimension: an exact
integer H-representation of conv(A) tested against every bounding-box point
in one matrix product, and the lower hull of the lifted points (k, V(k)).
The per-point LPs of :mod:`lce.simplex` remain only as the rational reference
(``exact=True``) and as test oracles (:func:`zd_convex_lp`), beside the
brute-force Caratheodory checks below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import LceError
from .hull import box_points_inside, hrep, lower_envelope
from .lattice import Box, LatticePmf, LatticeSet, support_set
from .simplex import envelope_minimum, hull_membership

DEFAULT_ENVELOPE_TOL = 1e-9
BOX_ENUM_CAP = 500_000
SUPPORT_CAP = 4096
BRUTEFORCE_SUPPORT_CAP = 16


@dataclass(frozen=True)
class ConvexityReport:
    is_convex: bool
    witnesses: list  # lattice points in conv(A) \ A, lexicographic order

    def __post_init__(self):
        if self.is_convex != (len(self.witnesses) == 0):
            raise LceError("is_convex must match emptiness of the witness list")


@dataclass(frozen=True)
class ExtensibilityReport:
    is_extensible: bool
    support_convex: bool
    envelope_gaps: dict  # support point -> nonnegative gap in log-mass units
    tolerance_used: float
    convexity_witnesses: list = field(default_factory=list)

    def max_gap(self) -> float:
        return max(self.envelope_gaps.values(), default=0.0)


def minkowski_sum(A: LatticeSet, B: LatticeSet) -> LatticeSet:
    """{a + b : a in A, b in B}, deduplicated."""
    if A.dim != B.dim:
        raise LceError("minkowski_sum operands have different dimensions")
    if len(A) == 0 or len(B) == 0:
        return LatticeSet(A.dim, frozenset())
    sums = (A.array()[:, None, :] + B.array()[None, :, :]).reshape(-1, A.dim)
    return LatticeSet.from_iterable(A.dim, sums)


def is_zd_convex(A: LatticeSet) -> ConvexityReport:
    """Decide A = conv(A) cap Z^d; the witnesses are the lattice points of
    conv(A) that A misses, in lexicographic order.

    Every bounding-box point is tested against the exact integer
    H-representation of conv(A).
    """
    _check_nonempty(A)
    box = _checked_box(A)
    return _hull_report(A, box, *_hrep_from_corner(A, box))


def zd_convex_lp(A: LatticeSet, *, exact: bool = False) -> ConvexityReport:
    """LP reference for :func:`is_zd_convex`: one hull-membership LP per
    bounding-box point outside A, in rational arithmetic when ``exact``."""
    _check_nonempty(A)
    generators = A.array()
    witnesses = [
        z
        for z in _box_points_lex(_checked_box(A))
        if z not in A and hull_membership(generators, np.array(z, dtype=np.float64), exact=exact)
    ]
    return ConvexityReport(is_convex=not witnesses, witnesses=witnesses)


def _check_nonempty(A: LatticeSet) -> None:
    if len(A) == 0:
        raise LceError("convexity of the empty set is not defined here")


def _checked_box(S: LatticeSet) -> Box:
    box = S.bounding_box()
    if box.ncells > BOX_ENUM_CAP:
        raise LceError(f"bounding box has {box.ncells} cells, cap is {BOX_ENUM_CAP}")
    return box


def _hrep_from_corner(A: LatticeSet, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """H-representation of conv(A) in coordinates relative to ``box.lo``,
    which keeps the int64 orientation tests small."""
    return hrep(A.array() - np.array(box.lo, dtype=np.int64))


def _hull_report(S: LatticeSet, box: Box, A: np.ndarray, b: np.ndarray) -> ConvexityReport:
    """Witnesses of S against the hull {x : A (x - box.lo) <= b}, ``box`` the
    bounding box of S."""
    lo = np.array(box.lo, dtype=np.int64)
    inside = box_points_inside(A, b, box.shape)
    member = np.zeros(box.shape, dtype=bool)
    member[tuple((S.array() - lo).T)] = True
    witnesses = [tuple(z) for z in (inside[~member[tuple(inside.T)]] + lo).tolist()]
    return ConvexityReport(is_convex=not witnesses, witnesses=witnesses)


def _box_points_lex(box: Box):
    ranges = [range(l, h + 1) for l, h in zip(box.lo, box.hi)]
    return product(*ranges)


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


# ---------------------------------------------------------------------------
# log-concave extensibility


def is_log_concave_extensible(
    p: LatticePmf, tol: float = DEFAULT_ENVELOPE_TOL, *, exact: bool = False
) -> ExtensibilityReport:
    """Decide whether V = -log p extends to a convex function on R^d.

    Conditions: (a) support(p) is Z^d-convex, and (b) at every support point k
    the value V(k) does not exceed the lower convex envelope of the other
    lifted support points at k, within ``tol``; the gap is V(k) minus that
    envelope, and 0 at points outside the hull of the others (envelope
    vertices: a convex extension can always bend upward there).

    The envelope is the lower hull of all lifted support points
    (:func:`lce.hull.lower_envelope`), and the gap is ``max(0, V - envelope)``.
    With ``exact=True`` each point costs one envelope LP instead, and these
    LPs, like those of the convexity test, run in rational arithmetic over the
    exact float inputs.
    """
    if not 0.0 <= tol < math.inf:
        raise LceError(f"tol must be a finite non-negative number, got {tol!r}")
    support = support_set(p)
    if len(support) == 0:
        raise LceError("p.m.f. has empty support")
    if len(support) > SUPPORT_CAP:
        raise LceError(f"support size {len(support)} exceeds cap {SUPPORT_CAP}")
    conv_report = zd_convex_lp(support, exact=True) if exact else is_zd_convex(support)
    pts = support.sorted_points()
    vals = np.array([-math.log(p.value_at(k)) for k in pts])
    if not np.all(np.isfinite(vals)):
        raise LceError("non-finite log-mass value")
    if exact:
        gaps = _envelope_gaps(pts, vals, lambda o, ov, z: envelope_minimum(o, ov, z, exact=True))
    else:
        env = lower_envelope(np.array(pts, dtype=np.int64), vals)
        gaps = {k: max(0.0, float(v - e)) for k, v, e in zip(pts, vals, env)}
    ok = conv_report.is_convex and max(gaps.values()) <= tol
    return ExtensibilityReport(
        is_extensible=ok,
        support_convex=conv_report.is_convex,
        envelope_gaps=gaps,
        tolerance_used=tol,
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
    support = support_set(p)
    if len(support) == 0:
        raise LceError("p.m.f. has empty support")
    if len(support) > BRUTEFORCE_SUPPORT_CAP:
        raise LceError("support too large for the brute-force extensibility oracle")
    conv_report = zd_convex_bruteforce(support)
    pts = support.sorted_points()
    V = np.array([-math.log(p.value_at(k)) for k in pts])
    gaps = _envelope_gaps(pts, V, envelope_minimum_bruteforce)
    ok = conv_report.is_convex and max(gaps.values()) <= DEFAULT_ENVELOPE_TOL
    return ExtensibilityReport(
        is_extensible=ok,
        support_convex=conv_report.is_convex,
        envelope_gaps=gaps,
        tolerance_used=DEFAULT_ENVELOPE_TOL,
        convexity_witnesses=conv_report.witnesses,
    )


def check_self_sum_convexity(A: LatticeSet, n_max: int) -> list[ConvexityReport]:
    """Convexity reports for the n-fold Minkowski sums of A, n = 2..n_max.

    Requires A itself to be Z^d-convex.  Since conv(A + ... + A) = n conv(A),
    the H-representation of conv(A) is built once and each sum is tested
    against it with the offsets multiplied by n.
    """
    if n_max < 2:
        raise LceError("n_max must be at least 2")
    box = _checked_box(A)
    H, b = _hrep_from_corner(A, box)
    base = _hull_report(A, box, H, b)
    if not base.is_convex:
        raise LceError("A must be Z^d-convex (witnesses: %s)" % base.witnesses[:5])
    reports = []
    current = A
    for n in range(2, n_max + 1):
        current = minkowski_sum(current, A)
        # The box of the n-fold sum starts at n times the corner of A's box.
        reports.append(_hull_report(current, _checked_box(current), H, n * b))
    return reports
