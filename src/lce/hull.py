"""Exact convex hulls of small point sets and lower envelopes of lifted
points.

:func:`facets` is the one hull routine: the simplicial facets, outward normals
and offsets of the hull of a full-dimensional point set in d <= 3.  In the
plane it runs Andrew's monotone chain, whose half-chain loop
(:func:`_half_chain`) is shared with the 1-d lower envelope; in space it runs
an incremental hull (the beneath-beyond step of Barber, Dobkin and Huhdanpaa,
"The Quickhull algorithm for convex hulls", ACM TOMS 1996).  Integer input is
decided exactly, every orientation test on Python ints.

:func:`hrep` turns integer points in d <= 3 into a primitive integer
H-representation ``A x <= b`` of their convex hull, from :func:`facets` for a
full-dimensional set.  Sets of lower affine dimension are described by their
affine-hull equalities, each written as a pair of opposite inequalities, plus
the hull inside that affine hull.

:func:`lower_envelope` evaluates the lower convex envelope of lifted points
``(k, V(k))`` at the points themselves for d <= 2.  The heights are floats, so
the lifted hull decides "outside" with a tolerance relative to the coordinate
span; the envelope is then the maximum over the lower facet planes.
"""

from __future__ import annotations

import numpy as np

from .errors import LceError

# |coordinate| bound under which every orientation determinant and facet
# offset of :func:`facets` and :func:`hrep` fits in int64 (a 3x3 determinant
# of differences up to 2^20 stays below 6 * 2^60).
COORD_CAP = 2**19

# Lifted points closer than this times the coordinate span to the current
# hull are treated as on it.  Small enough that the envelope error it allows
# stays far below the 1e-9 extensibility tolerance, large enough to dominate
# rounding in the orientation tests.
ENVELOPE_REL_TOL = 1e-13

# Float points in 3-d closer than this times the coordinate span to a facet
# plane of :func:`facets` count as on it, so that rounding cannot split a flat
# face of a v-polytope into slivers.
_FACET_REL_TOL = 1e-9

# Cap on the elements of one (points x facets) block of a matrix product.
_BLOCK = 1 << 20


def facets(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simplicial facets ``(F, N, off)`` of the hull of a full-dimensional
    point set in d = 1, 2, 3, with conv(points) = {x : N x <= off}.

    ``F`` (m, d) holds the row indices of each facet's vertices: the vertex
    itself in d = 1, the edges counterclockwise from the lexicographically
    smallest vertex in d = 2, triangles counterclockwise seen from outside in
    d = 3.  ``N`` is the outward normal, not unit length: its length is
    (d - 1)! times the facet's (d - 1)-volume, so ``off - N @ c`` is d! times
    the volume of the cone from an inner point ``c`` over the facet.

    Integer input (``|x| <= COORD_CAP``) is decided exactly.  Float input
    takes the exact turn test in the plane; in space a point counts as
    outside a facet, or off the affine hull of the points picked so far, only
    when it lies more than ``_FACET_REL_TOL`` times the coordinate span away,
    so a flat face comes back as several triangles.
    """
    P = np.asarray(points)
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] not in (1, 2, 3):
        raise LceError(f"hull facets need a nonempty (n, d) point array with d <= 3, got shape {P.shape}")
    exact = P.dtype.kind in "iu"
    P = P.astype(np.int64 if exact else np.float64)
    if exact and int(np.abs(P).max()) > COORD_CAP:
        raise LceError(f"coordinates exceed {COORD_CAP}; translate the set towards the origin")
    if not exact and not np.all(np.isfinite(P)):
        raise LceError("hull facets need finite points")
    d = P.shape[1]
    # frame: the counterclockwise vertex ring in the plane, else up to d + 1
    # affinely independent points
    if d == 2:
        rows, order = P.tolist(), np.lexsort(P.T[::-1]).tolist()
        frame = _half_chain(rows, order)[:-1] + _half_chain(rows, order[::-1])[:-1]
    else:
        frame = _frame(_pad3(P), _FACET_REL_TOL)
    if len(frame) <= d:
        raise LceError("points are not full-dimensional: their hull has no facets")
    if d == 3:
        return _hull3(P, frame, _FACET_REL_TOL)
    if d == 1:
        lo, hi = frame
        return np.array([[hi], [lo]]), np.array([[1], [-1]], dtype=P.dtype), np.array([P[hi, 0], -P[lo, 0]])
    F = np.column_stack([frame, np.roll(frame, -1)])
    E = P[F[:, 1]] - P[F[:, 0]]
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)
    return F, N, np.einsum("ij,ij->i", N, P[F[:, 0]])


def hrep(points) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(A, b)`` with conv(points) = {x : A x <= b}, for d = 1, 2, 3.

    Rows are primitive (gcd 1) and distinct.  A set of affine dimension k < d
    gets one opposite pair of rows per affine-hull equality, plus the rows of
    its k-dimensional hull lifted from a coordinate projection that is
    one-to-one on the affine hull.  No LP is involved at any dimension.
    """
    P = np.asarray(points)
    if P.ndim != 2 or P.shape[0] == 0:
        raise LceError("hrep needs a nonempty (n, d) point array")
    if P.dtype.kind not in "iu" and not np.array_equal(P, np.round(P)):
        raise LceError("hrep needs integer points")
    P = P.astype(np.int64)
    n, d = P.shape
    if d not in (1, 2, 3):
        raise LceError(f"hrep is implemented for d <= 3, got d = {d}")
    if int(np.abs(P).max()) > COORD_CAP:
        raise LceError(f"coordinates exceed {COORD_CAP}; translate the set towards the origin")
    frame = _frame(_pad3(P), 0.0)
    k = len(frame) - 1
    if k == d:
        return _normalize(*facets(P)[1:])
    # Lower-dimensional: equalities of the affine hull, then the hull of a
    # one-to-one coordinate projection.
    D = P[frame[1:]] - P[frame[0]]
    if k == 0:
        eqs = np.eye(d, dtype=np.int64)
        keep = []
    elif d == 2:  # a line in the plane
        eqs = np.array([[-D[0, 1], D[0, 0]]])
        keep = [int(np.argmax(np.abs(D[0])))]
    elif k == 1:  # a line in space: two normals independent of each other
        m = int(np.argmax(np.abs(D[0])))
        eqs = np.stack([np.cross(D[0], np.eye(3, dtype=np.int64)[j]) for j in range(3) if j != m])
        keep = [m]
    else:  # a plane in space
        nrm = np.cross(D[0], D[1])
        eqs = nrm[None, :]
        drop = int(np.argmax(np.abs(nrm)))
        keep = [j for j in range(3) if j != drop]
    rhs = eqs @ P[frame[0]]
    A = np.concatenate([eqs, -eqs])
    b = np.concatenate([rhs, -rhs])
    if keep:
        Ak, bk = hrep(P[:, keep])
        lifted = np.zeros((len(Ak), d), dtype=np.int64)
        lifted[:, keep] = Ak
        A, b = np.concatenate([A, lifted]), np.concatenate([b, bk])
    return _normalize(A, b)


def box_points_inside(A: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """The lattice points z of the box [0, shape) with ``A z <= b``, in
    lexicographic order (last coordinate fastest), as an (m, d) array."""
    Z = np.indices(tuple(shape)).reshape(len(shape), -1).T
    inside = np.empty(len(Z), dtype=bool)
    step = max(1, _BLOCK // max(1, len(b)))
    for s in range(0, len(Z), step):
        inside[s : s + step] = np.all(Z[s : s + step] @ A.T <= b, axis=1)
    return Z[inside]


def lower_envelope(points, heights) -> np.ndarray:
    """Height of the lower convex envelope of the lifted points
    ``(points[i], heights[i])`` at each ``points[i]``, for integer points in
    d = 1 or 2.

    Envelope vertices get their own height exactly.  A planar set on one line
    is treated as the 1-d problem along that line; lifted points that lie on
    one plane get that plane.
    """
    P = np.asarray(points)
    h = np.asarray(heights, dtype=np.float64).ravel()
    if P.ndim != 2 or P.shape[0] != h.size or P.shape[1] not in (1, 2):
        raise LceError("lower_envelope needs (n, 1) or (n, 2) points and n heights")
    if not np.all(np.isfinite(h)):
        raise LceError("lower_envelope needs finite heights")
    P = P.astype(np.int64)
    frame = _frame(_pad3(P), 0.0)
    if len(frame) == 1:
        return h.copy()
    if len(frame) == 2:
        # Collinear: parametrize the line by an affine coordinate.
        t = (P - P[frame[0]]) @ (P[frame[1]] - P[frame[0]])
        return _lower_envelope_1d(t.astype(np.float64), h)
    L = np.column_stack([P.astype(np.float64), h])
    lframe = _frame(L, ENVELOPE_REL_TOL)
    if len(lframe) == 3:  # all lifted points on one (non-vertical) plane
        N = np.cross(L[lframe[1]] - L[lframe[0]], L[lframe[2]] - L[lframe[0]])[None, :]
        off = N @ L[lframe[0]]
        vertices = np.array(lframe)
    else:
        F, N, off = _hull3(L, lframe, ENVELOPE_REL_TOL)
        lower = N[:, 2] < 0  # exact: N[:, 2] is an integer computed from integer x, y
        F, N, off = F[lower], N[lower], off[lower]
        vertices = np.zeros(len(h), dtype=bool)
        vertices[F.ravel()] = True
    env = np.empty_like(h)
    step = max(1, _BLOCK // len(off))
    for s in range(0, len(h), step):
        xy = L[s : s + step, :2]
        env[s : s + step] = np.max((off - xy @ N[:, :2].T) / N[:, 2], axis=1)
    env[vertices] = h[vertices]
    return env


# ---------------------------------------------------------------------------
# internals


def _half_chain(rows: list, order: list) -> list[int]:
    """Indices of the chain over ``rows[order]`` (2-vectors) that turns
    strictly left at every inner vertex: Andrew's monotone chain, one half.
    Points on a straight stretch are dropped.  The turn is computed on the
    rows' own numbers, so Python ints make it exact."""
    chain: list[int] = []
    for i in order:
        p = rows[i]
        while len(chain) >= 2:
            o, a = rows[chain[-2]], rows[chain[-1]]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0:
                break
            chain.pop()
        chain.append(i)
    return chain


def _lower_envelope_1d(t: np.ndarray, h: np.ndarray) -> np.ndarray:
    chain = _half_chain(np.column_stack([t, h]).tolist(), np.argsort(t, kind="stable").tolist())
    env = np.interp(t, t[chain], h[chain])
    env[chain] = h[chain]
    return env


def _pad3(P: np.ndarray) -> np.ndarray:
    return np.pad(P, ((0, 0), (0, 3 - P.shape[1])))


def _frame(P: np.ndarray, tol: float) -> list[int]:
    """Indices of up to four affinely independent rows of ``P`` (n, 3), picked
    greedily far apart.  Integer input is decided exactly; for float input a
    point counts as off the current affine hull only when its distance exceeds
    ``tol`` times the coordinate span."""
    exact = P.dtype.kind in "iu"
    eps = 0.0 if exact else tol * _span(P)
    i0 = int(np.lexsort(P.T[::-1])[0])
    D = P - P[i0]
    frame = [i0]

    def pick(score):
        i = int(np.argmax(score))
        if score[i] > eps:
            frame.append(i)
            return True
        return False

    if not pick(np.abs(D).sum(axis=1) if exact else np.linalg.norm(D, axis=1)):
        return frame
    u = D[frame[1]]
    C = np.cross(u, D)
    if not pick(np.abs(C).sum(axis=1) if exact else np.linalg.norm(C, axis=1) / np.linalg.norm(u)):
        return frame
    nrm = C[frame[2]]
    s = np.abs(D @ nrm)
    pick(s if exact else s / np.linalg.norm(nrm))
    return frame


def _span(P: np.ndarray) -> float:
    return float(np.max(P.max(axis=0) - P.min(axis=0)))


def _hull3(P: np.ndarray, frame: list[int], tol: float):
    """Triangular facets of conv(P) for full-dimensional P (n, 3).

    Returns ``(F, N, off)``: vertex index triples ordered so that
    ``N = (P[b] - P[a]) x (P[c] - P[a])`` is the outward normal, and every
    point satisfies ``N @ x <= off``.  Points are inserted one at a time; the
    facets a point sees are grown as one connected region from the facet it
    sees best, and are replaced by the cone from the point to their horizon.
    Integer input is exact; for float input a point must lie more than
    ``tol`` times the coordinate span outside a facet to see it.
    """
    h = _Hull3(P, tol * _span(P) if P.dtype.kind == "f" else 0.0)
    a, b, c, e = frame
    for tri, inward in (((a, b, c), e), ((a, c, e), b), ((a, e, b), c), ((b, e, c), a)):
        h.add(*tri, inward=inward)
    live = np.nonzero(h.alive[: h.m])[0]
    outside = (P @ h.N[live].T - h.off[live] > h.thr[live]).any(axis=1)
    outside[list(frame)] = False
    for i in np.nonzero(outside)[0].tolist():
        h.insert(i)
    keep = h.alive[: h.m]
    return np.array(h.F, dtype=np.int64)[keep], h.N[: h.m][keep], h.off[: h.m][keep]


class _Hull3:
    """Facet list of an incremental 3-d hull: outward normals and offsets in
    growable arrays, and a map from each directed edge to its facet."""

    def __init__(self, P: np.ndarray, eps: float):
        self.P = P
        self.rows = P.tolist()  # Python numbers: exact integer cross products
        self.eps = eps
        self.F: list[tuple[int, int, int]] = []
        cap = 16
        self.N = np.zeros((cap, 3), dtype=P.dtype)
        self.off = np.zeros(cap, dtype=P.dtype)
        self.thr = np.zeros(cap)
        self.nrm = np.ones(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.m = 0
        self.edge: dict[tuple[int, int], int] = {}

    def add(self, a: int, b: int, c: int, inward: int | None = None) -> None:
        pa, pb, pc = self.rows[a], self.rows[b], self.rows[c]
        u = [pb[k] - pa[k] for k in range(3)]
        v = [pc[k] - pa[k] for k in range(3)]
        N = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        off = N[0] * pa[0] + N[1] * pa[1] + N[2] * pa[2]
        if inward is not None and sum(n * x for n, x in zip(N, self.rows[inward])) > off:
            b, c, N, off = c, b, [-n for n in N], -off
        if self.m == len(self.alive):
            grow = len(self.alive)
            self.N = np.concatenate([self.N, np.zeros_like(self.N[:grow])])
            self.off = np.concatenate([self.off, np.zeros_like(self.off[:grow])])
            self.thr = np.concatenate([self.thr, np.zeros(grow)])
            self.nrm = np.concatenate([self.nrm, np.ones(grow)])
            self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
        f = self.m
        nrm = float(np.sqrt(N[0] * N[0] + N[1] * N[1] + N[2] * N[2]))
        self.N[f], self.off[f], self.nrm[f] = N, off, nrm
        self.thr[f] = self.eps * nrm
        self.alive[f] = True
        self.F.append((a, b, c))
        for u, v in ((a, b), (b, c), (c, a)):
            self.edge[(u, v)] = f
        self.m += 1

    def insert(self, i: int) -> None:
        m = self.m
        dist = self.N[:m] @ self.P[i] - self.off[:m]
        seen = self.alive[:m] & (dist > self.thr[:m])
        if not seen.any():
            return
        start = int(np.argmax(np.where(seen, dist / self.nrm[:m], -np.inf)))
        region = {start}
        stack = [start]
        while stack:
            a, b, c = self.F[stack.pop()]
            for u, v in ((a, b), (b, c), (c, a)):
                g = self.edge[(v, u)]
                if seen[g] and g not in region:
                    region.add(g)
                    stack.append(g)
        horizon = []
        for f in region:
            a, b, c = self.F[f]
            for u, v in ((a, b), (b, c), (c, a)):
                if self.edge[(v, u)] not in region:
                    horizon.append((u, v))
        for f in region:
            a, b, c = self.F[f]
            self.alive[f] = False
            for u, v in ((a, b), (b, c), (c, a)):
                del self.edge[(u, v)]
        for u, v in horizon:
            self.add(u, v, i)


def _normalize(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row of ``[A | b]`` by the gcd of its ``A`` part and drop
    repeated rows (coplanar triangles of one face)."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    g = np.gcd.reduce(A, axis=1)
    g[g == 0] = 1
    # A set of row tuples, not np.unique(axis=0), which imports numpy.ma.
    rows = np.array(sorted(set(map(tuple, np.column_stack([A // g[:, None], b // g]).tolist()))), dtype=np.int64)
    return rows[:, :-1], rows[:, -1]

