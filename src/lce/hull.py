"""Exact convex hulls of small point sets and lower envelopes of lifted
points, in any dimension.

:func:`facets` is the one hull routine: the simplicial facets, outward normals
and offsets of the hull of a full-dimensional point set.  Every d >= 2 takes
one incremental beneath-beyond hull (:func:`_hull`; Clarkson and Shor, DCG
1989; Barber, Dobkin and Huhdanpaa, ACM TOMS 1996) whose normals are
generalized cross products; d = 1 takes the two endpoints.  Integer input is
decided exactly, in int64 under a bound read from the set's own extents
(:func:`_check_int64`).

:func:`hrep` turns integer points into a primitive integer H-representation
``A x <= b`` of their hull.  A set of lower affine dimension is read in a
chart: its affine-hull equalities, each as a pair of opposite inequalities,
plus the hull of a coordinate projection that is one-to-one on it.
:func:`lower_envelope` evaluates the lower convex envelope of lifted points
``(k, V(k))`` at the points themselves, in the same chart.  Float heights
take a scale-relative tolerance; object heights (Python integers or
``Fraction`` values) are decided exactly, on the rows' own numbers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import LceError

# Lifted points closer than this times the coordinate span to the current
# hull are treated as on it.  Small enough that the envelope error it allows
# stays far below the 1e-9 extensibility tolerance, large enough to dominate
# rounding in the orientation tests.
ENVELOPE_REL_TOL = 1e-13

# Float points closer than this times the coordinate span to a facet
# plane of :func:`facets` count as on it, so that rounding cannot split a flat
# face of a v-polytope into slivers.
_FACET_REL_TOL = 1e-9

# Cap on the elements of one (points x facets) block of a matrix product.
_BLOCK = 1 << 20


def facets(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simplicial facets ``(F, N, off)`` of the hull of a full-dimensional
    point set in R^d, with conv(points) = {x : N x <= off}.

    ``F`` (m, d) holds the row indices of each facet's vertices: the vertex
    itself in d = 1, in d >= 2 simplices ordered so that ``N x - off`` is
    det[P[F[:, 1:]] - P[F[:, 0]]; x - P[F[:, 0]]].  The facets come in the
    hull's insertion order: in d = 2 the edges are not sorted around the
    polygon.  ``N`` is the outward normal, of length (d - 1)! times the
    facet's volume, so ``off - N @ c`` is d! times the volume of the cone from
    an inner point ``c`` over the facet.

    Integer input is decided exactly.  For float input a point counts as off a
    facet plane or affine hull only beyond ``_FACET_REL_TOL`` times the
    coordinate span, so a flat face comes back as several simplices.
    """
    P = np.asarray(points)
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
        raise LceError(f"hull facets need a nonempty (n, d) point array, got shape {P.shape}")
    exact = P.dtype.kind in "iu"
    P = P.astype(np.int64 if exact else np.float64)
    if exact:
        _check_int64(P)
    elif not np.all(np.isfinite(P)):
        raise LceError("hull facets need finite points")
    frame = _frame(P, _FACET_REL_TOL)
    if len(frame) <= P.shape[1]:
        raise LceError("points are not full-dimensional: their hull has no facets")
    return _hull(P, frame, _FACET_REL_TOL)


def hrep(points) -> tuple[np.ndarray, np.ndarray]:
    """Integer ``(A, b)`` with conv(points) = {x : A x <= b}, rows primitive
    (gcd 1) and distinct; a set of lower affine dimension is read in its chart
    (see the module docstring).  No LP is involved at any dimension."""
    P = np.asarray(points)
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
        raise LceError("hrep needs a nonempty (n, d) point array")
    if P.dtype.kind not in "iu" and not np.array_equal(P, np.round(P)):
        raise LceError("hrep needs integer points")
    P = P.astype(np.int64)
    frame, keep, eqs, rhs = _chart(P)
    if len(keep) == P.shape[1]:
        return _normalize(*_hull(P, frame, 0.0)[1:])
    A = np.concatenate([eqs, -eqs])
    b = np.concatenate([rhs, -rhs])
    if keep:
        Ak, bk = hrep(P[:, keep])
        lifted = np.zeros((len(Ak), P.shape[1]), dtype=np.int64)
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
    any dimension.

    Envelope vertices get their own height exactly.  A set of lower affine
    dimension is read in the coordinates of its chart (see :func:`hrep`), an
    affine bijection that leaves the envelope unchanged; lifted points on one
    hyperplane are all on the envelope.  Object heights are decided with no
    tolerance; off the vertices the envelope is then a ``Fraction`` or, for
    integers, an int / int rounded once to a float.
    """
    P = np.asarray(points)
    h = np.asarray(heights).ravel()
    exact = h.dtype == object
    if not exact:
        h = h.astype(np.float64)
    if P.ndim != 2 or P.shape[0] != h.size or P.shape[1] == 0:
        raise LceError("lower_envelope needs (n, d) points and n heights")
    if not exact and not np.all(np.isfinite(h)):
        raise LceError("lower_envelope needs finite heights")
    P = P.astype(np.int64)
    keep = _chart(P)[1]
    k = len(keep)
    if k == 0:
        return h.copy()
    P = P[:, keep].astype(object if exact else np.float64)
    L = np.column_stack([P, h])
    lframe = _frame(L, ENVELOPE_REL_TOL)
    if len(lframe) == k + 1:  # all lifted points on one (non-vertical) hyperplane
        return h.copy()
    F, N, off = _hull(L, lframe, ENVELOPE_REL_TOL)
    lower = N[:, k] < 0  # exact: N[:, k] is an integer minor of the integer points
    F, N, off = F[lower], N[lower], off[lower]
    vertices = np.zeros(len(h), dtype=bool)
    vertices[F.ravel()] = True
    env = np.empty_like(h)
    step = max(1, _BLOCK // len(off))
    for s in range(0, len(h), step):
        x = L[s : s + step, :k]
        env[s : s + step] = np.max((off - x @ N[:, :k].T) / N[:, k], axis=1)
    env[vertices] = h[vertices]
    return env


# ---------------------------------------------------------------------------
# internals


def _check_int64(P: np.ndarray) -> None:
    """Raise unless every minor and product the exact routines form from
    the integer points ``P`` (n, d) fits in int64.  A k x k minor of
    difference vectors, and each partial sum of its Leibniz terms, is at most
    k! e_k, e_k the k-th elementary symmetric sum of the coordinate extents; a
    normal's entries are k-minors, k < d, so a point's product with it, less
    an offset, is at most 2 X k! e_k, X the largest |coordinate|."""
    hi, lo = P.max(axis=0).tolist(), P.min(axis=0).tolist()
    e = [1] + [0] * len(hi)  # elementary symmetric sums of the extents
    for x in (a - b for a, b in zip(hi, lo)):
        for k in range(len(e) - 1, 0, -1):
            e[k] += e[k - 1] * x
    minors = [math.factorial(k) * ek for k, ek in enumerate(e)]
    bound = max(max(minors[1:]), 2 * max(max(hi), -min(lo)) * max(minors[:-1]))
    if bound > np.iinfo(np.int64).max:
        raise LceError(f"coordinates exceed the exact int64 range (bound {bound}); translate or shrink the set")


@lru_cache(maxsize=None)
def _cofactors(m: int):
    """Compiled ``f(rows, V) -> (N, off)`` for the m points r_t = rows[V[t]]
    in R^m, with N x - off = det[r1 - r0; ...; r_{m-1} - r0; x - r0]: N is the
    generalized cross product of the difference rows.  Its minors are written
    out once per m by Laplace expansion, each minor of the lower rows once, and
    run on the rows' own numbers (exact for Python ints); m = 3 gives the
    cross product term for term."""
    lines = ["".join(f"r{i}, " for i in range(m)) + "= " + "".join(f"rows[V[{i}]], " for i in range(m))]
    lines += [f"u{i}_{c} = r{i}[{c}] - r0[{c}]" for i in range(1, m) for c in range(m)]
    minor = {(c,): f"u{m - 1}_{c}" for c in range(m)}

    def expand(i, cols, negate):
        # along row i; a negated minor flips its terms' signs, not the sum's,
        # so -(a d - b c) is b c - a d down to the sign of a zero
        out = ""
        for t, c in enumerate(cols):
            rest = cols[:t] + cols[t + 1 :]
            term = f"u{i}_{c} * {minor[rest]}" if rest else f"u{i}_{c}"
            minus = (t % 2 == 1) != negate
            out += ("-" if minus else "") + term if t == 0 else (" - " if minus else " + ") + term
        return out

    for i in range(m - 2, 1, -1):  # minors of rows i..m-1 from those of rows i+1..m-1
        for cols in combinations(range(m), m - i):
            minor[cols] = "m" + "_".join(map(str, cols))
            lines.append(f"{minor[cols]} = {expand(i, cols, False)}")
    full = tuple(range(m))
    N = [expand(1, full[:c] + full[c + 1 :], (m - 1 + c) % 2 == 1) for c in range(m)] if m > 1 else ["1"]
    off = " + ".join(f"N[{c}] * r0[{c}]" for c in range(m))
    src = "def cofactors(rows, V):\n" + "".join(f"    {s}\n" for s in lines)
    src += f"    N = [{', '.join(N)}]\n    return N, {off}\n"
    namespace: dict = {}
    exec(src, namespace)
    return namespace["cofactors"]


def _frame(P: np.ndarray, tol: float) -> list[int]:
    """Indices of up to d + 1 affinely independent rows of ``P`` (n, d),
    picked greedily far apart: each next row maximizes the minors of its
    difference vector against those picked (their wedge), summed in absolute
    value for integer input; for float input their norm over the picked
    wedge's, the distance to the picked affine hull, beyond ``tol`` times the
    coordinate span.  Object rows (integers or ``Fraction`` values) count as
    exact."""
    exact = P.dtype.kind in "iuO"
    n, d = P.shape
    eps = 0.0 if exact else tol * float(np.ptp(P, axis=0).max())
    i0 = int(np.lexsort(P.T[::-1])[0])
    D = P - P[i0]
    frame = [i0]
    W, scale = D, 1.0  # wedge of each difference vector with the picked ones
    while len(frame) <= d:
        score = np.abs(W).sum(axis=1) if exact else np.linalg.norm(W, axis=1) / scale
        i = int(np.argmax(score))
        if not score[i] > eps:
            break
        if not exact:
            scale = float(np.linalg.norm(W[i]))  # the picked rows' wedge, for float scores
        frame.append(i)
        k = len(frame)
        picked = P[frame].tolist()
        W = np.empty((n, math.comb(d, k)), dtype=P.dtype)
        for s, cols in enumerate(reversed(list(combinations(range(d), k)))):
            N, _ = _cofactors(k)([[r[c] for c in cols] for r in picked], range(k))
            W[:, s] = D[:, cols[0]] * N[0]
            for c, x in zip(cols[1:], N[1:]):
                W[:, s] += D[:, c] * x
    return frame


def _chart(P: np.ndarray) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """Chart ``(frame, keep, eqs, rhs)`` of integer points ``P`` (n, d) whose
    affine hull the k + 1 rows ``frame`` of :func:`_frame` span: the k
    coordinates with the largest minor of the frame's difference vectors, a
    one-to-one projection, and the affine hull ``eqs x = rhs``, one row per
    other coordinate c, the cofactor normal of the frame over ``keep`` and c."""
    _check_int64(P)
    frame = _frame(P, 0.0)
    d, k = P.shape[1], len(frame) - 1
    rows = P[frame].tolist()

    def det(cols):  # of the differences over cols: bordered by a unit column
        N, off = _cofactors(k + 1)([[r[c] for c in cols] + [0] for r in rows], range(k + 1))
        return N[-1] - off

    keep = tuple(range(d)) if k == d else max(combinations(range(d), k), key=lambda cols: abs(det(cols)))
    eqs = np.zeros((d - k, d), dtype=np.int64)
    rhs = np.zeros(d - k, dtype=np.int64)
    for row, c in enumerate(j for j in range(d) if j not in keep):
        cols = sorted(keep + (c,))
        N, rhs[row] = _cofactors(k + 1)([[r[j] for j in cols] for r in rows], range(k + 1))
        eqs[row, cols] = N
    return frame, list(keep), eqs, rhs


def _hull(P: np.ndarray, frame: list[int], tol: float):
    """Simplicial facets ``(F, N, off)`` of conv(P), P (n, d) full-dimensional,
    as :func:`facets` returns them: in d = 1 the two endpoints ``frame``, in
    d >= 2 grown from the simplex on ``frame`` by inserting one point at a
    time.  The facets it sees form one region, grown across neighbours from
    the facet it sees best (beyond ``tol`` times the coordinate span for float
    input), and give way to the cone from the point over the region's
    horizon."""
    d = P.shape[1]
    if d == 1:
        lo, hi = frame
        return np.array([[hi], [lo]]), np.array([[1], [-1]], dtype=P.dtype), np.array([P[hi, 0], -P[lo, 0]])
    rows, cofactors = P.tolist(), _cofactors(d)
    eps = tol * float(np.ptp(P, axis=0).max()) if P.dtype.kind == "f" else 0.0
    F, nb = [], []  # vertex tuples; nb[f][t] is the facet across the ridge omitting F[f][t]
    # normals, offsets, normal lengths and alive flags, doubled when full
    arrays = [np.zeros((16, d), dtype=P.dtype), np.zeros(16, dtype=P.dtype), np.ones(16), np.zeros(16, dtype=bool)]

    def add(V, links, normal):
        f = len(F)
        if f == len(arrays[3]):
            arrays[:] = [np.concatenate([a, np.zeros_like(a)]) for a in arrays]
        N, off, nrm, alive = arrays
        N[f], off[f], nrm[f], alive[f] = *normal, math.sqrt(sum(n * n for n in normal[0])), True
        F.append(V)
        nb.append(links)

    # The facet omitting frame position j lists the others in frame order,
    # its last two swapped when d - j is odd (one orientation for all), and
    # once more, its normal negated, when the frame's vertex sum is outside.
    inner = [sum(col) for col in zip(*(rows[v] for v in frame))]
    for j in range(d, -1, -1):
        V = [v for t, v in enumerate(frame) if t != j]
        if (d - j) % 2:
            V[-2], V[-1] = V[-1], V[-2]
        N, off = cofactors(rows, V)
        if sum(n * x for n, x in zip(N, inner)) > (d + 1) * off:
            V[-2], V[-1], N, off = V[-1], V[-2], [-n for n in N], -off
        add(tuple(V), [d - frame.index(v) for v in V], (N, off))
    N, off, nrm, alive = (a[: d + 1] for a in arrays)
    outside = (P @ N.T - off > eps * nrm).any(axis=1)
    outside[frame] = False
    for i in np.flatnonzero(outside).tolist():
        N, off, nrm, alive = (a[: len(F)] for a in arrays)
        dist = N @ P[i] - off
        seen = alive & (dist > eps * nrm)
        if not seen.any():
            continue
        start = int(np.argmax(np.where(seen, dist / nrm, -np.inf)))
        region, stack = {start}, [start]
        while stack:
            for g in nb[stack.pop()]:
                if g not in region and seen[g]:
                    region.add(g)
                    stack.append(g)
        alive[list(region)] = False
        # A cone facet lists its horizon ridge in the dead facet's cyclic
        # order from the vertex after the omitted one, then i: the same
        # orientation for odd d, and for even d when the omitted vertex sits at
        # an odd position, else two vertices swap: two ridge vertices, or in
        # d = 2, where the ridge is one vertex, that vertex and i.  The two
        # cone facets on a ridge through i meet in pending, keyed by its
        # vertices.
        pending = {}
        for f in region:
            for j, g in enumerate(nb[f]):
                if g in region:
                    continue
                ridge = F[f][j + 1 :] + F[f][:j]
                V, at = ridge + (i,), d - 1  # at: the position of i
                if d % 2 == 0 and j % 2 == 0:
                    if d == 2:
                        V, at = (i,) + ridge, 0
                    else:
                        V = (ridge[1], ridge[0]) + ridge[2:] + (i,)
                h = len(F)
                nb[g][nb[g].index(f)] = h
                links = [-1] * d
                links[at] = g
                for t in range(d):
                    if t == at:
                        continue
                    key = frozenset(V[:t] + V[t + 1 :])
                    other = pending.pop(key, None)
                    if other is None:
                        pending[key] = (h, t)
                    else:
                        links[t] = other[0]
                        nb[other[0]][other[1]] = h
                add(V, links, cofactors(rows, V))
    N, off, nrm, alive = (a[: len(F)] for a in arrays)
    return np.array(F, dtype=np.int64)[alive], N[alive], off[alive]


def _normalize(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each row of ``[A | b]`` by the gcd of its ``A`` part and drop
    repeated rows (coplanar simplices of one face)."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    g = np.gcd.reduce(A, axis=1)
    g[g == 0] = 1
    # A set of row tuples, not np.unique(axis=0), which imports numpy.ma.
    rows = np.array(sorted(set(map(tuple, np.column_stack([A // g[:, None], b // g]).tolist()))), dtype=np.int64)
    return rows[:, :-1], rows[:, -1]
