import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lce import convexity as cx
from lce import hull
from lce.errors import LceError
from lce.lattice import Box, LatticePmf, LatticeSet, support_set

from oracles import (
    envelope_minimum,
    envelope_minimum_bruteforce,
    hull_membership_bruteforce,
    is_log_concave_extensible_lp,
    zd_convex_bruteforce,
    zd_convex_lp,
)


def degenerate_points(rng, d, k, rank):
    """k integer points on a random affine subspace of dimension ``rank``."""
    base = rng.integers(0, 3, size=d)
    dirs = rng.integers(-2, 3, size=(rank, d))
    coef = rng.integers(0, 3, size=(k, rank))
    return base + coef @ dirs


def random_point_sets(rng, d, count, span):
    for trial in range(count):
        k = int(rng.integers(1, d + 5))
        if d >= 2 and trial % 3 == 0:
            yield degenerate_points(rng, d, k, rank=1 + (trial % 2) * (d - 2))  # collinear / coplanar
        else:
            yield rng.integers(0, span + 1, size=(k, d))


@pytest.mark.parametrize("d,count,span", [(1, 40, 8), (2, 120, 5), (3, 40, 2), (4, 12, 2)])
def test_hull_witnesses_match_bruteforce_and_lp(d, count, span):
    rng = np.random.default_rng(100 + d)
    for pts in random_point_sets(rng, d, count, span):
        A = LatticeSet.from_iterable(d, pts)
        rep = cx.is_zd_convex(A)
        assert rep.witnesses == zd_convex_bruteforce(A).witnesses, pts.tolist()
        assert rep.witnesses == zd_convex_lp(A, exact=False).witnesses, pts.tolist()


def test_d4_lp_route_matches_bruteforce():
    # The hull route serves d = 4 as it serves d <= 3; the rational LP
    # reference and the Caratheodory oracle must agree with it.
    rng = np.random.default_rng(44)
    outcomes = set()
    for _ in range(8):
        A = LatticeSet.from_iterable(4, rng.integers(0, 3, size=(int(rng.integers(2, 6)), 4)))
        rep = cx.is_zd_convex(A)
        assert rep == zd_convex_bruteforce(A)
        assert rep == zd_convex_lp(A)
        outcomes.add(rep.is_convex)
    assert outcomes == {True, False}


def test_self_sums_of_the_4_simplex_are_convex():
    S = LatticeSet.from_iterable(4, np.vstack([np.zeros(4, dtype=np.int64), np.eye(4, dtype=np.int64)]))
    reps = cx.check_self_sum_convexity(S, 3)
    assert [r.is_convex for r in reps] == [True, True]


# Planar sets the random draws seldom give: points between the vertices on
# every edge, repeated points, and a collinear set with repeats.
PLANAR_EXTRAS = [
    [[0, 0], [1, 0], [2, 0], [3, 0], [3, 1], [3, 3], [1, 3], [0, 3], [0, 1], [2, 2]],
    [[0, 0], [0, 0], [4, 1], [4, 1], [4, 1], [1, 3], [2, 2], [1, 3], [2, 1]],
    [[1, 1], [1, 1], [3, 2], [5, 3], [3, 2]],
]


def test_hrep_is_conv_of_its_points():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        sets = list(random_point_sets(rng, d, 30, 4))
        if d == 2:
            sets += [np.array(pts) for pts in PLANAR_EXTRAS]
        for pts in sets:
            A, b = hull.hrep(pts)
            assert np.all(pts @ A.T <= b)  # every point inside
            # every row is tight at some point: no redundant slack rows
            assert np.all((pts @ A.T == b).any(axis=0))
            assert np.all(np.gcd.reduce(A, axis=1) == 1)
            if d == 2:  # the box points inside are those the Caratheodory oracle finds
                lo, shape = pts.min(axis=0), np.ptp(pts, axis=0) + 1
                inside = hull.box_points_inside(A, b - A @ lo, shape) + lo
                box = np.indices(shape).reshape(2, -1).T + lo
                assert inside.tolist() == [z for z in box.tolist() if hull_membership_bruteforce(pts, z)]


def test_hrep_degenerate_sets_give_equalities():
    A, b = hull.hrep(np.array([[0, 0, 0], [1, 2, 3], [2, 4, 6]]))
    box = np.indices((3, 5, 7)).reshape(3, -1).T
    inside = box[np.all(box @ A.T <= b, axis=1)]
    assert inside.tolist() == [[0, 0, 0], [1, 2, 3], [2, 4, 6]]
    A, b = hull.hrep(np.array([[4, -1]]))
    near = np.array([[4, -1], [3, -1], [4, 0], [5, -2]])
    assert np.all(near @ A.T <= b, axis=1).tolist() == [True, False, False, False]


def test_hrep_rejects_what_it_cannot_decide():
    with pytest.raises(LceError):
        hull.hrep(np.array([[0.5, 0.0]]))
    with pytest.raises(LceError, match="coordinates exceed"):
        hull.hrep(np.array([[0, 0], [2**31, 2**31]]))


def test_int64_bound_holds_exactly_at_its_edge():
    # For the 4-simplex scaled by s the bound of hull._check_int64 is
    # 2 X 3! e_3 = 48 s^4 (X = s, extents s): the largest s under 2^63 is
    # decided exactly, the next one is refused with an LceError, not an
    # OverflowError from deep inside the hull.
    simplex = np.vstack([np.zeros(4, dtype=np.int64), np.eye(4, dtype=np.int64)])
    s = math.isqrt(math.isqrt((2**63 - 1) // 48))
    assert 48 * s**4 < 2**63 <= 48 * (s + 1) ** 4
    A, b = hull.hrep(s * simplex)
    want = np.column_stack([np.vstack([-np.eye(4, dtype=np.int64), np.ones(4, dtype=np.int64)]), [0, 0, 0, 0, s]])
    assert sorted(np.column_stack([A, b]).tolist()) == sorted(want.tolist())
    for P in ((s + 1) * simplex, 2**17 * simplex):
        with pytest.raises(LceError, match="coordinates exceed"):
            hull.hrep(P)
        with pytest.raises(LceError, match="coordinates exceed"):
            hull.facets(P)
    # an elongated set within BOX_ENUM_CAP stays decidable: the bound reads
    # each coordinate's own extent
    long = np.vstack([np.zeros(4, dtype=np.int64), np.diag([18_000, 2, 2, 2])])
    assert cx.is_zd_convex(LatticeSet.from_iterable(4, long)).is_convex is False


def test_square_hull_has_four_edges_without_collinear_points():
    # The facets come in the hull's own order; the point (1, 0) on the edge
    # from (0, 0) to (2, 0) and the inner point (1, 1) are no vertices.
    pts = np.array([[0, 0], [2, 0], [1, 0], [2, 2], [0, 2], [1, 1]])
    F, N, off = hull.facets(pts)
    assert len(F) == 4
    assert sorted(F.ravel().tolist()) == [0, 0, 1, 1, 3, 3, 4, 4]


def test_facets3_bound_the_hull_as_a_closed_surface():
    # Outward facets that pair up every ridge (d >= 2) and have every point
    # beneath their planes bound conv(points); flat faces must not break
    # either.  Integer input is decided exactly.
    rng = np.random.default_rng(7)
    th = 0.4
    R = np.array([[math.cos(th), -math.sin(th), 0.0], [math.sin(th), math.cos(th), 0.0], [0.0, 0.0, 1.0]])
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64)
    cube4 = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    square = np.array([[0, 0], [3, 0], [3, 3], [0, 3], [1, 0], [1, 1], [3, 2]])
    cases = [
        (rng.normal(size=(9, 1)), None),
        (rng.integers(-5, 6, size=(9, 1)), None),
        (rng.normal(size=(30, 2)), None),
        (rng.integers(-4, 5, size=(30, 2)), None),
        (square, 9.0),
        (square.astype(np.float64), 9.0),
        (rng.normal(size=(20, 3)), None),
        (rng.normal(size=(60, 3)), None),
        (rng.integers(-3, 4, size=(40, 3)), None),
        (cube @ R.T, 8.0),
        (np.vstack([cube, 0.3 * cube, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]]), 8.0),
        (np.vstack([cube, [[0, 0, 1], [1, 0, 0], [0, 0, 0]]]).astype(np.int64), 8.0),
        (rng.normal(size=(30, 4)), None),
        (rng.integers(-2, 3, size=(40, 4)), None),
        (cube4, 16.0),
        (np.vstack([cube4, 0.5 * cube4]) @ np.linalg.qr(rng.normal(size=(4, 4)))[0].T, 16.0),
        (np.vstack([cube4, [[0, 0, 0, 1], [0, 0, 0, 0]]]).astype(np.int64), 16.0),
    ]
    for P, volume in cases:
        F, N, off = hull.facets(P)
        d = P.shape[1]
        assert F.shape == N.shape == (len(off), d)
        if d == 2:  # one closed ring: each vertex ends one edge and starts the next
            assert len(set(F[:, 0].tolist())) == len(F)
            assert sorted(F[:, 0].tolist()) == sorted(F[:, 1].tolist())
        if d == 3:  # each directed edge once, and its reverse in the next triangle
            edges = [(a, b) for t in F.tolist() for a, b in zip(t, t[1:] + t[:1])]
            assert len(set(edges)) == len(edges) and set(edges) == {(b, a) for a, b in edges}
        if d >= 4:  # each ridge in exactly two facets
            ridges = Counter(frozenset(t[:j] + t[j + 1 :]) for t in F.tolist() for j in range(d))
            assert set(ridges.values()) == {2}
        height = P @ N.T - off
        if P.dtype.kind == "i":
            assert N.dtype == off.dtype == np.int64
            assert np.all(height <= 0)
            assert np.all(np.einsum("ij,ij->i", N, P[F[:, 0]]) == off)
        else:
            assert np.all(height <= 1e-9 * np.linalg.norm(N, axis=1) * np.ptp(P))
        if volume is not None:
            c = P.mean(axis=0)
            assert np.sum(off - N @ c) / math.factorial(d) == pytest.approx(volume, rel=1e-12)
    flat = [
        [[0.0], [0.0]],
        [[0, 0], [1, 1], [2, 2]],
        [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        [[0, 0, 0], [1, 2, 3], [2, 4, 6], [5, 1, 0]],
        np.zeros((5, 4)),
    ]
    for P in flat:
        with pytest.raises(LceError):
            hull.facets(np.asarray(P))


def reference_gaps(pts, heights, minimum):
    out = []
    for i in range(len(pts)):
        others, ovals = np.delete(pts, i, axis=0), np.delete(heights, i)
        feasible, mn = minimum(others, ovals, pts[i]) if len(others) else (False, None)
        out.append(max(0.0, heights[i] - mn) if feasible else 0.0)
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lifted_envelope_gaps_match_lp_and_caratheodory(d):
    rng = np.random.default_rng(7 + d)
    for trial in range(60 if d < 3 else 24):  # the d = 3 Caratheodory oracle takes about 0.2 s a set
        k = int(rng.integers(1, 13))
        pts = np.unique(rng.integers(0, 4, size=(k, d)), axis=0)
        if d >= 2 and trial % 6 == 0:  # collinear, and in d = 3 coplanar every other time
            pts = np.unique(degenerate_points(rng, d, k, rank=1 if trial % 12 else d - 1), axis=0)
        heights = rng.uniform(0.0, 3.0, len(pts))
        if trial % 4 == 0:  # convex quadratic: many exact ties on the envelope
            heights = 0.25 * np.sum(pts * pts, axis=1) + pts @ rng.normal(size=d)
        gaps = np.maximum(0.0, heights - hull.lower_envelope(pts, heights))
        exact = hull.lower_envelope(pts, [Fraction(h) for h in heights])
        lp = reference_gaps(pts.astype(np.float64), heights, envelope_minimum)
        bf = reference_gaps(pts, heights, envelope_minimum_bruteforce)
        assert np.max(np.abs(gaps - lp)) <= 1e-9
        assert np.max(np.abs(gaps - bf)) <= 1e-9
        # The Caratheodory minimum is exact and rounded once, as the exact envelope is.
        assert np.array_equal(np.maximum(0.0, heights - exact.astype(np.float64)), bf)


def test_lower_envelope_of_coplanar_lifted_points_is_the_plane():
    pts = np.array([(a, b) for a in range(3) for b in range(3)])
    heights = 0.5 + 0.25 * pts[:, 0] - 1.5 * pts[:, 1]
    assert np.allclose(hull.lower_envelope(pts, heights), heights, rtol=0, atol=1e-13)
    exact = [Fraction(1, 2) + Fraction(1, 4) * a - Fraction(3, 2) * b for a, b in pts.tolist()]
    assert hull.lower_envelope(pts, exact).tolist() == exact


def test_exact_lower_envelope_takes_chords_and_facets_in_rationals():
    # Thirds, which no float represents: on the chord of a 1-d chart, and on
    # a facet plane in d = 2.
    t = np.array([[0], [1], [2], [3]])
    env = hull.lower_envelope(t, [Fraction(0), Fraction(1), Fraction(1), Fraction(1)])
    assert env.tolist() == [0, Fraction(1, 3), Fraction(2, 3), 1]
    sq = np.array([(0, 0), (0, 3), (3, 0), (3, 3), (2, 2)])
    env = hull.lower_envelope(sq, [Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(1)])
    assert env.tolist() == [0, 0, 0, 1, Fraction(1, 3)]


def test_envelope_of_a_coplanar_support_is_that_of_its_chart():
    # Points on a plane of Z^3 are read in the coordinates of their chart, an
    # affine bijection onto a planar set: the envelope must be the 2-d
    # envelope of the same heights over the plane's own coordinates.
    rng = np.random.default_rng(3)
    uv = np.array([(a, b) for a in range(4) for b in range(3)])
    for M in ([[1, 0], [0, 1], [2, -1]], [[1, 1], [1, -1], [0, 1]]):
        pts = uv @ np.array(M).T + [1, -2, 3]
        for heights in (rng.uniform(0.0, 3.0, len(uv)), 0.25 * np.sum(uv * uv, axis=1)):
            want = hull.lower_envelope(uv, heights)
            assert np.allclose(hull.lower_envelope(pts, heights), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tilt", [0.0, 40.0])
def test_small_dip_below_a_steep_plane_is_a_vertex(tilt):
    # A dip of 1e-8 under the center of a plane must still bend the envelope:
    # the float tolerance is relative to the span but far below the gaps that
    # decide extensibility.
    pts = np.array([(a, b) for a in range(5) for b in range(5)])
    heights = tilt * pts[:, 0] - 0.5 * tilt * pts[:, 1]
    heights[12] -= 1e-8  # the point (2, 2)
    gaps = np.maximum(0.0, heights - hull.lower_envelope(pts, heights))
    lp = reference_gaps(pts.astype(np.float64), heights, envelope_minimum)
    assert gaps[6] == pytest.approx(0.5e-8, abs=1e-10)  # (1, 1) halfway to (2, 2)
    assert np.max(np.abs(gaps - lp)) <= 1e-10


def test_cocircular_gaussian_window_stays_extensible():
    # Every lattice circle of the isotropic window lifts to a coplanar set of
    # points, the degenerate case for the lifted hull.
    for half in (3, 4):
        box = Box((-half, -half), (half, half))
        grid = box.grid()
        vals = np.exp(-0.5 * np.sum(grid * grid, axis=-1) / 4.0)
        q = LatticePmf(box, vals / vals.sum())
        rep = cx.is_log_concave_extensible(q)
        assert rep.is_extensible and rep.max_gap() <= 1e-12


def random_3x3_pmfs():
    """Ten p.m.f.s on random supports in the 3 x 3 box."""
    rng = np.random.default_rng(31)
    for _ in range(10):
        vals = np.zeros(9)
        cells = rng.choice(9, size=int(rng.integers(2, 8)), replace=False)
        vals[cells] = rng.uniform(0.05, 1.0, len(cells))
        vals = vals.reshape(3, 3)
        yield LatticePmf(Box((0, 0), (2, 2)), vals / vals.sum())


def degenerate_pmfs():
    """A 1-d support, a collinear 2-d support (chart dimension 1), lifted
    points on one plane (a uniform p.m.f.) and a single point."""
    rng = np.random.default_rng(32)
    line = rng.uniform(0.05, 1.0, 9)
    diagonal = np.diag(rng.uniform(0.05, 1.0, 5))
    uniform = np.ones((3, 4))
    for vals, lo in ((line, (0,)), (diagonal, (0, 0)), (uniform, (-1, 2)), (np.ones((1, 1, 1)), (2, 0, 1))):
        yield LatticePmf(Box(lo, tuple(l + s - 1 for l, s in zip(lo, vals.shape))), vals / vals.sum())


def quadratic_3d_pmfs(n):
    """(hole, p): a convex quadratic log-mass on the n^3 box, then with noise
    that bends it, then with a hole at (1, 1, 1) in its support."""
    rng = np.random.default_rng(40 + n)
    grid = np.indices((n, n, n)).reshape(3, -1).T
    B = rng.normal(size=(3, 3))
    V = 0.5 * np.einsum("ni,ij,nj->n", grid, B.T @ B / 4.0 + 0.1 * np.eye(3), grid)
    for noise, hole in [(0.0, False), (0.3, False), (0.0, True)]:
        vals = np.exp(-(V + noise * rng.random(len(grid)) - V.min()))
        if hole:
            vals[n * n + n + 1] = 0.0  # the inner cell (1, 1, 1)
        yield hole, LatticePmf(Box((0, 0, 0), (n - 1,) * 3), vals.reshape(n, n, n) / vals.sum())


def test_extensibility_hull_route_matches_exact_lp_route():
    for p in random_3x3_pmfs():
        fast = cx.is_log_concave_extensible(p)
        exact = cx.is_log_concave_extensible(p, exact=True)
        assert exact == is_log_concave_extensible_lp(p)  # verdicts, witnesses, gaps to the bit
        assert fast.is_extensible == exact.is_extensible
        assert fast.convexity_witnesses == exact.convexity_witnesses
        for k, g in fast.envelope_gaps.items():
            assert math.isclose(g, exact.envelope_gaps[k], abs_tol=1e-9)


def test_exact_route_matches_exact_lp_route_on_degenerate_supports():
    pmfs = list(degenerate_pmfs())
    for p in pmfs:
        exact = cx.is_log_concave_extensible(p, exact=True)
        assert exact == is_log_concave_extensible_lp(p)
        assert exact.support_convex
    assert not cx.is_log_concave_extensible(pmfs[0], exact=True).is_extensible


@pytest.mark.parametrize("n", [3, 4])
def test_3d_extensibility_hull_route_matches_exact_lp_route(n):
    # A convex quadratic log-mass on the n^3 box is extensible; noise that
    # bends it, or a hole in its support, makes it not.
    outcomes = set()
    for hole, p in quadratic_3d_pmfs(n):
        fast = cx.is_log_concave_extensible(p)
        exact = cx.is_log_concave_extensible(p, exact=True)
        if n == 3 or not hole:  # the rational-LP oracle takes about 3 s on the 4^3 hole case
            assert exact == is_log_concave_extensible_lp(p)
        assert fast.is_extensible == exact.is_extensible
        assert fast.convexity_witnesses == exact.convexity_witnesses == ([(1, 1, 1)] if hole else [])
        for k, g in fast.envelope_gaps.items():
            assert math.isclose(g, exact.envelope_gaps[k], abs_tol=1e-9)
        outcomes.add(fast.is_extensible)
    assert outcomes == {True, False}


def test_exact_envelope_on_integers_is_the_rational_envelope_rounded_once():
    # The exact route scales the log-masses to integers; its envelope must be
    # the envelope of their rationals rounded once, to the bit, on every case
    # above and on the extensible 5^3 quadratic.
    cases = [*random_3x3_pmfs(), *degenerate_pmfs(), *(p for n in (3, 4) for _, p in quadratic_3d_pmfs(n)),
             next(quadratic_3d_pmfs(5))[1]]
    for p in cases:
        pts = support_set(p).points()
        vals = np.array([-math.log(p.value_at(k)) for k in pts])
        want = np.array([float(e) for e in hull.lower_envelope(pts, [Fraction(v) for v in vals])])
        assert np.array(cx._exact_envelope(pts, vals), dtype=np.float64).tobytes() == want.tobytes()
