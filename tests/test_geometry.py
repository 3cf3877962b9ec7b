import math

import numpy as np
import pytest

from lce import geometry as geo
from lce import harness
from lce.densities import gaussian
from lce.errors import LceError
from lce.hull import facets
from lce.numerics import unit_directions

from oracles import hpoly_moments_mc, hull_membership


# ---------------------------------------------------------------------------
# inclusion constants


def test_inclusion_constants_worked_example():
    ic = geo.inclusion_constants(2, 2, 3)
    assert ic.lower == pytest.approx(math.sqrt(2.0) / 6.0 ** (1.0 / 3.0), abs=1e-12)
    assert ic.lower == pytest.approx(0.77827, abs=1e-4)
    assert ic.upper == pytest.approx(math.exp(1.0 / 3.0), abs=1e-12)


def test_inclusion_constants_tend_to_one():
    ic = geo.inclusion_constants(3, 2.0, 2.0 + 1e-3)
    assert ic.lower == pytest.approx(1.0, abs=2e-3)
    assert ic.upper == pytest.approx(1.0, abs=2e-3)
    assert 0.0 < ic.lower <= 1.0 <= ic.upper


def test_inclusion_constants_validation():
    with pytest.raises(LceError):
        geo.inclusion_constants(2, 3, 2)


# ---------------------------------------------------------------------------
# ball-body radial functions


def test_gaussian_radial_sqrt2():
    dirs = unit_directions(2, 64)
    radii = geo.ball_body_radial(gaussian(1.0, 2), 2.0, dirs)
    assert float(np.abs(radii - math.sqrt(2.0)).max()) < 1e-6
    assert radii.shape == (64,) and not radii.flags.writeable


def test_radial_closed_form_various_p():
    # rho^p = sigma^p 2^(p/2) Gamma(p/2 + 1) for the isotropic Gaussian
    f = gaussian(1.5, 2)
    for p in (1.0, 2.0, 3.0, 4.0):
        radii = geo.ball_body_radial(f, p, unit_directions(2, 4))
        expected = (1.5**p * 2 ** (p / 2.0) * math.gamma(p / 2.0 + 1.0)) ** (1.0 / p)
        assert radii[0] == pytest.approx(expected, rel=1e-9)


def test_radial_scaling_homogeneity():
    dirs = unit_directions(2, 8)
    r1 = geo.ball_body_radial(gaussian(1.0, 2), 2.0, dirs)
    r3 = geo.ball_body_radial(gaussian(3.0, 2), 2.0, dirs)
    assert np.allclose(r3 / r1, 3.0, rtol=1e-9)


def test_radial_isotropy_spread():
    radii = geo.ball_body_radial(gaussian(1.0, 2), 3.0, unit_directions(2, 64))
    assert float(radii.max() / radii.min() - 1.0) < 1e-8


def test_radial_refuses_directions_that_are_not_unit_vectors():
    with pytest.raises(LceError, match="directions must be unit vectors"):
        geo.ball_body_radial(gaussian(1.0, 2), 2.0, [[1.0, 0.0], [1.0, 1.0]])


def test_inclusion_chain_on_gaussian():
    chk = geo.check_inclusions(gaussian(1.0, 2), 2.0, 3.0, unit_directions(2, 64))
    assert chk.passed
    assert chk.lower <= chk.min_ratio <= chk.max_ratio <= chk.upper


# ---------------------------------------------------------------------------
# bodies: volumes, moments, membership


def test_body_volumes():
    assert geo.body_moments(geo.make_cube(3)).volume == pytest.approx(1.0)
    assert geo.body_moments(geo.make_ball(2, 2.0)).volume == pytest.approx(4 * math.pi)
    assert geo.body_moments(geo.make_ellipsoid([1.0, 2.0])).volume == pytest.approx(2 * math.pi)
    assert geo.body_moments(geo.make_simplex(3)).volume == pytest.approx(1.0 / 6.0)


def test_vpoly_volume_and_moments_match_closed_forms():
    sq = geo.make_vpoly([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    mom = geo.body_moments(sq)
    assert mom.volume == pytest.approx(4.0)
    assert np.allclose(mom.second_moment, np.eye(2) / 3.0, atol=1e-12)
    cube = geo.make_vpoly([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    mom3 = geo.body_moments(cube)
    assert mom3.volume == pytest.approx(1.0)
    assert np.allclose(mom3.second_moment, np.eye(3) / 12.0, atol=1e-12)
    # face centres and the origin are not vertices; the facet triangulation
    # must not count them as corners
    corners = [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)]
    faces = [[s * (i == 0), s * (i == 1), s * (i == 2)] for i in range(3) for s in (-0.5, 0.5)]
    K = geo.make_vpoly(corners + faces + [[0.0, 0.0, 0.0]])
    mom4 = geo.body_moments(K)
    assert mom4.volume == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mom4.barycenter, 0.0, atol=1e-12)
    assert np.allclose(mom4.second_moment, np.eye(3) / 12.0, atol=1e-12)


def test_vpoly_rotation_invariance():
    theta = 0.7
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    verts = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    K = geo.make_vpoly(verts @ R.T)
    assert geo.body_moments(K).volume == pytest.approx(4.0, abs=1e-12)
    rep = geo.radius_bounds_check(geo.scale_to_unit_volume(K))
    ref = geo.radius_bounds_check(geo.scale_to_unit_volume(geo.make_vpoly(verts)))
    assert rep.inradius == pytest.approx(ref.inradius, abs=1e-12)
    assert rep.circumradius == pytest.approx(ref.circumradius, abs=1e-12)
    assert rep.lambda_min == pytest.approx(ref.lambda_min, abs=1e-12)


def test_hpoly_support_and_exact_moments():
    # the square [-1, 1]^2 as an h-polytope: volume 4, second moment I/3
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    K = geo.make_hpoly(A, b)
    assert geo.body_support(K, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    mom = geo.body_moments(K)
    assert abs(mom.volume - 4.0) <= 1e-12
    assert np.abs(mom.barycenter).max() <= 1e-12
    assert np.abs(mom.second_moment - np.eye(2) / 3.0).max() <= 1e-12
    # the unit cube [-1/2, 1/2]^3 with a redundant row x + y + z <= 2, and
    # with a row x + y + z <= 3/2 that touches the corner (1/2, 1/2, 1/2)
    for extra in (2.0, 1.5):
        A = np.vstack([np.eye(3), -np.eye(3), np.ones((1, 3))])
        mom = geo.body_moments(geo.make_hpoly(A, [0.5] * 6 + [extra]))
        assert abs(mom.volume - 1.0) <= 1e-12
        assert np.abs(mom.barycenter).max() <= 1e-12
        assert np.abs(mom.second_moment - np.eye(3) / 12.0).max() <= 1e-12


def test_hpoly_moments_match_the_monte_carlo_oracle():
    # random h-polytopes in d = 2 and 3: origin-symmetric ones, and
    # asymmetric ones that a box of side 4 keeps bounded; volume, barycenter
    # and second moment within 4 standard errors of rejection sampling
    rng = np.random.default_rng(19)
    for d in (2, 3):
        for symmetric in (True, False):
            A = rng.normal(size=(3 * d, d))
            A /= np.linalg.norm(A, axis=1, keepdims=True)
            b = rng.uniform(0.5, 1.5, size=3 * d)
            if symmetric:
                A, b = np.vstack([A, -A]), np.concatenate([b, b])
            else:
                A, b = np.vstack([A, np.eye(d), -np.eye(d)]), np.concatenate([b, np.full(2 * d, 2.0)])
            mom = geo.body_moments(geo.make_hpoly(A, b))
            (vol, vol_se), (mean, mean_se), (M, M_se) = hpoly_moments_mc(A, b, seed=d)
            assert abs(mom.volume - vol) <= 4.0 * vol_se
            assert np.all(np.abs(mom.barycenter - mean) <= 4.0 * mean_se)
            assert np.all(np.abs(mom.second_moment - M) <= 4.0 * M_se)


def test_unbounded_hpoly_is_refused():
    # a strip open downwards (the polar points have the origin on an edge),
    # and a slab whose rows span a line only
    for A, b in (([[1, 0], [0, 1], [-1, 0]], [1, 1, 1]), ([[1, 0], [-1, 0]], [1, 1])):
        K = geo.make_hpoly(A, b)
        with pytest.raises(LceError, match="h-polytope is unbounded"):
            geo.body_moments(K)
        with pytest.raises(LceError, match="h-polytope is unbounded"):
            geo.body_circumradius(K)


def facet_membership(K, pts) -> np.ndarray:
    """Membership in a simplex or v-polytope K by the unit-normalized rows
    ``A x <= b`` of its hull facets, which its inradius reads."""
    _, N, off = facets(np.asarray(K.data[0], dtype=np.float64))
    nrm = np.linalg.norm(N, axis=1)
    return np.all(np.atleast_2d(pts) @ (N / nrm[:, None]).T <= off / nrm + 1e-12, axis=1)


def test_membership_closed_forms():
    K = geo.make_simplex(2)
    assert np.allclose(geo.body_moments(K).barycenter, 0.0, atol=1e-15)
    inside = facet_membership(K, np.array([[0.0, 0.0]]))
    assert bool(inside[0])


def test_vpoly_membership_matches_lp_oracle():
    rng = np.random.default_rng(2024)

    def check(V):
        d = V.shape[1]
        K = geo.make_vpoly(V)
        # random points, the vertices, and boundary points that are not
        # vertices: edge midpoints and (in 3-d) facet centroids
        F = facets(V)[0]
        if d == 2:
            on_face = V[F].mean(axis=1)
        else:
            on_face = np.vstack([V[F].mean(axis=1), (V[F[:, 0]] + V[F[:, 1]]) / 2.0])
        Z = np.vstack([1.5 * rng.normal(size=(40, d)), V, on_face])
        got = facet_membership(K, Z)
        want = np.array([hull_membership(V, z) for z in Z])
        assert np.array_equal(got, want)
        assert got[-len(on_face):].all()

    for d in (2, 3):
        for trial in range(6):
            check(rng.normal(size=(rng.integers(d + 2, 16), d)))
    # a rotated square with points between its corners on every edge, and
    # two corners repeated
    th = 0.3
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    ring = [[-1, -1], [0, -1], [1, -1], [1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [1, 1]]
    check(0.8 * np.array(ring, dtype=np.float64) @ R.T + 0.1)


def test_vpoly_fan_moments_match_the_simplex_closed_form():
    # Independent oracle for the facet fan: a simplex given by its vertices
    # has the Dirichlet closed form, also after an affine map x -> A x + c,
    # which scales the volume by |det A| and maps the centred second moment
    # M to A M A^T.  A is a rotation times axis scales in [0.5, 2], so that
    # rounding the mapped vertices stays far below the tolerance.
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        S = geo.make_simplex(d)
        ref = geo.body_moments(S)
        V = np.asarray(S.data[0])
        maps = [(np.eye(d), np.zeros(d))]
        for _ in range(5):
            Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            maps.append((Q * rng.uniform(0.5, 2.0, size=d), rng.normal(size=d)))
        for A, c in maps:
            mom = geo.body_moments(geo.make_vpoly(V @ A.T + c))
            bary = A @ ref.barycenter + c
            cov = A @ (ref.second_moment - np.outer(ref.barycenter, ref.barycenter)) @ A.T
            assert mom.volume == pytest.approx(abs(np.linalg.det(A)) * ref.volume, rel=1e-14, abs=0.0)
            assert np.abs(mom.barycenter - bary).max() <= 1e-14 * (1.0 + np.abs(bary).max())
            centred = mom.second_moment - np.outer(mom.barycenter, mom.barycenter)
            assert np.abs(centred - cov).max() <= 1e-14 * (1.0 + np.abs(bary).max() ** 2)


def test_vpoly_of_dimension_zero_is_rejected():
    with pytest.raises(LceError, match="dimension must be an integer"):
        geo.BODIES.from_spec("vpoly{vertices=[[]]}")


def test_vpoly_membership_beyond_d3_raises():
    # d = 4 membership reads the hull facets as d <= 3 does, and nothing
    # raises: the LP oracle must agree on convex combinations of the
    # vertices, the same pushed out from the vertex mean, the vertices and
    # the facet centroids.
    rng = np.random.default_rng(4)
    V = np.vstack([np.zeros(4), np.eye(4), 0.4 * rng.normal(size=(6, 4)) + 0.2])
    K = geo.make_vpoly(V)
    F = facets(V)[0]
    inner = rng.dirichlet(np.ones(len(V)), size=30) @ V
    c = V.mean(axis=0)
    Z = np.vstack([inner, c + 2.0 * (inner - c), V, V[F].mean(axis=1)])
    got = facet_membership(K, Z)
    assert np.array_equal(got, [hull_membership(V, z) for z in Z])
    assert got[:30].all() and not got[30:60].all() and got[60:].all()


def test_scaled_simplex_is_vpoly_with_scaled_moments():
    for d in (2, 3):
        K = geo.make_simplex(d)
        M = geo.body_moments(K).second_moment
        for t in (0.5, 2.0, 3.0):
            S = geo.scale_body(K, t)
            assert S.kind == "vpoly"
            mom = geo.body_moments(S)
            assert mom.volume == pytest.approx(t**d / math.factorial(d), rel=1e-12)
            assert np.allclose(mom.barycenter, 0.0, atol=1e-12)
            assert np.allclose(mom.second_moment, t * t * M, atol=1e-12)


# ---------------------------------------------------------------------------
# second-moment chain


def test_kls_ball_closed_form():
    for d in (2, 3):
        R = 1.3
        (rep,) = geo.kls_second_moment_check(geo.make_ball(d, R), np.eye(d)[0])
        assert rep.mid == pytest.approx(R * R / (d + 2.0), abs=1e-12)
        assert rep.chain_holds(tol=1e-9)
        assert rep.lhs <= rep.mid <= rep.rhs


def test_kls_cube_e1():
    (rep,) = geo.kls_second_moment_check(geo.make_cube(2), [1.0, 0.0])
    assert rep.mid == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert rep.lhs == pytest.approx(0.25 / 8.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.25 / 2.0, abs=1e-12)


def test_kls_chain_homogeneous_under_scaling():
    u = np.array([0.3, -0.9])
    (r1,) = geo.kls_second_moment_check(geo.make_ball(2, 1.0), u)
    (r2,) = geo.kls_second_moment_check(geo.make_ball(2, 2.0), u)
    assert r2.lhs == pytest.approx(4 * r1.lhs, rel=1e-12)
    assert r2.mid == pytest.approx(4 * r1.mid, rel=1e-12)
    assert r2.rhs == pytest.approx(4 * r1.rhs, rel=1e-12)


def test_kls_simplex_exact_including_equality_direction():
    for d in (2, 3):
        K = geo.make_simplex(d)
        reps = geo.kls_second_moment_check(K, [np.eye(d)[0], np.ones(d)])
        assert len(reps) == 2
        assert all(rep.chain_holds(tol=1e-9) for rep in reps)


def test_kls_random_hpoly_holds_if_symmetric_and_is_refused_if_not_centered():
    rng = np.random.default_rng(123)
    for d in (2, 3):
        m = 3 * d
        A = rng.normal(size=(m, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = rng.uniform(0.5, 1.5, size=m)
        K = geo.make_hpoly(np.vstack([A, -A]), np.concatenate([b, b]))
        (rep,) = geo.kls_second_moment_check(K, rng.normal(size=d))
        assert rep.chain_holds(tol=1e-9)
        shifted = geo.make_hpoly(np.vstack([A, -A]), np.concatenate([b, 0.5 * b]))
        with pytest.raises(LceError, match="body is not centered"):
            geo.kls_second_moment_check(shifted, rng.normal(size=d))


def test_kls_rejects_uncentered():
    K = geo.make_box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(LceError):
        geo.kls_second_moment_check(K, [1.0, 0.0])


def test_geom_kls_computes_moments_once_per_body(monkeypatch):
    hulls, supports = [], []
    support = geo._hpoly_support
    monkeypatch.setattr(geo, "facets", lambda P: hulls.append(P) or facets(P))
    monkeypatch.setattr(geo, "_hpoly_support", lambda K, u: supports.append(K) or support(K, u))
    rows = harness.check_geom_kls(harness.RunContext(harness.default_config()))
    assert all(r.status == harness.PASS for r in rows)
    # two h-polytopes, in d = 2 and d = 3: one hull record each, which takes
    # its vertices from the hull of the polar points and then builds their
    # hull; the simplices read their stored vertices and closed form and
    # build none; and one support LP per direction (3 each)
    polar, vertex_sets = hulls[0::2], hulls[1::2]
    assert len(polar) == len(vertex_sets) == 2
    for P, V in zip(polar, vertex_sets):
        _, N, off = facets(P)
        assert np.array_equal(V, N / off[:, None])
    assert len(supports) == 3 + 3 and len(set(supports)) == 2


# ---------------------------------------------------------------------------
# radius bounds


def test_radius_bounds_cube_numbers():
    rep = geo.radius_bounds_check(geo.make_cube(2))
    assert rep.inradius == pytest.approx(0.5)
    assert rep.circumradius == pytest.approx(math.sqrt(2.0) / 2.0)
    assert rep.lambda_min == pytest.approx(1.0 / 12.0)
    # 0.5 >= sqrt(2) * sqrt(1/12) ~ 0.408 and 0.707 <= 3 / sqrt(12) ~ 0.866
    assert rep.holds()
    rep3 = geo.radius_bounds_check(geo.make_cube(3))
    assert rep3.holds()


def test_radius_bounds_unit_volume_ball():
    rep = geo.radius_bounds_check(geo.scale_to_unit_volume(geo.make_ball(2)))
    r = 1.0 / math.sqrt(math.pi)
    assert rep.inradius == pytest.approx(r, abs=1e-12)
    assert rep.circumradius == pytest.approx(r, abs=1e-12)
    assert rep.lambda_max == pytest.approx(r * r / 4.0, abs=1e-12)
    assert rep.holds()


def test_radius_bounds_requires_unit_volume():
    with pytest.raises(LceError):
        geo.radius_bounds_check(geo.make_ball(2, 2.0))


def test_radius_bounds_ellipsoid():
    K = geo.scale_to_unit_volume(geo.make_ellipsoid([1.0, 3.0]))
    rep = geo.radius_bounds_check(K)
    assert rep.holds()


def test_radius_bounds_simplex_is_the_inradius_equality_case():
    for d in (2, 3):
        rep = geo.radius_bounds_check(geo.scale_to_unit_volume(geo.make_simplex(d)))
        assert rep.holds()
        assert abs(rep.inradius_margin) < 1e-12


def test_radius_bounds_vpoly_cube_3d():
    K = geo.make_vpoly([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    rep = geo.radius_bounds_check(geo.scale_to_unit_volume(K))
    assert rep.inradius == pytest.approx(0.5, abs=1e-12)
    assert rep.circumradius == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert rep.holds()


# ---------------------------------------------------------------------------
# registry


def test_body_from_spec():
    K = geo.BODIES.from_spec("ball{d=3,radius=2}")
    assert K == geo.make_ellipsoid([2.0, 2.0, 2.0])
    E = geo.BODIES.from_spec("ellipsoid{axes=[1,2]}")
    assert E.dim == 2
    with pytest.raises(LceError):
        geo.BODIES.from_spec("dodecahedron{d=3}")


def test_inclusion_chain_laplace_2d():
    from lce.densities import laplace_product

    f = laplace_product(1.0, 2)
    for (p, q) in ((2.0, 3.0), (2.0, 4.0), (3.0, 4.0)):
        chk = geo.check_inclusions(f, p, q, unit_directions(2, 32))
        assert chk.passed
