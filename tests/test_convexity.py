import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce import convexity as cx
from lce.errors import LceError
from lce.lattice import Box, LatticePmf, LatticeSet, support_set

from oracles import (
    is_log_concave_1d,
    is_log_concave_extensible_bruteforce,
    make_uniform_on_set,
    zd_convex_bruteforce,
    zd_convex_lp,
)


def pmf_from_masses(masses, lo):
    vals = np.asarray(masses, dtype=np.float64)
    hi = tuple(l + s - 1 for l, s in zip(lo, vals.shape))
    return LatticePmf(Box(tuple(lo), hi), vals / vals.sum())


def gaussian_window(sigma, d, half):
    """Masses of N(0, sigma^2 I) on the central box [-half, half]^d, normalized."""
    box = Box((-half,) * d, (half,) * d)
    grid = box.grid()
    vals = np.exp(-0.5 * np.sum(grid * grid, axis=-1) / (sigma * sigma))
    return LatticePmf(box, vals / vals.sum())


def random_subset_pmf(rng, span=3, max_support=12):
    pts = [(a, b) for a in range(span + 1) for b in range(span + 1)]
    k = int(rng.integers(2, max_support + 1))
    idx = rng.choice(len(pts), size=k, replace=False)
    support = [pts[i] for i in idx]
    vals = np.zeros((span + 1, span + 1))
    for p in support:
        vals[p] = rng.uniform(0.05, 1.0)
    return LatticePmf(Box((0, 0), (span, span)), vals / vals.sum())


# ---------------------------------------------------------------------------
# minkowski sums


def test_minkowski_identity():
    A = LatticeSet.from_iterable(2, [(0, 0), (2, 1), (1, 3)])
    Z = LatticeSet.from_iterable(2, [(0, 0)])
    assert cx.minkowski_sum(A, Z) == A


def test_minkowski_murota_sets():
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    S2 = LatticeSet.from_iterable(2, [(0, 1), (1, 0)])
    S = cx.minkowski_sum(S1, S2)
    assert S.sorted_points() == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_minkowski_box_plus_box():
    B = LatticeSet.from_iterable(2, [(a, b) for a in (0, 1) for b in (0, 1)])
    S = cx.minkowski_sum(B, B)
    assert S.sorted_points() == [(a, b) for a in range(3) for b in range(3)]


# ---------------------------------------------------------------------------
# Z^d-convexity


def test_box_is_convex():
    B = LatticeSet.from_iterable(2, [(a, b) for a in range(3) for b in range(2)])
    assert cx.is_zd_convex(B).is_convex


def test_two_point_diagonal_is_convex():
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    assert cx.is_zd_convex(S1).is_convex


def test_murota_sum_not_convex_with_witness():
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    S2 = LatticeSet.from_iterable(2, [(0, 1), (1, 0)])
    rep = cx.is_zd_convex(cx.minkowski_sum(S1, S2))
    assert not rep.is_convex
    assert rep.witnesses == [(1, 1)]


def test_lp_route_agrees_with_bruteforce_on_random_subsets():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 10))
        pts = rng.integers(0, 6, size=(k, 2))
        A = LatticeSet.from_iterable(2, pts)
        lp = cx.is_zd_convex(A)
        bf = zd_convex_bruteforce(A)
        assert lp.is_convex == bf.is_convex
        assert lp.witnesses == bf.witnesses


def test_exact_mode_agrees():
    # hull witnesses against the exact-rational LP route
    A = LatticeSet.from_iterable(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    exact = zd_convex_lp(A)
    assert not exact.is_convex
    assert cx.is_zd_convex(A).witnesses == exact.witnesses
    R = LatticeSet.from_iterable(3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 4)])
    assert cx.is_zd_convex(R).witnesses == zd_convex_lp(R).witnesses


# ---------------------------------------------------------------------------
# extensibility


def test_extensible_midpoint_example():
    p = pmf_from_masses([0.25, 0.5, 0.25], (0,))
    rep = cx.is_log_concave_extensible(p)
    assert rep.is_extensible and rep.support_convex


def test_non_extensible_with_exact_gap():
    p = pmf_from_masses([0.4, 0.1, 0.5], (0,))
    rep = cx.is_log_concave_extensible(p)
    assert not rep.is_extensible
    expected = math.log(10) - 0.5 * (math.log(2.5) + math.log(2.0))
    assert rep.envelope_gaps[(1,)] == pytest.approx(expected, abs=1e-9)


def test_quantized_gaussian_2d_extensible():
    # central window of the quantized isotropic Gaussian: restriction of a
    # convex quadratic, so extensible; window keeps the LP sizes modest
    q = gaussian_window(2.0, 2, half=3)
    rep = cx.is_log_concave_extensible(q)
    assert rep.is_extensible


def test_fast_1d_path_equivalent():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        masses = rng.uniform(0.05, 1.0, m)
        p = pmf_from_masses(masses, (int(rng.integers(-3, 3)),))
        full = cx.is_log_concave_extensible(p)
        fast = is_log_concave_1d(p)
        assert full.is_extensible == fast.is_extensible


def test_lp_agrees_with_caratheodory_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = random_subset_pmf(rng)
        lp = cx.is_log_concave_extensible(p)
        bf = is_log_concave_extensible_bruteforce(p)
        assert lp.is_extensible == bf.is_extensible
        assert lp.support_convex == bf.support_convex
        for k, g in lp.envelope_gaps.items():
            assert g == pytest.approx(bf.envelope_gaps[k], abs=1e-7)


def test_uniform_extensible_iff_support_convex():
    convex = LatticeSet.from_iterable(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    holed = LatticeSet.from_iterable(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    assert cx.is_log_concave_extensible(make_uniform_on_set(convex)).is_extensible
    rep = cx.is_log_concave_extensible(make_uniform_on_set(holed))
    assert not rep.is_extensible and not rep.support_convex


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.floats(0.01, 100.0))
def test_scaling_invariance_of_gaps(seed, scale):
    rng = np.random.default_rng(seed)
    masses = rng.uniform(0.05, 1.0, 5)
    p = pmf_from_masses(masses, (0,))
    vals = p.values * scale
    q = LatticePmf(p.box, vals)  # unnormalized on purpose
    rp = cx.is_log_concave_extensible(p)
    rq = cx.is_log_concave_extensible(q)
    assert rp.is_extensible == rq.is_extensible
    for k in rp.envelope_gaps:
        assert rp.envelope_gaps[k] == pytest.approx(rq.envelope_gaps[k], abs=1e-12)


def test_empty_support_rejected():
    with pytest.raises(LceError):
        cx.is_log_concave_extensible(
            LatticePmf(Box((0,), (1,)), np.zeros(2)), tol=1e-9
        )


# ---------------------------------------------------------------------------
# self-sum convexity


def test_self_sum_box():
    B = LatticeSet.from_iterable(2, [(a, b) for a in (0, 1) for b in (0, 1)])
    reports = cx.check_self_sum_convexity(B, 3)
    assert all(r.is_convex for r in reports)


def test_self_sum_diagonal_pair():
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    reports = cx.check_self_sum_convexity(S1, 2)
    assert reports[0].is_convex  # collinear points, no holes


def test_self_sum_random_triangle():
    rng = np.random.default_rng(11)
    tri = LatticeSet.from_iterable(2, rng.integers(0, 6, size=(3, 2)))
    # lattice points of the triangle's hull form a convex set
    from lce.harness import _random_convex_set

    A = _random_convex_set(np.random.default_rng(5), 2, 5)
    for r in cx.check_self_sum_convexity(A, 4):
        assert r.is_convex


def test_self_sum_requires_convex_input():
    holed = LatticeSet.from_iterable(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(LceError):
        cx.check_self_sum_convexity(holed, 2)


def test_self_sum_scaled_generators_match_raw():
    # n conv(A) from the scaled facets of conv(A) equals the hull of the raw
    # n-fold sum, and the reports equal those of the raw sums
    from lce.hull import hrep

    for A in (
        LatticeSet.from_iterable(2, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
        LatticeSet.from_iterable(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    ):
        H, b = hrep(A.array())
        reports = cx.check_self_sum_convexity(A, 3)
        current = A
        for n, rep in zip((2, 3), reports):
            current = cx.minkowski_sum(current, A)
            Hn, bn = hrep(current.array())
            assert sorted(zip(map(tuple, H), n * b)) == sorted(zip(map(tuple, Hn), bn))
            raw = cx.is_zd_convex(current)
            assert rep.is_convex == raw.is_convex and rep.witnesses == raw.witnesses


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_self_sums_of_convex_planar_sets_stay_convex(seed):
    from lce.harness import _random_convex_set

    A = _random_convex_set(np.random.default_rng(seed), 2, 5)
    for r in cx.check_self_sum_convexity(A, 4):
        assert r.is_convex


def test_reeve_simplex_self_sum_has_a_hole():
    # Z^3-convex set whose twofold sum misses (1,1,1): hole-freeness is NOT
    # closed under Minkowski self-sums in d >= 3.
    R = LatticeSet.from_iterable(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert zd_convex_bruteforce(R).is_convex
    rep = cx.check_self_sum_convexity(R, 2)[0]
    assert not rep.is_convex
    assert rep.witnesses == [(1, 1, 1)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="hole-freeness is not preserved by Minkowski self-sums in d = 3 "
    "(Reeve-simplex phenomenon); random hull-lattice sets hit such cases",
)
def test_random_z3_convex_self_sums_all_convex():
    from lce.harness import _random_convex_set

    rng = np.random.default_rng(20240810 + 1)
    for _ in range(20):
        A = _random_convex_set(rng, 3, 3)
        for r in cx.check_self_sum_convexity(A, 4):
            assert r.is_convex


def test_gaussian_window_self_convolution_extensible():
    # truncated product structure: coordinates stay independent, and 1-d
    # log-concavity is closed under convolution, so the self-sum must pass
    from lce.lattice import convolve

    p = gaussian_window(2.0, 2, half=3)
    p2 = convolve(p, p)
    assert cx.is_log_concave_extensible(p2).is_extensible


def test_product_pmf_self_convolution_extensible():
    from lce.families import binomial_pmf, uniform_interval
    from lce.lattice import convolve, make_product

    p = make_product([binomial_pmf(3), uniform_interval(3)])
    p2 = convolve(p, p)
    assert cx.is_log_concave_extensible(p2).is_extensible
