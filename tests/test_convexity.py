import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce import convexity as cx
from lce.errors import LceError
from lce.families import quantized_gaussian
from lce.harness import _random_convex_set
from lce.hull import hrep
from lce.lattice import Box, LatticePmf, LatticeSet, convolve, support_set

from oracles import (
    is_log_concave_1d,
    is_log_concave_extensible_bruteforce,
    make_uniform_on_set,
    minkowski_sum_pairwise,
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
# minkowski sums (the pairwise oracle that checks the self-sum masks)


def test_minkowski_identity():
    A = LatticeSet.from_iterable(2, [(0, 0), (2, 1), (1, 3)])
    Z = LatticeSet.from_iterable(2, [(0, 0)])
    assert minkowski_sum_pairwise(A, Z).points().tolist() == A.points().tolist()


def test_minkowski_murota_sets():
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    S2 = LatticeSet.from_iterable(2, [(0, 1), (1, 0)])
    S = minkowski_sum_pairwise(S1, S2)
    assert S.points().tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_minkowski_box_plus_box():
    B = LatticeSet.from_iterable(2, [(a, b) for a in (0, 1) for b in (0, 1)])
    S = minkowski_sum_pairwise(B, B)
    assert S.points().tolist() == [[a, b] for a in range(3) for b in range(3)]


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
    rep = cx.is_zd_convex(minkowski_sum_pairwise(S1, S2))
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
    A = _random_convex_set(np.random.default_rng(5), 2, 5)
    for r in cx.check_self_sum_convexity(A, 4):
        assert r.is_convex


def test_self_sum_requires_convex_input():
    holed = LatticeSet.from_iterable(2, [(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(LceError):
        cx.check_self_sum_convexity(holed, 2)


REEVE = LatticeSet.from_iterable(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
# d = 2 draws as in the sweep (span 5), d = 3 draws as in its opt-in half (span 3)
SELF_SUM_DRAWS = [(2, 5, seed) for seed in range(6)] + [(3, 3, seed) for seed in range(6)]


@pytest.mark.parametrize(
    "A",
    [_random_convex_set(np.random.default_rng(seed), d, span) for d, span, seed in SELF_SUM_DRAWS] + [REEVE],
    ids=[f"d{d}_span{span}_seed{seed}" for d, span, seed in SELF_SUM_DRAWS] + ["reeve"],
)
def test_self_sum_scaled_generators_match_raw(A):
    # n conv(A) from the scaled facets of conv(A) equals the hull of the
    # pairwise n-fold sum, and each report, built from the indicator masks,
    # equals the decision on that sum
    H, b = hrep(A.points())
    reports = cx.check_self_sum_convexity(A, 4)
    assert len(reports) == 3
    current = A
    for n, rep in zip((2, 3, 4), reports):
        current = minkowski_sum_pairwise(current, A)
        Hn, bn = hrep(current.points())
        assert sorted(zip(map(tuple, H), n * b)) == sorted(zip(map(tuple, Hn), bn))
        raw = cx.is_zd_convex(current)
        assert rep.is_convex == raw.is_convex and rep.witnesses == raw.witnesses


def test_self_sum_box_cap_is_checked_before_the_sum(monkeypatch):
    # gcd(400, 401) = 1, so the segment holds no other lattice point: A is
    # convex on a box of 161,202 cells, and the box of 2A has 643,203
    A = LatticeSet.from_iterable(2, [(0, 0), (400, 401)])
    monkeypatch.setattr(cx, "_convolve_direct", lambda *args: pytest.fail("summed past the cap"))
    with pytest.raises(LceError, match="bounding box has 643203 cells, cap is 500000"):
        cx.check_self_sum_convexity(A, 2)


def test_caps_are_checked_before_a_large_support_is_built():
    # the sigma = 16, n = 2 chain level: a 769^2 box, most of it positive
    g = quantized_gaussian(16.0, 2)
    p = convolve(g, g)
    tracemalloc.start()
    try:
        A = support_set(p)
        peak = tracemalloc.get_traced_memory()[1]
        cells = A.bounding_box().ncells
        with pytest.raises(LceError, match=f"^support size {len(A)} exceeds cap {cx.SUPPORT_CAP}$"):
            cx.is_log_concave_extensible(p)
        with pytest.raises(LceError, match=f"^bounding box has {cells} cells, cap is {cx.BOX_ENUM_CAP}$"):
            cx.is_zd_convex(A)
        with pytest.raises(LceError, match=f"^bounding box has {cells} cells, cap is {cx.BOX_ENUM_CAP}$"):
            cx.check_self_sum_convexity(A, 2)
        refused_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(A) > cx.SUPPORT_CAP and cells > cx.BOX_ENUM_CAP
    assert peak < 8 * 2**20 and refused_peak < 8 * 2**20


def test_self_sums_of_a_quantized_gaussian_support_stay_small():
    # 625 support points: the masks of the 2- and 3-fold sums have 2401 and
    # 5329 cells, while the pair sums of A and 2A alone are 1.5M points
    A = support_set(quantized_gaussian(1.0, 2))
    tracemalloc.start()
    try:
        reports = cx.check_self_sum_convexity(A, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.is_convex for r in reports)
    assert peak < 8 * 2**20


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_self_sums_of_convex_planar_sets_stay_convex(seed):
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
