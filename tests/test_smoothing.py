import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce import families, smoothing
from lce.errors import LceError
from lce.lattice import Box, LatticePmf, convolve, make_product, point_mass
from lce.moments import shannon_entropy
from lce.numerics import gauss_legendre_01
from lce.smoothing import (
    bspline_eval,
    elementary_estimate,
    entropy_like,
    smoothed_entropy_detail,
)

from oracles import neg_xlogx, shifted, smoothed_density_eval


def pmf(masses, lo=(0,)):
    vals = np.asarray(masses, dtype=np.float64)
    hi = tuple(l + s - 1 for l, s in zip(lo, vals.shape))
    return LatticePmf(Box(tuple(lo), hi), vals / vals.sum())


# ---------------------------------------------------------------------------
# kernels


def test_tent_values():
    assert bspline_eval(2, 0.5) == 0.5
    assert bspline_eval(2, 1.0) == 1.0
    assert bspline_eval(2, 1.5) == 0.5
    assert bspline_eval(2, 2.0) == 0.0
    assert bspline_eval(2, -0.1) == 0.0


def test_order3_peak():
    assert bspline_eval(3, 1.5) == 0.75


def test_kernel_integrates_to_one():
    x, w = gauss_legendre_01(32)
    for n in range(1, 7):
        total = math.fsum(
            float(np.sum(w * bspline_eval(n, k + x))) for k in range(n)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_kernel_bounded_by_one():
    xs = np.linspace(-1, 7, 4001)
    for n in range(1, 7):
        vals = bspline_eval(n, xs)
        assert np.all(vals >= 0.0)
        assert vals.max() <= 1.0
    assert bspline_eval(2, 1.0) == 1.0


def test_order_validation():
    # a fraction once recursed past order 1, and True passed as order 1
    for n in (0, 2.5, True, 13):
        with pytest.raises(LceError):
            bspline_eval(n, 0.3)


# ---------------------------------------------------------------------------
# smoothed density


def test_n1_is_floor_lookup():
    p = pmf([0.2, 0.5, 0.3])
    xs = np.array([[0.0], [0.3], [1.9], [2.5], [3.0], [-0.2]])
    expected = [0.2, 0.2, 0.5, 0.3, 0.0, 0.0]
    assert np.allclose(smoothed_density_eval(p, 1, xs), expected, atol=1e-15)


def test_point_mass_tent():
    p = point_mass((0,))
    for x, want in [(0.25, 0.25), (1.0, 1.0), (1.75, 0.25), (2.5, 0.0)]:
        assert smoothed_density_eval(p, 2, [x]) == pytest.approx(want, abs=1e-15)


def test_bilinear_cell_formula_d2():
    # on a unit cell, the twofold-smoothed density is the bilinear blend of
    # the four stencil masses; checked at the cell center
    rng = np.random.default_rng(3)
    p = pmf(rng.uniform(0.1, 1.0, (3, 3)), lo=(0, 0))
    k = (1, 1)
    x = np.array([k[0] + 0.5, k[1] + 0.5])
    t = (0.5, 0.5)
    expected = 0.0
    for s0 in (0, 1):
        for s1 in (0, 1):
            w = (t[0] if s0 == 0 else 1 - t[0]) * (t[1] if s1 == 0 else 1 - t[1])
            expected += w * p.value_at((k[0] - s0, k[1] - s1))
    assert smoothed_density_eval(p, 2, x) == pytest.approx(expected, abs=1e-14)


def test_smoothed_density_integrates_to_mass():
    from lce.numerics import adaptive_quad

    p = pmf([0.3, 0.1, 0.6])
    for n in (1, 2, 3):
        val, _ = adaptive_quad(
            lambda x: np.asarray(smoothed_density_eval(p, n, x)),
            -1.0, p.box.hi[0] + n + 1.0, rel_tol=1e-10,
        )
        assert val == pytest.approx(p.mass, abs=1e-8)


def test_kernel_cover_bound():
    rng = np.random.default_rng(4)
    p = pmf(rng.uniform(0.05, 1.0, (4, 4)), lo=(0, 0))
    pts = rng.uniform(-1, 6, size=(200, 2))
    f = smoothed_density_eval(p, 2, pts)
    for x, fv in zip(pts, f):
        k = np.floor(x).astype(int)
        cover = sum(
            p.value_at((k[0] - s0, k[1] - s1)) for s0 in (0, 1) for s1 in (0, 1)
        )
        assert fv <= cover + 1e-12


# ---------------------------------------------------------------------------
# differential entropy


def test_identity_n1_matches_shannon():
    for p in families.assorted_pmfs_1d(12):
        assert abs(smoothed_entropy_detail(p, 1).value - shannon_entropy(p)) < 1e-9


def test_point_mass_half_nat():
    assert smoothed_entropy_detail(point_mass((0,)), 2).value == pytest.approx(0.5, abs=1e-6)


def test_point_mass_one_nat_d2():
    assert smoothed_entropy_detail(point_mass((0, 0)), 2).value == pytest.approx(1.0, abs=1e-6)


def test_tensor_additivity_n3():
    h1 = smoothed_entropy_detail(point_mass((0,)), 3, tol=1e-9).value
    h2 = smoothed_entropy_detail(point_mass((0, 0)), 3, tol=1e-9).value
    assert h2 == pytest.approx(2 * h1, abs=1e-7)


def test_entropy_shift_invariance():
    p = families.binomial_pmf(5)
    h = smoothed_entropy_detail(p, 2).value
    assert smoothed_entropy_detail(shifted(p, (-3,)), 2).value == pytest.approx(h, abs=1e-10)


def test_detail_reports_refinement():
    det = smoothed_entropy_detail(point_mass((0,)), 2)
    assert det.refined_cells >= 1 and det.cells == 2
    assert det.error_estimate <= 1e-8


def test_entropy_tolerance_honored():
    p = families.uniform_interval(3)
    coarse = smoothed_entropy_detail(p, 2, tol=1e-6).value
    fine = smoothed_entropy_detail(p, 2, tol=1e-10).value
    assert coarse == pytest.approx(fine, abs=1e-6)


# ---------------------------------------------------------------------------
# elementary estimate


def test_elementary_estimate_a_equals_b():
    bound = elementary_estimate(0.3, 0.3, 0.1, 2.0, 1.0)
    assert bound == pytest.approx(0.2 * math.log(10.0), abs=1e-12)


def test_elementary_estimate_worked_example():
    a, b, mu, D, M = 0.0, 1.0 / math.e, 0.1, 1.0, 1.0
    g = abs(entropy_like(b, M) - entropy_like(a, M))
    assert g == pytest.approx(1.0 / math.e, abs=1e-12)
    bound = elementary_estimate(a, b, mu, D, M)
    expected = 0.2 * math.log(10.0) + (1.0 / math.e) * math.log(10.0 * math.e)
    assert bound == pytest.approx(expected, abs=1e-12)
    assert g <= bound


def test_elementary_estimate_domain_checks():
    with pytest.raises(LceError):
        elementary_estimate(0.0, 0.1, 0.5, 1.0, 1.0)  # mu >= 1/e
    with pytest.raises(LceError):
        elementary_estimate(0.0, 2.0, 0.1, 1.0, 1.0)  # b > D/M
    with pytest.raises(LceError):
        elementary_estimate(0.0, 0.1, 0.1, 0.5, 1.0)  # D < 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10**9),
)
def test_elementary_estimate_random_samples(seed):
    rng = np.random.default_rng(seed)
    M = math.exp(rng.uniform(0, 8))
    D = math.exp(rng.uniform(0, 8))
    hi = D / M
    a, b = hi * rng.random(), hi * rng.random()
    mu = rng.uniform(1e-12, 1 / math.e - 1e-12)
    g = abs(entropy_like(b, M) - entropy_like(a, M))
    bound = elementary_estimate(a, b, mu, D, M)
    assert g <= bound * (1 + 1e-12) + 1e-15


def test_smoothed_density_wrapper():
    # S + U_1 + U_2 for a point mass at 0 is the tent B_2 on the cells [0, 1]
    p = point_mass((0,))
    assert smoothed_density_eval(p, 2, [0.5]) == pytest.approx(0.5)
    vals = smoothed_density_eval(p, 2, [[-0.01], [0.0], [1.0], [1.99], [2.0]])
    assert np.allclose(vals, [0.0, 0.0, 1.0, 0.01, 0.0], atol=1e-12)
    with pytest.raises(LceError):
        smoothed_density_eval(p, 0, [0.5])


# ---------------------------------------------------------------------------
# blocked cell quadrature


def cell_integrals_unblocked(p, n, order):
    """The node loop of ``_cell_integrals`` over the whole array at once."""
    d = p.dim
    nodes, weights = gauss_legendre_01(order)
    kernel = [bspline_eval(n, nodes + j) for j in range(n)]
    big_shape = tuple(s + n - 1 for s in p.values.shape)
    acc = np.zeros(big_shape)
    fbuf = np.empty(big_shape)
    gbuf = np.empty(big_shape)
    for node in product(range(order), repeat=d):
        w = 1.0
        for axis in range(d):
            w *= weights[node[axis]]
        fbuf.fill(0.0)
        for j in product(range(n), repeat=d):
            c = 1.0
            for axis in range(d):
                c *= kernel[j[axis]][node[axis]]
            if c <= 0.0:
                continue
            sl = tuple(slice(ji, ji + s) for ji, s in zip(j, p.values.shape))
            fbuf[sl] += c * p.values
        gbuf.fill(0.0)
        np.log(fbuf, out=gbuf, where=fbuf > 0.0)
        np.multiply(fbuf, gbuf, out=gbuf)
        acc -= w * gbuf
    return acc


@pytest.mark.parametrize("d,rows", [(1, 1), (1, 4), (2, 1), (2, 4), (3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [8, 16])
def test_blocked_cell_integrals_match_the_unblocked_loop_bit_for_bit(monkeypatch, d, rows, n, order):
    # 13 or 5 rows, plus an n - 1 row halo, leave a short last 4-row block.
    shape = {1: (13,), 2: (13, 7), 3: (5, 3, 3)}[d]
    rng = np.random.default_rng(10 * d + n)
    vals = rng.random(shape) * (rng.random(shape) < 0.7)
    p = LatticePmf(Box((0,) * d, tuple(s - 1 for s in shape)), vals)
    big_rows = shape[0] + n - 1
    monkeypatch.setattr(smoothing, "CELLS_PER_BLOCK", rows * math.prod(s + n - 1 for s in shape[1:]))
    assert rows == 1 or big_rows % rows != 0
    got = smoothing._cell_integrals(p, n, order, smoothing._cover(p, n))
    assert got.tobytes() == cell_integrals_unblocked(p, n, order).tobytes()


def edge_pmf(case):
    """Masses at the edges of the clamped log: signed zeros, subnormals, 1.0."""
    rng = np.random.default_rng(3)
    vals = rng.random((11, 6))
    if case == "negative_zeros":
        vals[vals < 0.4] = -0.0
        vals[4] = -0.0
    elif case == "subnormals":
        vals[:, ::2] = 1e-310
        vals[1] = 5e-324
    elif case == "zero_rows":
        vals[[0, 5, 6, 10]] = 0.0
    elif case == "point_mass":
        return point_mass((2, -1))
    elif case == "chain_level":
        q = families.quantized_gaussian(4.0, 2)
        return convolve(q, q)
    elif case == "clipped_negative_zeros":  # the chain level, its clipped zeros made -0.0
        p = edge_pmf("chain_level")
        return LatticePmf(p.box, np.where(p.values == 0.0, -0.0, p.values))
    return LatticePmf(Box((0, 0), (10, 5)), vals)


@pytest.mark.parametrize(
    "case", ["negative_zeros", "subnormals", "zero_rows", "point_mass", "chain_level", "clipped_negative_zeros"]
)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [8, 16])
def test_cell_integrals_match_the_unblocked_loop_at_signed_zeros_and_subnormals(monkeypatch, case, n, order):
    p = edge_pmf(case)
    if case == "negative_zeros":
        assert np.signbit(p.values[p.values == 0.0]).all()
    if case == "chain_level":  # FFT noise clipped to zero
        assert (p.values == 0.0).any()
    monkeypatch.setattr(smoothing, "CELLS_PER_BLOCK", 3 * math.prod(s + n - 1 for s in p.values.shape[1:]))
    got = smoothing._cell_integrals(p, n, order, smoothing._cover(p, n))
    assert got.tobytes() == cell_integrals_unblocked(p, n, order).tobytes()
    assert not np.signbit(got[got == 0.0]).any()


@pytest.mark.parametrize("case", ["zero_rows", "chain_level", "clipped_negative_zeros"])
@pytest.mark.parametrize("n", [2, 3])
def test_node_loop_runs_on_the_nonzero_cover_cells_of_each_block(monkeypatch, case, n):
    p = edge_pmf(case)
    if case == "clipped_negative_zeros":
        assert (p.values == 0.0).any() and np.signbit(p.values[p.values == 0.0]).all()
    sizes = []
    xlogx = smoothing.xlogx
    monkeypatch.setattr(smoothing, "xlogx", lambda f: sizes.append(f.size) or xlogx(f))
    rows, order = 3, 8
    monkeypatch.setattr(smoothing, "CELLS_PER_BLOCK", rows * math.prod(s + n - 1 for s in p.values.shape[1:]))
    cover = smoothing._cover(p, n)
    got = smoothing._cell_integrals(p, n, order, cover)
    kept = [np.count_nonzero(cover[r0:r0 + rows]) for r0 in range(0, cover.shape[0], rows)]
    # n >= 2: every node's stencil differs from the previous node's
    assert sizes == [k for k in kept if k for _ in range(order**2)]
    skipped = got[cover == 0.0]
    assert (skipped == 0.0).all() and not np.signbit(skipped).any()
    if case == "zero_rows" and n == 3:  # the last block, row 12, covers zero input row 10 only
        assert kept[-1] == 0


@pytest.mark.parametrize("n", [1, 2])
def test_xlogx_runs_once_per_block_and_distinct_stencil(monkeypatch, n):
    calls = []
    xlogx = smoothing.xlogx
    monkeypatch.setattr(smoothing, "xlogx", lambda f: calls.append(f.shape) or xlogx(f))
    p = families.quantized_gaussian(3.0, 2)
    rows, order = 4, 8
    monkeypatch.setattr(smoothing, "CELLS_PER_BLOCK", rows * (p.values.shape[1] + n - 1))
    blocks = math.ceil((p.values.shape[0] + n - 1) / rows)
    assert blocks > 1
    smoothing._cell_integrals(p, n, order, smoothing._cover(p, n))
    # n = 1: every node's stencil is (1.0, (0, 0)); n = 2: the nodes' stencils differ.
    assert len(calls) == blocks * (1 if n == 1 else order**2)


@pytest.mark.parametrize("case", ["zero_rows", "subnormals", "point_mass"])
def test_detail_builds_the_cover_once_and_keeps_the_tiny_bound_bytes(monkeypatch, case):
    # The tiny-cell bound sums -c log c over every cell, with c = 0 where the
    # cover is not tiny: with no tiny cell, the sign of the zero is fsum's.
    p, n = edge_pmf(case), 2
    cover = smoothing._cover(p, n)
    tiny = (cover > 0.0) & (cover < smoothing.TINY_CELL_FLOOR)
    assert tiny.any() == (case == "subnormals")
    expected = math.fsum(neg_xlogx(np.where(tiny, cover, 0.0)).ravel())
    calls = []
    monkeypatch.setattr(smoothing, "_cover", lambda *a: calls.append(a) or cover)
    detail = smoothed_entropy_detail(p, n)
    assert len(calls) == 1
    assert struct.pack("<d", detail.tiny_cell_bound) == struct.pack("<d", expected)


@pytest.mark.parametrize("bad", [0, -2, 2.5, True, None])
def test_bad_n_is_an_lce_error(bad):
    with pytest.raises(LceError, match="^n must be an integer >= 1"):
        smoothed_entropy_detail(point_mass((0,)), bad)


@pytest.mark.parametrize("bad", [0.0, -1e-9, math.inf, -math.inf, math.nan])
def test_bad_tol_is_an_lce_error(bad):
    with pytest.raises(LceError, match="^tol must be a finite positive number"):
        smoothed_entropy_detail(point_mass((0,)), 2, tol=bad)
