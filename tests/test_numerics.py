import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lce import moments, numerics
from lce.errors import NumericalError
from lce.moments import CovarianceMatrix, MomentSummary, isotropy_score
from lce.numerics import (
    adaptive_quad,
    gauss_legendre_01,
    next_pow2,
    stable_sum,
    stable_sum_rows,
    unit_directions,
    xlogx,
)

from oracles import rate_envelope_ok


def test_stable_sum_is_exactly_rounded():
    # classic cancellation case: naive summation loses the tiny term
    vals = [1e16, 1.0, -1e16]
    assert stable_sum(np.array(vals)) == 1.0


def test_stable_sum_order_independent():
    rng = np.random.default_rng(0)
    a = rng.random(10000) * np.exp(rng.uniform(-30, 30, 10000))
    assert stable_sum(a) == stable_sum(a[::-1].copy())


def outcome(summer, values):
    """The result's bytes (so the sign of zero counts), or the exception type."""
    try:
        return struct.pack("<d", summer(values))
    except (OverflowError, ValueError) as exc:  # fsum: overflow, or inf - inf
        return type(exc)


# m * 2^e with e in [-1029, 996]: magnitudes from 1e-310 to 1e300, log-uniform,
# subnormals included.
spread = st.builds(lambda m, e, neg: math.ldexp(-m if neg else m, e),
                   st.floats(0.5, 1.0, exclude_max=True), st.integers(-1029, 996), st.booleans())
edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 2.0**-53,
                         1.7976931348623157e308, -1.7976931348623157e308, 2.0**1000])
finite = st.one_of(spread, st.floats(allow_nan=False, allow_infinity=False), edges)


def oracle_case(xs, cancel, rnd):
    if cancel:  # exact cancellation: every value and its negation
        xs = xs + [-x for x in xs]
        rnd.shuffle(xs)
    return np.array(xs, dtype=np.float64), xs


@settings(max_examples=600, deadline=None)
@given(st.lists(finite, max_size=60), st.booleans(), st.randoms(use_true_random=False))
@example([-0.0, -0.0], False, random.Random(0))  # fsum decides the sign of a zero sum
def test_stable_sum_is_bit_equal_to_fsum(xs, cancel, rnd):
    # Huge values make fsum overflow; stable_sum must raise the same way.
    a, xs = oracle_case(xs, cancel, rnd)
    assert outcome(stable_sum, a) == outcome(math.fsum, xs)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, max_size=20), st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1,
                                                max_size=3), st.booleans(), st.randoms(use_true_random=False))
def test_stable_sum_is_bit_equal_to_fsum_on_non_finite_input(xs, specials, cancel, rnd):
    a, xs = oracle_case(xs + specials, cancel, rnd)
    assert outcome(stable_sum, a) == outcome(math.fsum, xs)


def assert_blocked_sums_match_fsum(block, a, xs):
    # Blocks of 1, 3 or 7 values put block boundaries everywhere.  The mapped
    # sums (negated, and over rows of two) must fall back to fsum of the
    # mapped values, in C order.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_SUM_BLOCK", block)
        assert outcome(stable_sum, a) == outcome(math.fsum, xs)
        negated = [-x for x in xs]
        assert outcome(lambda v: stable_sum_rows(lambda rows: -v[rows], v.shape), a) == outcome(math.fsum, negated)
        if a.size % 2 == 0:
            pairs = a.reshape(-1, 2)
            assert outcome(lambda v: stable_sum_rows(lambda rows: -v[rows], v.shape), pairs) == \
                outcome(math.fsum, negated)


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(max_examples=200, deadline=None)
@given(xs=st.lists(finite, max_size=60), cancel=st.booleans(), rnd=st.randoms(use_true_random=False))
@example(xs=[-0.0, -0.0, -0.0, -0.0], cancel=False, rnd=random.Random(0))
def test_blocked_sums_are_bit_equal_to_fsum(block, xs, cancel, rnd):
    a, xs = oracle_case(xs, cancel, rnd)
    assert_blocked_sums_match_fsum(block, a, xs)


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(max_examples=100, deadline=None)
@given(xs=st.lists(finite, max_size=20), specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                                                           min_size=1, max_size=3),
       cancel=st.booleans(), rnd=st.randoms(use_true_random=False))
def test_blocked_sums_are_bit_equal_to_fsum_on_non_finite_input(block, xs, specials, cancel, rnd):
    a, xs = oracle_case(xs + specials, cancel, rnd)
    assert_blocked_sums_match_fsum(block, a, xs)


def binned_sizes(monkeypatch):
    """Record the size of every block that reaches the exponent bins."""
    sizes, bin_ = [], numerics._bin
    monkeypatch.setattr(numerics, "_bin", lambda a, bins: sizes.append(a.size) or bin_(a, bins))
    return sizes


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(max_examples=200, deadline=None)
@given(xs=st.lists(finite, max_size=60))
def test_filtered_sums_of_one_sign_are_bit_equal_to_fsum(block, xs):
    # Subnormals, 2^1000 and the float max, all of one sign, and negated by
    # the helper: the filter takes each block, and a sum that could overflow
    # goes to fsum.
    xs = [abs(x) for x in xs]
    assert_blocked_sums_match_fsum(block, np.array(xs, dtype=np.float64), xs)


@pytest.mark.parametrize("xs, expected", [
    ([1.0, 2.0**-53], 1.0),  # an exact midpoint: ties to even
    ([2.0**-53, 1.0], 1.0),
    ([1.0, 2.0**-53, 2.0**-1000], 1.0 + 2.0**-52),  # just above one
    ([-1.0, -(2.0**-53), -(2.0**-1000)], -1.0 - 2.0**-52),
    ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # a midpoint that rounds up, to even
])
def test_filter_leaves_sums_at_a_rounding_midpoint_to_the_bins(monkeypatch, xs, expected):
    # The exact sum lies within the filter's slack of a midpoint, so its two
    # ends round apart: the blocks the filter took are binned again.
    sizes = binned_sizes(monkeypatch)
    assert stable_sum(np.array(xs)) == math.fsum(xs) == expected
    assert sizes == [len(xs)]


def test_filter_decides_the_one_sign_sums_of_an_entropy_chain_level(monkeypatch):
    # S_2 of a quantized Gaussian of sigma 16 on Z^2, 769^2 cells: the mass,
    # the entropy and both variances have terms of one sign and are decided
    # by the filter; the two means and the cross covariance cancel, and go to
    # the bins.  Every value is fsum of its terms, in C order.
    from lce.families import quantized_gaussian
    from lce.lattice import convolve
    from lce.moments import discrete_moments, shannon_entropy

    p = quantized_gaussian(16.0, 2)
    s2 = convolve(p, p)
    sizes = binned_sizes(monkeypatch)
    rows_sum, routes = numerics.stable_sum_rows, []

    def traced(term, shape):
        before = len(sizes)
        value = rows_sum(term, shape)
        terms = np.asarray(term(slice(0, shape[0])), dtype=np.float64).ravel()
        assert struct.pack("<d", value) == struct.pack("<d", math.fsum(terms))
        routes.append("bins" if len(sizes) > before else "filter")
        return value

    monkeypatch.setattr(numerics, "stable_sum_rows", traced)
    monkeypatch.setattr(moments, "stable_sum_rows", traced)
    shannon_entropy(s2)
    discrete_moments(s2)
    # mass, entropy, mean_0, mean_1, cov_00, cov_01, cov_11
    assert routes == ["filter", "filter", "bins", "bins", "filter", "bins", "filter"]


def no_fsum(values):
    raise AssertionError("math.fsum was called")


@pytest.mark.parametrize("block", [1, 3, 7])
def test_blocked_sum_edge_cases(monkeypatch, block):
    monkeypatch.setattr(numerics, "_SUM_BLOCK", block)
    fsum = math.fsum
    # All -0.0 over several blocks: fsum decides the sign of the zero.
    assert struct.pack("<d", stable_sum(np.full(10, -0.0))) == struct.pack("<d", fsum([-0.0] * 10))
    # Each value and its negation in different blocks: +0.0, with no fsum.
    x = np.array([1.0, 2.0**-60, 3e10, 5e-324, 7.25])
    with monkeypatch.context() as m:
        m.setattr(numerics.math, "fsum", no_fsum)
        assert struct.pack("<d", stable_sum(np.concatenate((x, -x)))) == struct.pack("<d", 0.0)
        assert struct.pack("<d", stable_sum(np.concatenate((-x, [0.0] * 4, x)))) == struct.pack("<d", 0.0)
    # A nan or inf in the last block only: fsum gets every value, in order.
    for special in (math.nan, math.inf, -math.inf):
        a = np.random.default_rng(1).random(20)
        a[-1] = special
        seen = []
        monkeypatch.setattr(numerics.math, "fsum", lambda values: seen.extend(values) or fsum(seen))
        assert outcome(stable_sum, a) == outcome(fsum, a.tolist())
        assert np.array(seen).tobytes() == a.tobytes()
        monkeypatch.setattr(numerics.math, "fsum", fsum)


def test_stable_sum_of_an_exact_cancellation_is_plus_zero_without_fsum(monkeypatch):
    # The first moment of a symmetric p.m.f. on 385^2 = 148,225 cells about its
    # centre: each product has its exact negation at the mirrored cell.
    x = np.arange(-192, 193, dtype=np.float64)
    w = np.exp(-0.5 * (x / 16.0) ** 2)
    pmf = np.outer(w, w)
    pmf /= pmf.sum()
    moment = pmf * x[:, None]
    assert moment.size == 148_225 and struct.pack("<d", math.fsum(moment.ravel())) == struct.pack("<d", 0.0)
    monkeypatch.setattr(numerics.math, "fsum", no_fsum)
    assert struct.pack("<d", stable_sum(moment)) == struct.pack("<d", 0.0)
    assert struct.pack("<d", stable_sum(-moment)) == struct.pack("<d", 0.0)


def test_stable_sum_splits_subnormals_and_mask_boundaries_exactly(monkeypatch):
    # Subnormals, the smallest normal and mantissas at the 26-bit split: the low
    # 26 stored bits all ones, only bit 26 set, only bit 25 set.
    tiny, normal = 2.0**-1074, 2.0**-1022
    base = [tiny, 3 * tiny, normal - tiny, 2.0**-1048, 2.0**-1048 - tiny, normal, normal + 2.0**-1048,
            1.0 + 2.0**-26, 1.0 + 2.0**-26 - 2.0**-52, 1.0 + 2.0**-27, 2.0 - 2.0**-52, 2.0**-26, 3.5e-300]
    rng = np.random.default_rng(3)
    a = np.array(base * 400) * rng.choice([-1.0, 1.0], len(base) * 400) * rng.integers(1, 9, len(base) * 400)
    for values in (np.array(base), a, a[: a.size // 2] * 2.0**-40, a[np.abs(a) < 2.0**-1020]):
        expected = struct.pack("<d", math.fsum(values))
        with monkeypatch.context() as m:
            m.setattr(numerics.math, "fsum", no_fsum)
            assert struct.pack("<d", stable_sum(values)) == expected


def test_stable_sum_takes_the_fast_path_on_large_finite_arrays(monkeypatch):
    # The fallback for 2^26 elements or more is not run here: it needs 512 MB.
    rng = np.random.default_rng(5)
    a = rng.standard_normal(10**5) * np.exp(rng.uniform(-300.0, 300.0, 10**5))
    a[::7] = -a[1::7][: a[::7].size]
    expected = math.fsum(a)
    monkeypatch.setattr(numerics.math, "fsum", no_fsum)
    assert struct.pack("<d", stable_sum(a)) == struct.pack("<d", expected)


def test_xlogx_zero_convention():
    # -0.0 at +0 and +0.0 at -0; 0.0 - sum makes either zero +0.0.
    out = xlogx(np.array([0.0, -0.0, 1.0, math.e**-1]))
    assert out.tolist() == [0.0, 0.0, 0.0, pytest.approx(-1.0 / math.e)]
    assert np.signbit(out).tolist() == [True, False, False, True]


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


def test_gauss_legendre_01_normalization():
    x, w = gauss_legendre_01(8)
    assert abs(w.sum() - 1.0) < 1e-15
    assert np.all((x > 0) & (x < 1))


def test_jacobi_eigenvalues_match_closed_form():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    cov = CovarianceMatrix(2, m)
    assert np.allclose(cov.eigenvalues(), [1.0, 3.0], atol=1e-12)
    assert cov.det() == pytest.approx(3.0, abs=1e-12)
    # Cov - sigma_hat^2 I has eigenvalues 1 - sqrt(3) and 3 - sqrt(3).
    summary = MomentSummary(1.0, np.zeros(2), cov, 1.0, (0, 0), 3.0**0.25)
    assert isotropy_score(summary).op_norm_deviation == pytest.approx(3.0 - math.sqrt(3.0), abs=1e-12)


def test_jacobi_4x4_random_psd():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    m = b @ b.T
    cov = CovarianceMatrix(4, m)
    eig = cov.eigenvalues()
    assert np.all(np.diff(eig) > 0)
    assert eig.sum() == pytest.approx(np.trace(m), rel=1e-12)
    assert np.sum(eig**2) == pytest.approx(np.sum(m * m), rel=1e-12)
    assert cov.det() == pytest.approx(np.linalg.det(m), rel=1e-9)
    for lam in eig:
        assert abs(np.linalg.det(m - lam * np.eye(4))) <= 1e-9 * np.linalg.norm(m) ** 4


def test_adaptive_quad_1d_log_singularity():
    val, err = adaptive_quad(
        lambda x: x[..., 0] * np.log(x[..., 0], where=x[..., 0] > 0, out=np.zeros(x.shape[:-1])), 0.0, 1.0
    )
    assert val == pytest.approx(-0.25, abs=1e-12)


def test_adaptive_tensor_quad_gaussian():
    f = lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)) / (2 * math.pi)
    val, err = adaptive_quad(f, [-8, -8], [8, 8], rel_tol=1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_adaptive_quad_3d_polynomial_and_empty_box():
    # x^2 y z^4 over [0,1] x [0,2] x [-1,1]: (1/3) * 2 * (2/5)
    val, err = adaptive_quad(lambda x: x[..., 0] ** 2 * x[..., 1] * x[..., 2] ** 4, [0, 0, -1], [1, 2, 1])
    assert val == pytest.approx(4.0 / 15.0, rel=1e-14)
    assert err <= 1e-14
    assert adaptive_quad(lambda x: np.ones(x.shape[:-1]), 1.0, 1.0) == (0.0, 0.0)
    assert adaptive_quad(lambda x: np.ones(x.shape[:-1]), [0, 1], [1, 0]) == (0.0, 0.0)


def test_adaptive_quad_takes_the_first_panel_at_two_evaluations():
    # The whole-box order-2m value that sets the error scale is that panel's
    # own; a quadratic, exact at order m, is accepted on its first panel.
    calls = []

    def f(x):
        calls.append(x.shape)
        return x[..., 0] ** 2 + x[..., 1]

    val, err = adaptive_quad(f, [0.0, 0.0], [1.0, 2.0])
    assert val == pytest.approx(2.0 / 3.0 + 2.0, rel=1e-14) and err <= 1e-14
    assert len(calls) == 2


def test_adaptive_quad_panel_budget_raises_numerical_error():
    with pytest.raises(NumericalError):
        adaptive_quad(lambda x: np.sin(1e7 * x[..., 0]) + 2.0, 0.0, 1.0, rel_tol=1e-14)


def test_unit_directions_are_unit():
    for d in (1, 2, 3):
        u = unit_directions(d, 16)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)


def test_rate_envelope():
    assert rate_envelope_ok([1.0, 0.8, 0.5, 0.4])
    assert not rate_envelope_ok([1.0, 2.0, 0.5, 0.4])
    assert not rate_envelope_ok([1.0, 0.5, 0.4, 0.45])
    # noise floor forgives fp-level jitter
    assert rate_envelope_ok([1e-15, 3e-16, 8e-16, 9e-16], noise_floor=1e-9)
