import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce import families, moments, numerics
from lce.errors import LceError
from lce.lattice import (
    Box,
    LatticePmf,
    convolve,
    make_product,
    point_mass,
)
from lce.moments import (
    CovarianceMatrix,
    discrete_moments,
    isotropy_score,
    max_pmf_width_product,
    shannon_entropy,
    sum_of_maxima,
    variation_sum,
)

from oracles import extensible_zoo_1d, is_log_concave_1d, neg_xlogx, rate_envelope_ok, shifted


def pmf(masses, lo=(0,)):
    vals = np.asarray(masses, dtype=np.float64)
    hi = tuple(l + s - 1 for l, s in zip(lo, vals.shape))
    return LatticePmf(Box(tuple(lo), hi), vals / vals.sum())


# ---------------------------------------------------------------------------
# entropy


def test_entropy_point_mass_zero():
    assert shannon_entropy(point_mass((3,))) == 0.0


def test_entropy_uniform_log_m():
    for m in (2, 5, 16):
        assert shannon_entropy(families.uniform_interval(m)) == pytest.approx(math.log(m), abs=1e-12)


def test_entropy_gaussian_sigma10_against_direct_oracle():
    p = families.quantized_gaussian(10.0)
    H = shannon_entropy(p)
    # independent oracle: direct summation over |k| <= 120 with fsum and math.exp
    raw = [math.exp(-0.5 * (k / 10.0) ** 2) for k in range(-120, 121)]
    z = math.fsum(raw) + p.deficit * 0.0
    norm = math.fsum(raw) / (1.0 - p.deficit)
    probs = [r / norm for r in raw]
    oracle = -math.fsum(q * math.log(q) for q in probs if q > 0)
    assert H == pytest.approx(oracle, abs=1e-6)
    assert abs(H - 0.5 * math.log(2 * math.pi * math.e * 100.0)) < 1e-3


def test_entropy_shift_invariant():
    p = families.binomial_pmf(12)
    assert shannon_entropy(shifted(p, (7,))) == shannon_entropy(p)


def test_entropy_never_decreases_under_convolution():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = pmf(rng.uniform(0.01, 1.0, int(rng.integers(1, 6))))
        b = pmf(rng.uniform(0.01, 1.0, int(rng.integers(1, 6))))
        H = shannon_entropy(convolve(a, b))
        assert H >= max(shannon_entropy(a), shannon_entropy(b)) - 1e-9


# ---------------------------------------------------------------------------
# moments


def test_point_mass_moments():
    s = discrete_moments(point_mass((3, -1)))
    assert np.array_equal(s.mean, [3.0, -1.0])
    assert np.all(s.cov.entries == 0.0)
    assert s.max_value == 1.0 and s.argmax == (3, -1)
    assert s.sigma_hat == 0.0


def test_uniform_two_point_moments():
    s = discrete_moments(families.uniform_interval(2))
    assert s.mean[0] == pytest.approx(0.5)
    assert s.cov.entries[0, 0] == pytest.approx(0.25)


def test_product_pmf_zero_cross_covariance():
    p = make_product([families.binomial_pmf(6), families.two_sided_geometric(0.4)])
    s = discrete_moments(p)
    assert abs(s.cov.entries[0, 1]) < 1e-12


def test_argmax_tie_break_lexicographic():
    p = pmf([[0.25, 0.25], [0.25, 0.25]], lo=(0, 0))
    assert discrete_moments(p).argmax == (0, 0)


# ---------------------------------------------------------------------------
# blocked exact sums


def fsum_moments(p):
    """Mean and covariance from full-size products, each summed by math.fsum."""
    d, vals = p.dim, p.values
    mass = math.fsum(vals.ravel())
    coords = [p.box.axis_coords(i).astype(np.float64).reshape([-1 if k == i else 1 for k in range(d)])
              for i in range(d)]
    mean = np.array([math.fsum((vals * coords[i]).ravel()) / mass for i in range(d)])
    cov = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            cov[i, j] = cov[j, i] = math.fsum((vals * (coords[i] - mean[i]) * (coords[j] - mean[j])).ravel()) / mass
    return mean, cov


def blocked_cases():
    rng = np.random.default_rng(4)
    return [
        families.quantized_gaussian(3.0, 2),
        make_product([families.binomial_pmf(4), families.two_sided_geometric(0.5), families.uniform_interval(3)]),
        pmf(rng.random((5, 1, 4)) * (rng.random((5, 1, 4)) < 0.7), lo=(-2, 3, 0)),
        LatticePmf(Box((-2, -1), (2, 3)), np.where(np.arange(25).reshape(5, 5) == 7, 1.0, 0.0)),
        pmf(np.where(np.isin(np.arange(20), [8, 14, 15]), 2.0, 1.0).reshape(4, 5), lo=(1, -2)),  # tied maxima
    ]


@pytest.mark.parametrize("block", [1, 3, 7, numerics._SUM_BLOCK])
@pytest.mark.parametrize("case", range(5))
def test_blocked_entropy_and_moments_are_fsum_of_the_full_products(monkeypatch, block, case):
    monkeypatch.setattr(numerics, "_SUM_BLOCK", block)
    monkeypatch.setattr(moments, "_ARGMAX_BLOCK", block)
    p = blocked_cases()[case]
    terms = neg_xlogx(p.values).ravel()
    assert struct.pack("<d", shannon_entropy(p)) == struct.pack("<d", math.fsum(terms))
    mean, cov = fsum_moments(p)
    s = discrete_moments(p)
    assert s.mean.tobytes() == mean.tobytes()
    assert s.cov.entries.tobytes() == cov.tobytes()
    first = np.unravel_index(np.argmax(p.values), p.values.shape)
    assert s.argmax == tuple(int(i) + l for i, l in zip(first, p.box.lo))
    assert s.max_value == p.values.max()


def test_entropy_of_a_one_point_pmf_is_fsum_of_its_negative_zeros(monkeypatch):
    # -0 log 0 and -1 log 1 are both -0.0; fsum decides the sign of the sum.
    monkeypatch.setattr(numerics, "_SUM_BLOCK", 3)
    for p in (point_mass((3, -1)), blocked_cases()[3]):
        assert np.signbit(neg_xlogx(p.values)).all()
        assert struct.pack("<d", shannon_entropy(p)) == struct.pack("<d", math.fsum([-0.0] * p.values.size))


def test_entropy_and_moments_peak_far_below_the_pmf_bytes():
    # A 1153^2 level: the sums run a block of rows at a time, with no
    # full-size temporary (the whole-array sums took about 4x its bytes).
    x = np.exp(-0.5 * (np.arange(-576, 577) / 150.0) ** 2)
    vals = np.outer(x, x)
    vals /= vals.sum()
    for run in (shannon_entropy, discrete_moments):
        p = LatticePmf(Box((-576, -576), (576, 576)), vals)  # fresh, so its mass is summed in the run
        tracemalloc.start()
        try:
            run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * vals.nbytes, run.__name__


# ---------------------------------------------------------------------------
# isotropy


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_summary_decomposes_its_covariance_once(monkeypatch, d):
    p = make_product([families.binomial_pmf(4), families.two_sided_geometric(0.5), families.uniform_interval(3)][:d])
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    s = discrete_moments(p)
    det, eig = s.cov.det(), s.cov.eigenvalues()
    assert len(calls) == 1
    # The same bits as a fresh decomposition of the entries.
    assert eig.tobytes() == eigvalsh(s.cov.entries).tobytes()
    assert struct.pack("<d", det) == struct.pack("<d", float(np.prod(eig)))
    assert struct.pack("<d", s.sigma_hat) == struct.pack("<d", max(det, 0.0) ** (1.0 / (2.0 * d)))


def test_isotropy_exact_zero():
    p = make_product([families.uniform_interval(3), families.uniform_interval(3)])
    score = isotropy_score(discrete_moments(p))
    assert score.op_norm_deviation == pytest.approx(0.0, abs=1e-12)


def test_isotropy_gaussian_2d_small():
    p = families.quantized_gaussian(8.0, 2)
    assert isotropy_score(discrete_moments(p)).normalized < 0.1


def test_isotropy_flags_anisotropic_product():
    p = make_product([families.quantized_gaussian(4.0), families.quantized_gaussian(16.0)])
    score = isotropy_score(discrete_moments(p))
    assert score.normalized > 1.0


def test_isotropy_degenerate_rejected():
    with pytest.raises(LceError, match="degenerate covariance"):
        isotropy_score(discrete_moments(point_mass((0, 0))))


# ---------------------------------------------------------------------------
# bounds record


def test_uniform_m3_width_product():
    p = families.uniform_interval(3)
    val = max_pmf_width_product(discrete_moments(p))
    expected = (1.0 / 3.0) * math.sqrt(1.0 + 4.0 * (9 - 1) / 12.0)
    assert val == pytest.approx(expected, abs=1e-12)
    assert val == pytest.approx(0.63828, abs=1e-4)
    assert val <= 1.0


def test_width_product_rejects_d2():
    with pytest.raises(LceError):
        max_pmf_width_product(discrete_moments(point_mass((0, 0))))


def gauss_slack(p):
    """(d/2) log(2 pi e det(Cov + I/12)^(1/d)) - H(p).

    Nonnegative for every p.m.f. with finite second moments: the Gaussian
    maximizes entropy at fixed covariance, and adding an independent uniform
    cell shifts the covariance by I/12.
    """
    d = p.dim
    det_shifted = CovarianceMatrix(d, discrete_moments(p).cov.entries + np.eye(d) / 12.0).det()
    return 0.5 * d * math.log(2.0 * math.pi * math.e * det_shifted ** (1.0 / d)) - shannon_entropy(p)


def test_point_mass_gauss_slack():
    for d in (1, 2, 3):
        slack = gauss_slack(point_mass((0,) * d))
        expected = 0.5 * d * math.log(2 * math.pi * math.e / 12.0)
        assert slack == pytest.approx(expected, abs=1e-12)
        assert slack == pytest.approx(0.1765 * d, abs=2e-3 * d)


def test_gauss_slack_nonnegative_everywhere():
    rng = np.random.default_rng(5)
    cases = [
        point_mass((2,)),
        families.uniform_interval(9),
        families.two_sided_geometric(0.7),
        families.quantized_gaussian(3.0, 2),
    ]
    for _ in range(30):
        cases.append(pmf(rng.uniform(0.001, 1.0, int(rng.integers(1, 8)))))
    for p in cases:
        assert gauss_slack(p) >= -1e-9


def test_discrete_ub_ratio_gaussian_sigma32():
    for d in (1, 2):
        p = families.quantized_gaussian(32.0, d)
        s = discrete_moments(p)
        target = (2 * math.pi) ** (-d / 2.0)
        assert s.max_value * math.sqrt(s.cov.det()) == pytest.approx(target, rel=0.02)


def test_uniform_m25_ub_ratio():
    p = families.uniform_interval(25)
    s = discrete_moments(p)
    ratio = s.max_value * math.sqrt(s.cov.det())
    expected = math.sqrt(25**2 - 1) / (25 * math.sqrt(12.0))
    assert ratio == pytest.approx(expected, abs=1e-12)
    assert ratio == pytest.approx(0.28844, abs=2e-4)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="max p * sqrt(1 + 4 Var) <= 1 fails for geometric-type p.m.f.s "
    "(e.g. one-sided q = 1/2 gives 3/2); the attainable sharp relation is "
    "Var <= (1 - max p)/(max p)^2, i.e. max p <= 2/(1 + sqrt(1 + 4 Var))",
)
def test_max_width_product_capped_at_one_for_all_extensible():
    for p in extensible_zoo_1d(50):
        assert is_log_concave_1d(p).is_extensible
        assert max_pmf_width_product(discrete_moments(p)) <= 1.0 + 1e-9


def test_sharp_variance_bound_for_all_extensible():
    # Var <= (1 - M)/M^2 with equality approached by geometric tails
    for p in extensible_zoo_1d(50):
        s = discrete_moments(p)
        M = s.max_value
        var = float(s.cov.entries[0, 0])
        assert var <= (1.0 - M) / (M * M) + 1e-9
        assert M <= 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * var)) + 1e-9


def test_geometric_attains_sharp_bound():
    p = families.one_sided_geometric(0.5)
    s = discrete_moments(p)
    var = float(s.cov.entries[0, 0])
    assert var == pytest.approx((1.0 - 0.5) / 0.25, abs=1e-9)
    # and the claimed-but-false bound is indeed violated
    assert max_pmf_width_product(discrete_moments(p)) == pytest.approx(1.5, abs=1e-9)


# ---------------------------------------------------------------------------
# variation sums and sums of maxima


def test_variation_sum_point_mass():
    assert variation_sum(point_mass((0,)), 0) == 2.0


def test_variation_sum_uniform():
    for m in (1, 4, 10):
        assert variation_sum(families.uniform_interval(m), 0) == pytest.approx(2.0 / m, abs=1e-15)


def test_variation_sum_axis_range():
    with pytest.raises(LceError):
        variation_sum(families.uniform_interval(3), 1)


def test_variation_sum_rate_envelope():
    stats = []
    for sigma in (4.0, 8.0, 16.0, 32.0):
        p = families.quantized_gaussian(sigma, 2)
        s = discrete_moments(p)
        stats.append(variation_sum(p, 0) * s.sigma_hat)
    assert rate_envelope_ok(stats, rel_slack=1e-6)


def test_sum_of_maxima_mass():
    p = families.quantized_gaussian(3.0, 2)
    assert sum_of_maxima(p, 0, 0) == pytest.approx(p.mass, abs=1e-15)


def test_sum_of_maxima_second_moment_d1():
    p = families.binomial_pmf(8)
    s2 = sum_of_maxima(p, 2, 0)
    ks = np.arange(0, 9, dtype=float)
    assert s2 == pytest.approx(float(np.sum(ks**2 * p.values)), abs=1e-12)


def test_sum_of_maxima_invalid_args():
    p = families.quantized_gaussian(2.0, 2)
    with pytest.raises(LceError):
        sum_of_maxima(p, 3, 0)
    with pytest.raises(LceError):
        sum_of_maxima(p, 0, 2)


def test_sum_of_maxima_rate_envelope():
    stats = []
    for sigma in (4.0, 8.0, 16.0, 32.0):
        p = families.quantized_gaussian(sigma, 2)
        s = discrete_moments(p)
        stats.append(sum_of_maxima(p, 0, 1) * s.sigma_hat)
    assert rate_envelope_ok(stats, rel_slack=1e-6)


def fsum_variation_sum(p, axis):
    """The variation sum from the full-size padded differences, summed by math.fsum."""
    pad = [(0, 0)] * p.dim
    pad[axis] = (1, 1)
    return math.fsum(np.abs(np.diff(np.pad(p.values, pad), axis=axis)).ravel())


def fsum_sum_of_maxima(p, i, j):
    """The sum of maxima from the full-size weighted maxima, summed by math.fsum."""
    reduced = p.values.max(axis=tuple(range(j))) if j > 0 else p.values
    weights = np.abs(p.box.axis_coords(j).astype(np.float64)) ** i
    return math.fsum((reduced * weights.reshape([-1] + [1] * (reduced.ndim - 1))).ravel())


def bytes_or_error(fn, *args):
    try:
        return struct.pack("<d", fn(*args))
    except OverflowError as exc:
        return repr(exc)


def fallback_cases():
    """P.m.f.s whose sums go to math.fsum: all zeros, all -0.0, sums at risk
    of overflow (finite at 1e306, overflowing at 1e308)."""
    rng = np.random.default_rng(8)
    return [LatticePmf(Box((0, 0), (2, 3)), np.zeros((3, 4))),
            LatticePmf(Box((-1, 0), (0, 2)), np.full((2, 3), -0.0)),
            LatticePmf(Box((-1, -2), (1, 1)), 1e306 * rng.random((3, 4))),
            LatticePmf(Box((0,), (5,)), np.full(6, 1e308))]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("block", [1, 3, 7, numerics._SUM_BLOCK])
def test_streamed_variation_sums_and_sums_of_maxima_are_fsum_of_the_full_arrays(monkeypatch, block):
    monkeypatch.setattr(numerics, "_SUM_BLOCK", block)
    for p in blocked_cases() + fallback_cases():
        for axis in range(p.dim):
            assert bytes_or_error(variation_sum, p, axis) == bytes_or_error(fsum_variation_sum, p, axis)
        for i in (0, 1, 2):
            for j in range(p.dim):
                assert bytes_or_error(sum_of_maxima, p, i, j) == bytes_or_error(fsum_sum_of_maxima, p, i, j)


def test_variation_sums_and_sums_of_maxima_peak_far_below_the_pmf_bytes():
    # The full-size padded differences took 2.0x the p.m.f.'s bytes, and the
    # weighted values with no maximization 1.08x.
    x = np.exp(-0.5 * (np.arange(-576, 577) / 150.0) ** 2)
    p = LatticePmf(Box((-576, -576), (576, 576)), np.outer(x, x) / np.outer(x, x).sum())
    runs = [(variation_sum, p, 0), (variation_sum, p, 1)]
    runs += [(sum_of_maxima, p, i, j) for i in (0, 2) for j in (0, 1)]
    for fn, *args in runs:
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * p.values.nbytes, (fn.__name__, args[1:])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_entropy_matches_fsum_oracle(seed):
    rng = np.random.default_rng(seed)
    p = pmf(rng.uniform(0.001, 1.0, int(rng.integers(1, 12))))
    oracle = -math.fsum(float(v) * math.log(float(v)) for v in p.values if v > 0)
    assert shannon_entropy(p) == pytest.approx(oracle, abs=1e-14)
