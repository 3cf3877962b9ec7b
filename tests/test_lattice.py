import math
import os
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lce import families
from lce.densities import ContinuousDensity, TailBound, gaussian
from lce.errors import LceError, NumericalError
from lce.lattice import (
    Box,
    LatticePmf,
    LatticeSet,
    convolve,
    lattice_tail_sum_bound,
    load_pmf,
    make_product,
    pmf_from_doc,
    pmf_to_doc,
    point_mass,
    quantize_density,
    save_pmf,
    support_set,
)
from lce.moments import discrete_moments
from lce.numerics import next_pow2, stable_sum

from oracles import (
    fft_check_products,
    make_uniform_on_set,
    self_convolve,
    verify_fft_subsample_exact,
    whole_spectrum_convolution,
)


def small_pmf(values, lo=(0,)):
    vals = np.asarray(values, dtype=np.float64)
    hi = tuple(l + s - 1 for l, s in zip(lo, vals.shape))
    return LatticePmf(Box(tuple(lo), hi), vals / vals.sum())


# ---------------------------------------------------------------------------
# quantization


def test_quantize_gaussian_ratio_exact():
    p = families.quantized_gaussian(1.0)
    assert p.value_at((1,)) / p.value_at((0,)) == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_quantize_gaussian_deficit_bound_small_and_valid():
    p = quantize_density(gaussian(1.0, 1), radius_multiplier=10.0)
    assert p.deficit < 1e-12
    # independent oracle: direct tail summation over |k| in (10, 60]
    tail = math.fsum(
        2 * math.exp(-0.5 * k * k) / math.sqrt(2 * math.pi) for k in range(11, 61)
    )
    assert p.deficit >= tail / (1.0 + tail)  # the bound must dominate the truth


def test_quantize_gaussian_2d_symmetric():
    p = families.quantized_gaussian(2.0, 2)
    v = p.values
    assert np.array_equal(v, v[::-1, ::-1])


def test_quantize_rejects_tiny_box():
    with pytest.raises(LceError, match="lies inside the tail-bound radius"):
        quantize_density(gaussian(1.0, 1), radius_multiplier=3.0)


def shell_loop(d, rate, m0):
    """The shell-by-shell tail sum to its stopping test: the running total,
    the exact sum of its terms, and the number of shells."""
    terms, total, m = [], 0.0, m0
    while True:
        term = float((2 * m + 1) ** d - (2 * m - 1) ** d) * 1.5 * math.exp(-rate * m)
        terms.append(term)
        total += term
        if term < 1e-300 or term < 1e-18 * max(total, 1e-300):
            return total, math.fsum(terms), len(terms)
        m += 1


def tail_density(d, rate):
    return ContinuousDensity(d, lambda x: np.ones(x.shape[:-1]), np.eye(d), TailBound(1.5, rate, 0.0))


@pytest.mark.parametrize("rate", [1.0, 0.1, 0.01, 0.005])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tail_bound_keeps_the_shell_loop_bit_for_bit(d, rate):
    total, _, shells = shell_loop(d, rate, 11)
    assert shells <= 10_000
    assert lattice_tail_sum_bound(tail_density(d, rate), 10) == total


@pytest.mark.parametrize("d,rate", [(d, r) for d in (1, 2, 3) for r in (0.0035, 1e-3, 1e-4)] + [(2, 1e-5)])
def test_tail_bound_closed_form_matches_the_shell_sum(d, rate):
    # Beyond 10,000 shells the loop gives way to the closed form: wholly, or
    # (at rate 0.0035) for the shells after the first 10,000.  The oracle sums
    # the loop's terms exactly; its running total drifts by up to 7e-12.
    _, exact, shells = shell_loop(d, rate, 11)
    assert shells > 10_000
    got = lattice_tail_sum_bound(tail_density(d, rate), 10)
    assert abs(got - exact) <= 1e-12 * exact


def test_tail_bound_at_a_slow_rate_is_fast():
    for d in (1, 2, 3):
        dens = tail_density(d, 1e-7)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            lattice_tail_sum_bound(dens, 10)
            best = min(best, time.perf_counter() - start)
        assert best < 0.01


def test_quantize_product_matches_2d_quantization():
    f1 = families.quantized_gaussian(5.0)
    prod = make_product([f1, f1])
    p2 = families.quantized_gaussian(5.0, 2)
    assert prod.box == p2.box
    assert float(np.abs(prod.values - p2.values).max()) < 1e-12


def test_mass_conservation_constructors():
    for p in [
        families.quantized_gaussian(3.0),
        families.uniform_interval(7),
        families.binomial_pmf(9),
        families.two_sided_geometric(0.6),
        make_product([families.uniform_interval(2)] * 3),
    ]:
        assert abs(p.mass + p.deficit - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# uniform / product constructors


def test_uniform_on_set_examples():
    s0 = LatticeSet.from_iterable(1, [(0,)])
    p0 = make_uniform_on_set(s0)
    assert p0.value_at((0,)) == 1.0
    s1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    p1 = make_uniform_on_set(s1)
    assert p1.value_at((0, 0)) == 0.5 and p1.value_at((1, 1)) == 0.5
    assert p1.value_at((0, 1)) == 0.0
    s2 = LatticeSet.from_iterable(2, [(a, b) for a in (0, 1) for b in (0, 1)])
    p2 = make_uniform_on_set(s2)
    assert np.all(p2.values == 0.25)


def test_uniform_on_empty_set_rejected():
    with pytest.raises(LceError):
        make_uniform_on_set(LatticeSet(2, frozenset()))


def test_make_product_examples():
    u = families.uniform_interval(2)
    p = make_product([u, u])
    assert np.all(p.values == 0.25)
    pm = make_product([point_mass((0,)), point_mass((0,))])
    assert pm.value_at((0, 0)) == 1.0
    with pytest.raises(LceError):
        make_product([])


# ---------------------------------------------------------------------------
# convolution


def test_point_mass_shifts():
    p = families.uniform_interval(3)
    shifted = convolve(point_mass((5,)), p)
    assert shifted.box.lo == (5,) and shifted.box.hi == (7,)
    assert np.allclose(shifted.values, p.values, atol=1e-15)


def test_uniform_self_convolution():
    u = families.uniform_interval(2)
    c = convolve(u, u)
    assert c.box.lo == (0,) and c.box.hi == (2,)
    assert np.allclose(c.values, [0.25, 0.5, 0.25], atol=1e-15)
    c3 = self_convolve(u, 3)
    assert np.allclose(c3.values, np.array([1, 3, 3, 1]) / 8.0, atol=1e-15)


def test_self_convolve_identity():
    p = families.binomial_pmf(4)
    assert self_convolve(p, 1) is p


def test_direct_fft_agree_2d():
    p = families.quantized_gaussian(3.0, 2)
    d = convolve(p, p, method="direct")
    f = convolve(p, p, method="fft")
    assert float(np.abs(d.values - f.values).max()) < 1e-10


def test_convolution_variance_additivity():
    p = families.quantized_gaussian(3.0)
    c = self_convolve(p, 2)
    v1 = discrete_moments(p).cov.entries[0, 0]
    v2 = discrete_moments(c).cov.entries[0, 0]
    assert v2 == pytest.approx(2.0 * v1, rel=1e-8)


def test_covariance_additivity_2d():
    p = families.quantized_gaussian(2.0, 2)
    q = make_product([families.uniform_interval(3), families.uniform_interval(5)])
    c = convolve(p, q)
    cp = discrete_moments(p).cov.entries
    cq = discrete_moments(q).cov.entries
    cc = discrete_moments(c).cov.entries
    assert np.allclose(cc, cp + cq, rtol=1e-8, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(LceError, match="operands have different dimensions"):
        convolve(families.uniform_interval(2), point_mass((0, 0)))


def test_memory_cap():
    import lce.lattice as lat

    big = Box((0,) * 2, (2**14,) * 2)
    with pytest.raises(LceError, match="exceeds cap"):
        lat._check_cells(big)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_convolution_commutes_and_associates(seed):
    rng = np.random.default_rng(seed)
    a = small_pmf(rng.random(rng.integers(1, 5)))
    b = small_pmf(rng.random(rng.integers(1, 5)), lo=(-2,))
    c = small_pmf(rng.random(rng.integers(1, 4)), lo=(1,))
    ab = convolve(a, b)
    ba = convolve(b, a)
    assert ab.box == ba.box
    assert float(np.abs(ab.values - ba.values).max()) < 1e-10
    l = convolve(ab, c)
    r = convolve(a, convolve(b, c))
    assert l.box == r.box
    assert float(np.abs(l.values - r.values).max()) < 1e-10


def test_mass_conserved_through_convolution():
    p = families.quantized_gaussian(2.0)
    q = families.two_sided_geometric(0.5)
    c = convolve(p, q)
    assert abs(c.mass + c.deficit - 1.0) <= 1e-9
    assert c.deficit <= p.deficit + q.deficit + 1e-18


# ---------------------------------------------------------------------------
# file formats


def test_pmf_doc_round_trip(tmp_path):
    p = families.quantized_gaussian(2.0, 2)
    doc = pmf_to_doc(p)
    assert set(doc) == {"dim", "lo", "hi", "values", "deficit", "meta"}
    q = pmf_from_doc(doc)
    assert q.box == p.box and q.deficit == p.deficit
    assert np.array_equal(q.values, p.values)
    path = tmp_path / "p.json"
    save_pmf(p, path)
    r = load_pmf(path)
    assert np.array_equal(r.values, p.values)


@pytest.mark.parametrize(
    "change",
    [
        {"lo": [0.5], "hi": [1.7]},
        {"dim": True},
        {"dim": "1"},
        {"lo": [False]},
        {"values": [True, 0.5]},
        {"values": ["1", 0.5]},
        {"deficit": "0"},
        {"deficit": False},
    ],
    ids=["fractional_bounds", "bool_dim", "string_dim", "bool_lo", "bool_value", "string_value",
         "string_deficit", "bool_deficit"],
)
def test_pmf_doc_fields_are_not_coerced(change):
    doc = {"dim": 1, "lo": [0], "hi": [1], "values": [0.5, 0.5], "deficit": 0.0, **change}
    with pytest.raises(LceError, match="must be integers|must be a list of numbers"):
        pmf_from_doc(doc)


def test_row_major_order_in_doc():
    p = small_pmf(np.array([[0.1, 0.2], [0.3, 0.4]]), lo=(0, 0))
    doc = pmf_to_doc(p)
    # last axis fastest
    assert doc["values"] == pytest.approx([0.1, 0.2, 0.3, 0.4])


def test_fft_convolution_does_not_import_numpy_ma():
    code = (
        "import sys\n"
        "from lce import families\n"
        "from lce.lattice import convolve\n"
        "p = families.quantized_gaussian(16.0, 2)\n"
        "assert convolve(p, p, method='fft').meta['method'] == 'fft'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("shapes", [((300,), (41,)), ((37, 20), (15, 44)), ((9, 4, 6), (5, 12, 3))],
                         ids=["d1", "d2", "d3"])
def test_fft_convolution_gives_the_bytes_of_the_plain_spectrum_product(shapes):
    rng = np.random.default_rng(len(shapes[0]))
    p, q = (small_pmf(rng.random(s), lo=(0,) * len(s)) for s in shapes)
    out = convolve(p, q, method="fft")
    out_shape = tuple(a + b - 1 for a, b in zip(*shapes))
    expected = np.maximum(whole_spectrum_convolution(p.values, q.values, out_shape), 0.0)
    assert out.values.tobytes() == expected.tobytes()


# Out shapes at a power of two (33 + 32 - 1 = 64) and just above one (65),
# with a self-convolution (q is p) in each dimension.
@pytest.mark.parametrize(
    "p_shape, q_shape",
    [((33,), (32,)), ((33,), None), ((17, 9), (16, 8)), ((17, 9), None), ((9, 5, 3), (8, 4, 2)), ((5, 5, 9), None)],
    ids=["d1-pow2", "d1-self-above", "d2-pow2", "d2-self-above", "d3-pow2", "d3-self-above"],
)
def test_fft_kernel_gives_the_bytes_of_irfftn(p_shape, q_shape):
    import lce.lattice as lat

    rng = np.random.default_rng(sum(p_shape))
    p = rng.random(p_shape)
    q = p if q_shape is None else rng.random(q_shape)
    out_shape = tuple(a + b - 1 for a, b in zip(p.shape, q.shape))
    padded = tuple(next_pow2(s) for s in out_shape)
    assert (padded == out_shape) == (q_shape is not None)
    out = lat._convolve_fft(p, q, out_shape, 1.0)
    assert out.shape == out_shape and out.tobytes() == whole_spectrum_convolution(p, q, out_shape).tobytes()


# (p shape, q shape or None for q is p, frequency columns per panel, output
# lines per irfft block).  Every case but d2-nx1 (one column) has several
# panels, ragged at the end where the width exceeds 1; a width of 0 asks for a
# budget below one column, which still takes one.
PANEL_CASES = {
    "d1-panels": ((300,), (41,), 7, 64),
    "d1-self-panels": ((33,), None, 4, 64),
    "d2-panels-blocks": ((37, 20), (15, 44), 5, 8),
    "d2-self-panels-blocks": ((17, 9), None, 3, 4),
    "d2-1xn": ((1, 50), (1, 30), 6, 1),
    "d2-nx1": ((50, 1), (30, 1), 1, 10),
    "d2-budget-below-a-column": ((17, 9), (16, 8), 0, 7),
    "d3-kx1xm": ((7, 1, 9), (4, 1, 6), 2, 3),
    "d3-self-kx1xm": ((7, 1, 9), None, 4, 5),
    "d3-panels-blocks": ((9, 4, 6), (5, 12, 3), 2, 16),
    "d3-self-panels-blocks": ((5, 5, 9), None, 3, 7),
}


@pytest.mark.parametrize("case", list(PANEL_CASES), ids=list(PANEL_CASES))
def test_fft_kernel_gives_the_oracle_bytes_across_panels_and_row_blocks(case, monkeypatch):
    import lce.lattice as lat

    p_shape, q_shape, width, rows = PANEL_CASES[case]
    rng = np.random.default_rng(sum(p_shape))
    p = rng.random(p_shape)
    q = p if q_shape is None else rng.random(q_shape)
    out_shape = tuple(a + b - 1 for a, b in zip(p.shape, q.shape))
    padded = tuple(next_pow2(s) for s in out_shape)
    expected = whole_spectrum_convolution(p, q, out_shape)
    monkeypatch.setattr(lat, "_FFT_PANEL_BYTES", max(1, 16 * math.prod(padded[:-1]) * width))
    monkeypatch.setattr(lat, "_IRFFT_ROWS", rows)
    calls = {"fft": 0, "irfft": 0}

    def counted(name, transform):
        def run(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        return run

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    out = lat._convolve_fft(p, q, out_shape, 1.0)
    assert out.shape == out_shape and out.tobytes() == expected.tobytes()
    cols = padded[-1] // 2 + 1
    panels = -(-cols // max(1, width))
    assert panels > 1 or case == "d2-nx1"
    assert width <= 1 or cols % width != 0  # a ragged last panel
    assert calls["fft"] == panels * (len(out_shape) - 1) * (1 if q is p else 2)
    assert calls["irfft"] == -(-math.prod(out_shape[:-1]) // rows)


def test_every_fft_call_of_a_sweep_gives_the_oracle_bytes(monkeypatch):
    import lce.lattice as lat
    from lce import harness

    kernel, calls = lat._convolve_fft, []

    def checked(p, q, out_shape, scale):
        out = kernel(p, q, out_shape, scale)
        assert out.tobytes() == whole_spectrum_convolution(p, q, out_shape).tobytes()
        calls.append(out_shape)
        return out

    monkeypatch.setattr(lat, "_convolve_fft", checked)
    cfg = harness.ExperimentConfig(family={"name": "gaussian", "params": {}}, dims=[1, 2], sigmas=[4.0],
                                   n_values=[1, 2], checks=["epi_gap", "diff_approx", "explore_conv"])
    harness.run_config(cfg)
    assert any(len(s) == 2 for s in calls)


# Traced peaks in MB (numpy 2.4): the kernel 39.2 and 17.0, the oracle 96.1
# and 48.8.  A kernel that holds two whole padded spectra, as rfftn gives them,
# and cuts each inverse pass to out_shape peaks at 70.2 and 36.3: above the bound.
@pytest.mark.parametrize("shapes", [((769, 769), (385, 385)), ((60, 70, 80), (30, 30, 30))], ids=["d2", "d3"])
def test_fft_kernel_peaks_well_below_the_whole_spectrum_oracle(shapes):
    import tracemalloc

    import lce.lattice as lat

    rng = np.random.default_rng(0)
    p, q = (rng.random(s) for s in shapes)
    out_shape = tuple(a + b - 1 for a, b in zip(*shapes))
    peaks = []
    for run in (lambda: lat._convolve_fft(p, q, out_shape, 1.0), lambda: whole_spectrum_convolution(p, q, out_shape)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.55 * peaks[1]


def sparse_pmf(rng, shape):
    vals = rng.random(shape) * (rng.random(shape) < 0.6)
    vals.flat[0] = 1.0
    return small_pmf(vals, lo=(0,) * len(shape))


@pytest.mark.parametrize("shapes", [((40,), (75,)), ((7, 12), (11, 5)), ((4, 6, 3), (5, 3, 7))],
                         ids=["d1", "d2", "d3"])
def test_fft_check_compares_sampled_cells_with_direct_sums(shapes):
    # Operands of different shapes, both orders: the check passes on the exact
    # direct convolution and catches 2 tolerances of error at a sampled cell only.
    import lce.lattice as lat

    rng = np.random.default_rng(len(shapes[0]))
    a, b = (sparse_pmf(rng, s) for s in shapes)
    for pmf_p, pmf_q in ((a, b), (b, a)):
        p, q = pmf_p.values, pmf_q.values
        out = convolve(pmf_p, pmf_q, method="direct").values
        scale = max(1.0, float(p.sum()) * float(q.sum()))
        lat._verify_fft_subsample(p, q, out, scale)
        sampled = np.linspace(0, out.size - 1, num=lat._FFT_CHECK_SAMPLES).astype(np.int64)
        assert sampled[1] + 1 not in sampled
        at_sample, off_sample = out.copy(), out.copy()
        at_sample.flat[sampled[1]] += 2 * lat._FFT_CHECK_TOL * scale
        off_sample.flat[sampled[1] + 1] += 2 * lat._FFT_CHECK_TOL * scale
        with pytest.raises(NumericalError, match="subsample discrepancy"):
            lat._verify_fft_subsample(p, q, at_sample, scale)
        lat._verify_fft_subsample(p, q, off_sample, scale)


def check_outcome(verify, p, q, out, scale):
    """None if ``verify`` passes, else the message of its NumericalError."""
    try:
        verify(p, q, out, scale)
    except NumericalError as exc:
        return str(exc)
    return None


FILTER_SHAPES = [((40,), (75,)), ((7, 12), (11, 5)), ((4, 6, 3), (5, 3, 7)), ((60, 50), (40, 70))]
# Window products of 2^17 and many 2^-37: numpy's float sum falls short of
# the exact sum by up to 0.87 tolerances at scale 1, and an ulp of the sums
# is 0.29 tolerances.
FILTER_ROUNDING = (np.array([2.0**17] + [2.0**-37] * 31), np.ones(32))


def filter_operands(case):
    if case == "rounding":
        return [FILTER_ROUNDING]
    rng = np.random.default_rng(10 + case)
    a, b = (sparse_pmf(rng, s).values for s in FILTER_SHAPES[case])
    return [(a, b), (b, a), (a * 1e3, b)]


# Perturbations in tolerances: the filter accepts a cell only within half a
# tolerance of its float sum, less the error bound, and 1 sits on the
# boundary of the exact check.  The rounding case starts from the exact sums
# and perturbs cells from their fft value, float sum and exact sum.
@pytest.mark.parametrize("case", [0, 1, 2, 3, "rounding"], ids=["d1", "d2", "d3", "d2-wide", "rounding"])
def test_filtered_fft_check_gives_the_verdicts_and_messages_of_exact_sums(case):
    import lce.lattice as lat

    verdicts = set()
    for p, q in filter_operands(case):
        out_shape = tuple(x + y - 1 for x, y in zip(p.shape, q.shape))
        # The rounding case takes the tolerance of operands of mass 1.
        scale = 1.0 if case == "rounding" else max(1.0, float(p.sum()) * float(q.sum()))
        out = lat._convolve_fft(p, q, out_shape, scale)
        limit = lat._FFT_CHECK_TOL * scale
        sums = list(fft_check_products(p, q, out))
        if case == "rounding":  # exact sums, perturbed where the float sums fall shortest
            for cell, products in sums:
                out.flat[cell] = stable_sum(products)
            picked = sorted(sums, key=lambda s: stable_sum(s[1]) - float(s[1].sum()))[-4:]
        else:
            picked = [sums[1], sums[len(sums) // 2]]
        for cell, products in picked:
            anchors = (out.flat[cell],) + ((float(products.sum()), stable_sum(products)) if case == "rounding" else ())
            for anchor, k, sign in product(anchors, (0, 0.25, 0.49, 0.5, 0.51, 0.99, 1, 1.01, 2, 10), (1, -1)):
                bad = out.copy()
                bad.flat[cell] = anchor + sign * k * limit
                want = check_outcome(verify_fft_subsample_exact, p, q, bad, scale)
                assert check_outcome(lat._verify_fft_subsample, p, q, bad, scale) == want
                verdicts.add(want is None)
            bad = out.copy()
            bad.flat[cell] = np.nan
            want = check_outcome(verify_fft_subsample_exact, p, q, bad, scale)
            assert check_outcome(lat._verify_fft_subsample, p, q, bad, scale) == want
    assert verdicts == {True, False}


def test_fft_check_sums_no_cell_exactly_on_an_entropy_fft_report(monkeypatch):
    import lce.lattice as lat
    from lce import harness

    verify, stable = lat._verify_fft_subsample, lat.stable_sum
    exact_sums, inside = [], []

    def counted_verify(p, q, out, scale):
        exact_sums.append(0)
        inside.append(True)
        try:
            verify(p, q, out, scale)
        finally:
            inside.pop()

    def counted_sum(values):
        if inside:
            exact_sums[-1] += 1
        return stable(values)

    monkeypatch.setattr(lat, "_verify_fft_subsample", counted_verify)
    monkeypatch.setattr(lat, "stable_sum", counted_sum)
    cfg = harness.default_config()
    cfg.checks, cfg.sigmas = ["epi_gap", "discrete_ub", "max_pmf_1d"], [8.0, 16.0]
    harness.run_config(cfg)
    assert len(exact_sums) >= 4 and exact_sums == [0] * len(exact_sums)


def test_fft_check_sums_exactly_the_cells_the_filter_leaves_open(monkeypatch):
    import lce.lattice as lat

    rng = np.random.default_rng(5)
    p, q = (sparse_pmf(rng, s).values for s in ((9, 14), (12, 6)))
    out_shape = tuple(x + y - 1 for x, y in zip(p.shape, q.shape))
    out = lat._convolve_fft(p, q, out_shape, 1.0)
    limit = lat._FFT_CHECK_TOL
    sampled = np.linspace(0, out.size - 1, num=lat._FFT_CHECK_SAMPLES).astype(np.int64)
    open_cells = sampled[[3, 17, 40]]
    for cell in open_cells:
        out.flat[cell] += 10 * limit
    for cell in sampled[[5, 18, 41]]:
        out.flat[cell] -= 0.25 * limit
    summed = []
    monkeypatch.setattr(lat, "stable_sum", lambda values: summed.append(values) or stable_sum(values))
    with pytest.raises(NumericalError) as caught:
        lat._verify_fft_subsample(p, q, out, 1.0)
    assert str(caught.value) == check_outcome(verify_fft_subsample_exact, p, q, out, 1.0)
    windows = dict(fft_check_products(p, q, out))
    assert [v.tobytes() for v in summed] == [windows[cell].tobytes() for cell in open_cells]


def test_negative_values_rejected():
    with pytest.raises(LceError):
        LatticePmf(Box((0,), (1,)), np.array([0.5, -0.1]))


# Planted values and whether they are refused as non-finite: that error comes
# before the one for a negative value.
BAD_VALUES = [([math.nan], True), ([math.inf], True), ([-math.inf], True), ([-0.5, math.nan], True),
              ([math.nan, -0.5], True), ([-0.5, math.inf], True), ([-0.5], False)]


@pytest.mark.parametrize("planted,non_finite", BAD_VALUES)
def test_non_finite_values_are_named_before_negative_ones(planted, non_finite):
    vals = np.full((3, 4), 0.05)
    vals.flat[[5, 10][:len(planted)]] = planted
    with pytest.raises(LceError, match="must be finite" if non_finite else "must be nonnegative"):
        LatticePmf(Box((0, 0), (2, 3)), vals)

    def evaluate(x):
        out = gaussian(1.0, 2).evaluate(x)
        out.flat[[3, 7][:len(planted)]] = planted
        return out

    f = ContinuousDensity(2, evaluate, np.eye(2), gaussian(1.0, 2).tail_bound)
    with pytest.raises(LceError, match="a non-finite value on the box" if non_finite else "a negative value"):
        quantize_density(f)


def test_lattice_set_from_iterable():
    pts = np.array([[0, 1], [2, -3], [0, 1]])
    s = LatticeSet.from_iterable(2, pts)
    assert s.points == frozenset({(0, 1), (2, -3)})
    assert all(type(x) is int for p in s.points for x in p)
    assert LatticeSet.from_iterable(2, [(0, 1), (2, -3)]) == s
    assert len(LatticeSet.from_iterable(3, [])) == 0
    with pytest.raises(LceError, match="do not have dimension 3"):
        LatticeSet.from_iterable(3, pts)


def test_support_set():
    p = small_pmf([0.5, 0.0, 0.5])
    assert support_set(p).sorted_points() == [(0,), (2,)]
