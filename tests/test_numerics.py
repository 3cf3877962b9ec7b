import math

import numpy as np
import pytest

from lce.numerics import (
    adaptive_quad_1d,
    adaptive_tensor_quad,
    gauss_legendre_01,
    jacobi_eigenvalues,
    neg_xlogx,
    next_pow2,
    rate_envelope_ok,
    stable_sum,
    unit_directions,
)


def test_stable_sum_is_exactly_rounded():
    # classic cancellation case: naive summation loses the tiny term
    vals = [1e16, 1.0, -1e16]
    assert stable_sum(np.array(vals)) == 1.0


def test_stable_sum_order_independent():
    rng = np.random.default_rng(0)
    a = rng.random(10000) * np.exp(rng.uniform(-30, 30, 10000))
    assert stable_sum(a) == stable_sum(a[::-1].copy())


def test_neg_xlogx_zero_convention():
    out = neg_xlogx(np.array([0.0, 1.0, math.e**-1]))
    assert out[0] == 0.0
    assert out[1] == 0.0
    assert out[2] == pytest.approx(1.0 / math.e)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


def test_gauss_legendre_01_normalization():
    x, w = gauss_legendre_01(8)
    assert abs(w.sum() - 1.0) < 1e-15
    assert np.all((x > 0) & (x < 1))


def test_jacobi_eigenvalues_match_closed_form():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    eig = jacobi_eigenvalues(m)
    assert np.allclose(eig, [1.0, 3.0], atol=1e-12)
    assert float(np.prod(eig)) == pytest.approx(3.0, abs=1e-12)
    shifted = jacobi_eigenvalues(m - 2 * np.eye(2))
    assert float(np.max(np.abs(shifted))) == pytest.approx(1.0, abs=1e-12)


def test_jacobi_4x4_random_psd():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(4, 4))
    m = b @ b.T
    eig = jacobi_eigenvalues(m)
    assert np.allclose(sorted(eig), sorted(np.linalg.eigvalsh(m)), atol=1e-9)


def test_adaptive_quad_1d_log_singularity():
    val, err = adaptive_quad_1d(lambda t: t * np.log(t, where=t > 0, out=np.zeros_like(t)), 0.0, 1.0)
    assert val == pytest.approx(-0.25, abs=1e-12)


def test_adaptive_tensor_quad_gaussian():
    f = lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)) / (2 * math.pi)
    val, err = adaptive_tensor_quad(f, [-8, -8], [8, 8], rel_tol=1e-10)
    assert val == pytest.approx(1.0, abs=1e-9)


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
