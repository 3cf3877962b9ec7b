"""Shared numerical kernels: exact summation, small symmetric eigenproblems,
Gauss-Legendre node caches, and sweep-envelope helpers.

All reductions in the library funnel through :func:`stable_sum`, which computes
the correctly rounded sum of its inputs (Shewchuk's algorithm via
``math.fsum``).  The result is therefore independent of accumulation order and
bit-stable across runs and thread counts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError


def stable_sum(values) -> float:
    """Correctly rounded sum of a float array, taken in row-major order."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(a.ravel(order="C"))


def neg_xlogx(a: np.ndarray) -> np.ndarray:
    """Elementwise -a*log(a) with the convention 0*log(0) = 0."""
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros_like(a)
    mask = a > 0.0
    np.log(a, out=out, where=mask)
    out *= a
    np.negative(out, out=out)
    return out


def next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@lru_cache(maxsize=64)
def gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def jacobi_eigenvalues(matrix, off_tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    Iterates until the off-diagonal Frobenius norm drops below
    ``off_tol * (1 + |A|_F)``.  Intended for the d x d covariance matrices of
    this library (d <= 4), where it is simple, robust, and deterministic.
    Returns eigenvalues sorted ascending.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if not np.allclose(a, a.T, atol=1e-12 * (1.0 + float(np.abs(a).max(initial=0.0)))):
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    if n == 1:
        return a[0, :1].copy()
    scale = 1.0 + float(np.sqrt(np.sum(a * a)))
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[i, j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= off_tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))


def adaptive_quad_1d(
    fun,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    order: int = 16,
    max_panels: int = 4096,
):
    """Panel-adaptive Gauss-Legendre integration of a vectorized function.

    Each panel compares orders ``order`` and ``2*order`` and bisects until its
    error estimate fits its share of the budget.  Returns ``(value, err_est)``.
    Deterministic: panels are processed depth-first in a fixed order.
    """
    if b <= a:
        return 0.0, 0.0

    def panel(lo, hi, m):
        x, w = gauss_legendre_01(m)
        t = lo + (hi - lo) * x
        return (hi - lo) * float(np.sum(w * fun(t)))

    whole = abs(panel(a, b, 2 * order))
    scale = max(abs_tol, rel_tol * max(whole, 1e-300))
    stack = [(a, b)]
    accepted = []
    errors = []
    panels = 0
    while stack:
        lo, hi = stack.pop()
        panels += 1
        if panels > max_panels:
            raise NumericalError("adaptive quadrature exceeded panel budget")
        i1 = panel(lo, hi, order)
        i2 = panel(lo, hi, 2 * order)
        err = abs(i2 - i1)
        budget = scale * (hi - lo) / (b - a)
        if err <= budget or (hi - lo) < 1e-14 * (b - a):
            accepted.append(i2)
            errors.append(err)
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    return math.fsum(accepted), math.fsum(errors)


def adaptive_tensor_quad(
    fun,
    lo,
    hi,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 0.0,
    order: int = 12,
    max_panels: int = 20000,
):
    """Box-adaptive tensor Gauss-Legendre integration over [lo, hi] in R^d.

    ``fun`` maps arrays of shape (..., d) to values.  Panels split along their
    longest axis.  Returns ``(value, err_est)``.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    d = lo.size
    if np.any(hi <= lo):
        raise ValueError("need hi > lo on every axis")

    def panel(plo, phi, m):
        x, w = gauss_legendre_01(m)
        axes = [plo[i] + (phi[i] - plo[i]) * x for i in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = fun(grid)
        for i in range(d):
            vals = np.tensordot(vals, (phi[i] - plo[i]) * w, axes=([0], [0]))
        return float(vals)

    total_vol = float(np.prod(hi - lo))
    whole = abs(panel(lo, hi, 2 * order))
    scale = max(abs_tol, rel_tol * max(whole, 1e-300))
    stack = [(lo, hi)]
    accepted = []
    errors = []
    panels = 0
    while stack:
        plo, phi = stack.pop()
        panels += 1
        if panels > max_panels:
            raise NumericalError("adaptive tensor quadrature exceeded panel budget")
        i1 = panel(plo, phi, order)
        i2 = panel(plo, phi, 2 * order)
        err = abs(i2 - i1)
        vol = float(np.prod(phi - plo))
        if err <= scale * vol / total_vol or vol < 1e-12 * total_vol:
            accepted.append(i2)
            errors.append(err)
        else:
            axis = int(np.argmax(phi - plo))
            mid = 0.5 * (plo[axis] + phi[axis])
            hi1 = phi.copy()
            hi1[axis] = mid
            lo2 = plo.copy()
            lo2[axis] = mid
            stack.append((lo2, phi))
            stack.append((plo, hi1))
    return math.fsum(accepted), math.fsum(errors)


def unit_directions(dim: int, count: int, seed: int = 11) -> np.ndarray:
    """Deterministic unit directions: signs in d=1, equal angles in d=2,
    seeded normalized Gaussians beyond."""
    if dim == 1:
        reps = [(-1.0) ** i for i in range(count)]
        return np.array(reps).reshape(-1, 1)
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rate_envelope_ok(values, *, noise_floor: float = 0.0, rel_slack: float = 1e-6) -> bool:
    """Sweep-envelope test for quantities expected to be O(1) along a sweep.

    ``values`` are the rate statistics at increasing sweep parameters.  The
    test fits the admissible constant at the smallest parameter and requires
    (a) every later value to stay below it, and (b) no increase at the largest
    parameter.  ``noise_floor`` absorbs floating-point noise when the true
    quantity has decayed to rounding level.
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return True
    cap = max(vals[0], noise_floor) * (1.0 + rel_slack) + noise_floor
    if any(v > cap for v in vals[1:]):
        return False
    return vals[-1] <= max(vals[-2] * (1.0 + rel_slack), noise_floor)
