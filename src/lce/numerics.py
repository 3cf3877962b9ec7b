"""Shared numerical kernels: exact summation, the one lattice moment sum
(:func:`product_sum`), the one x log x, Gauss-Legendre node caches, one
adaptive tensor quadrature over boxes in R^d, and sweep directions.

Every sum over a p.m.f. that reaches a report (entropy, moments, masses) is
correctly rounded: it funnels through :func:`stable_sum_rows` (and
:func:`stable_sum`, the same over a plain array).  The sums that are only
compared with a tolerance, in the sample check of an FFT convolution, first
decides through a float sum with a certified error bound, and sums exactly
only the cells that bound cannot decide (:mod:`lce.lattice`).
:func:`stable_sum_rows` computes the correctly rounded sum of its inputs,
bit-equal to ``math.fsum``: each value is split by
a bit mask into two parts whose sums per binary exponent are exact, and the
exact total is rounded once (exact summation as in Zhu and Hayes, "Algorithm
908", ACM TOMS 2010, vectorised with numpy).  The values stream in blocks of
about ``_SUM_BLOCK`` elements, each split and binned while it is in cache and
added into two fixed 2048-bin accumulators; the bins fold into one integer
once, at the end.  A caller that sums a function of an array (p log p, or
p times coordinates: :func:`product_sum`) computes it one block of rows at a
time, so no sum allocates a temporary of the array's size.  A nonzero input
that cancels exactly sums to +0.0; ``math.fsum`` of every value, in C order, takes the
edge cases: empty or all-zero input (it decides the sign of the zero),
non-finite input, a sum that could overflow and 2^26 values or more.  The
result is therefore independent of accumulation order and block size, and
bit-stable across runs and thread counts.

Every entropy, discrete or smoothed, takes f log f from :func:`xlogx`, whose
domain is the nonnegative floats, and negates the correctly rounded sum as
``0.0 - sum``.  Rounding is symmetric, so that equals the correctly rounded
sum of the negated terms; and a zero sum gives +0.0 (a point mass has
entropy +0.0).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import LceError, NumericalError


# Under this many elements each bin sum of high or low parts stays below 2^53, so exact.
_EXACT_BIN_ELEMENTS = 1 << 26
# While the largest binary exponent plus the bit length of the element count
# stays within this, no partial sum, fsum's or ours, can overflow.
_SAFE_SUM_EXP = 1020
# Elements per block of an exact sum: 256 KiB of float64, so that a block and
# its parts stay in L2 cache.
_SUM_BLOCK = 1 << 15


def stable_sum(values) -> float:
    """Correctly rounded sum of a float array, bit-equal to ``math.fsum``."""
    a = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return stable_sum_rows(lambda rows: a[rows], a.shape)


def stable_sum_rows(term, shape) -> float:
    """Correctly rounded sum of ``term(rows)`` over the blocks of rows of an
    array of ``shape``, bit-equal to ``math.fsum`` of all their values.

    ``term`` maps a slice of axis 0 to the values of those rows, read in C
    order; blocks hold about ``_SUM_BLOCK`` elements.  The biased exponent E of
    each value is read from its bits.  Clearing the low 26 stored mantissa
    bits gives a high part that is a multiple of 2^(E-1049) below 2^(E-1022);
    the low part, the exact rest, is a multiple of 2^(E-1075) below
    2^(E-1049).  ``np.bincount`` adds each part into one float bin per
    exponent, exactly while there are fewer than 2^26 values, and the bins
    fold once into a Python int at scale 2^-1126 that is divided once;
    int/int true division rounds correctly.  A nonzero input whose exact sum
    is zero gives +0.0, as round-to-nearest and fsum do.  Empty, all-zero or
    non-finite input, 2^26 values or more and a sum that could overflow go to
    ``math.fsum`` of every value of ``term``, which is called again for them.
    """
    rows = max(1, _SUM_BLOCK // max(1, math.prod(shape[1:])))

    def blocks():
        for r in range(0, shape[0], rows):
            yield np.ascontiguousarray(term(slice(r, r + rows)), dtype=np.float64).reshape(-1)

    hi_bins = lo_bins = 0.0
    count = emax = 0
    nonzero = False
    for a in blocks():
        if not a.size:
            continue
        count += a.size
        bits = a.view(np.int64)
        e = bits >> 52
        e &= 0x7FF
        emax = max(emax, int(e.max()))
        # 0x7FF is the exponent of inf and nan; emax - 1022 is np.frexp's exponent.
        if count >= _EXACT_BIN_ELEMENTS or emax == 0x7FF or emax - 1022 + count.bit_length() > _SAFE_SUM_EXP:
            return math.fsum(chain.from_iterable(blocks()))
        nonzero = nonzero or bool(a.any())
        hi = (bits & ~((1 << 26) - 1)).view(np.float64)
        hi_bins = hi_bins + np.bincount(e, weights=hi, minlength=2048)
        lo_bins = lo_bins + np.bincount(e, weights=a - hi, minlength=2048)
    if not nonzero:
        return math.fsum(chain.from_iterable(blocks()))
    # A bin m * 2^x has an integer m * 2^53 and x >= -1073, so the exact total
    # at scale 2^-1126 is an int.
    bins = np.concatenate((hi_bins, lo_bins))
    m, x = np.frexp(bins[bins != 0.0])
    return sum(map(int.__lshift__, (m * 2.0**53).astype(np.int64).tolist(), (x + 1073).tolist())) / (1 << 1126)


def product_sum(values: np.ndarray, *factors) -> float:
    """Correctly rounded sum of ``values * factors[0] * ...``, each factor
    broadcast to the shape of ``values``, one block of rows at a time."""
    full = [np.broadcast_to(f, values.shape) for f in factors]
    return stable_sum_rows(lambda rows: math.prod((f[rows] for f in full), start=values[rows]), values.shape)


def xlogx(f: np.ndarray) -> np.ndarray:
    """f log f of a nonnegative array, with one temporary: -0.0 at f = +0
    and +0.0 at f = -0; callers negate its sums as ``0.0 - sum``."""
    g = np.maximum(f, 5e-324)
    return np.multiply(f, np.log(g, out=g), out=g)


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


QUAD_ORDER = 16  # each panel compares this order with twice it
QUAD_MAX_PANELS = 20000
QUAD_WIDTH_FLOOR = 1e-14  # panels narrower than this share of the box are accepted


@lru_cache(maxsize=16)
def _tensor_rule_01(order: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on [0, 1]^d: nodes (order^d, d), weights (order^d,)."""
    X, W = (np.stack(np.meshgrid(*([a] * d), indexing="ij"), axis=-1).reshape(-1, d)
            for a in gauss_legendre_01(order))
    W = W.prod(axis=1)
    X.flags.writeable = False
    W.flags.writeable = False
    return X, W


def adaptive_quad(fun, lo, hi, *, rel_tol: float = 1e-10, abs_tol: float = 0.0):
    """Panel-adaptive tensor Gauss-Legendre integration over the box [lo, hi] in R^d.

    ``fun`` maps points of shape (..., d) to values of shape (...).  Each panel
    compares orders ``QUAD_ORDER`` and ``2 * QUAD_ORDER`` and, while its error
    estimate exceeds its volume share of the budget, is bisected along its
    longest axis.  Returns ``(value, err_est)``; an empty box gives (0, 0).
    Deterministic: panels are processed depth-first in a fixed order.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if np.any(hi <= lo):
        return 0.0, 0.0
    rules = {m: _tensor_rule_01(m, lo.size) for m in (QUAD_ORDER, 2 * QUAD_ORDER)}

    def panel(plo, width, vol, m):
        X, W = rules[m]
        return vol * float((W * fun(plo + width * X)).sum())

    total_width = hi - lo
    total_vol = float(total_width.prod())
    whole = panel(lo, total_width, total_vol, 2 * QUAD_ORDER)
    scale = max(abs_tol, rel_tol * max(abs(whole), 1e-300))
    floor = QUAD_WIDTH_FLOOR * total_width
    stack = [(lo, hi, whole)]  # a panel's order-2m value, once known
    accepted = []
    errors = []
    panels = 0
    while stack:
        plo, phi, i2 = stack.pop()
        panels += 1
        if panels > QUAD_MAX_PANELS:
            raise NumericalError("adaptive quadrature exceeded panel budget")
        width = phi - plo
        vol = float(width.prod())
        i1 = panel(plo, width, vol, QUAD_ORDER)
        if i2 is None:
            i2 = panel(plo, width, vol, 2 * QUAD_ORDER)
        err = abs(i2 - i1)
        if err <= scale * vol / total_vol or (width < floor).all():
            accepted.append(i2)
            errors.append(err)
        else:
            axis = int(width.argmax())
            mid = 0.5 * (plo[axis] + phi[axis])
            hi1 = phi.copy()
            hi1[axis] = mid
            lo2 = plo.copy()
            lo2[axis] = mid
            stack.append((lo2, phi, None))
            stack.append((plo, hi1, None))
    return math.fsum(accepted), math.fsum(errors)


# Each direction costs a caller one adaptive quadrature, about 0.3 ms.
MAX_DIRECTIONS = 1 << 16


def unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic unit directions: signs in d=1, equal angles in d=2,
    seeded normalized Gaussians beyond."""
    if not 1 <= count <= MAX_DIRECTIONS:
        raise LceError(f"direction count must be in [1, {MAX_DIRECTIONS}], got {count}")
    if dim == 1:
        reps = [(-1.0) ** i for i in range(count)]
        return np.array(reps).reshape(-1, 1)
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
