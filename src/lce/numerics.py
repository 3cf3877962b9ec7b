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
bit-equal to ``math.fsum``, in blocks of about ``_SUM_BLOCK`` values, each
handled while it is in cache.  Sums of one sign (masses, entropies,
variances) go through a certified float filter (Rump, Ogita and Oishi,
"Accurate floating-point summation, part I", SIAM J. Sci. Comput. 31, 2008);
the others, and those it cannot decide, split each value by a bit mask into
two parts whose sums per binary exponent are exact and round the exact total
once (Zhu and Hayes, "Algorithm 908", ACM TOMS 2010, vectorised).  A caller
that sums a function of an array (p log p, or p times coordinates:
:func:`product_sum`) computes it one block of rows at a time, so no sum
allocates a temporary of the array's size.  A nonzero input that cancels
exactly sums to +0.0; ``math.fsum`` of every value, in C order, takes the
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
    order; blocks hold about ``_SUM_BLOCK`` elements.  While every nonzero
    block has one sign, the filter of Rump, Ogita and Oishi (2008) takes it:
    with n values below 2^e, 2^k >= n + 2 and sigma = 2^(e+k), the parts
    t = (a + sigma) - sigma are multiples of 2^(e+k-53) below 2^(e+k) in sum,
    so ``t.sum()`` is exact in any order, and the rest r = a - t is exact and
    below 2^(e+k-53), so ``r.sum()`` is within gamma_(n-1) n 2^(e+k-53) <=
    2^(3k+e-104) of its exact sum (Higham, 2002, 4.2).  If the exact total of
    these sums minus and plus the sum of the bounds rounds (int/int true
    division) to one float, that float is the sum, as rounding is monotone.
    A mixed block, a block of the other sign or a sum the filter cannot
    decide sends every block to the bins: clearing the low 26 stored mantissa
    bits of a value of biased exponent E gives a high part, a multiple of
    2^(E-1049) below 2^(E-1022), and an exact rest, a multiple of 2^(E-1075)
    below 2^(E-1049).  ``np.bincount`` adds each part into a bin per E,
    exactly for fewer than 2^26 values, and the bins fold once into a Python
    int at scale 2^-1126 that is divided once.  A nonzero input whose exact
    sum is zero gives +0.0, as round-to-nearest and fsum do.  Empty, all-zero
    or non-finite input, 2^26 values or more and a sum that could overflow go
    to ``math.fsum`` of every value of ``term``, which is called again.
    """
    rows = max(1, _SUM_BLOCK // max(1, math.prod(shape[1:])))
    starts = range(0, shape[0], rows)

    def block(r):
        return np.ascontiguousarray(term(slice(r, r + rows)), dtype=np.float64).reshape(-1)

    bins = np.zeros((2, 2048))
    parts, certified = [], []  # the filter's exact float sums, and the blocks it took
    # sign: 0 before the first nonzero block, then its sign while the filter runs, 2 once the bins do.
    count = top = slack = sign = 0
    for r in starts:
        a = block(r)
        if not a.size:
            continue
        count += a.size
        low, high = float(a.min()), float(a.max())  # min and max carry a nan
        e = math.frexp(max(-low, high))[1]
        top = max(top, e)
        # high - low is inf or nan on a non-finite block, and finite on any other below the overflow bound.
        if not math.isfinite(high - low) or count >= _EXACT_BIN_ELEMENTS or top + count.bit_length() > _SAFE_SUM_EXP:
            return math.fsum(chain.from_iterable(map(block, starts)))
        if low == high == 0.0:
            continue
        s = (low >= 0.0) - (high <= 0.0)  # 1 or -1 for one sign, 0 for both
        if s and sign in (0, s):
            sign, k = s, (a.size + 1).bit_length()
            sigma = math.ldexp(1.0, e + k)
            t = a + sigma
            t -= sigma
            parts += float(t.sum()), float(np.subtract(a, t, out=t).sum())
            slack += 1 << max(0, 3 * k + e + 1022)  # 2^(3k+e-104) at scale 2^-1126, at least 1
            certified.append(r)
            continue
        sign = 2
        while certified:
            _bin(block(certified.pop()), bins)
        _bin(a, bins)
    if sign == 0:
        return math.fsum(chain.from_iterable(map(block, starts)))
    if certified:
        exact = _fold(np.array(parts))
        low, high = (exact - slack) / (1 << 1126), (exact + slack) / (1 << 1126)
        if low == high:
            return low + 0.0  # -0.0 + 0.0: a sum that rounds to zero is zero, and fsum gives +0.0
        while certified:
            _bin(block(certified.pop()), bins)
    return _fold(bins) / (1 << 1126)


def _bin(a: np.ndarray, bins: np.ndarray):
    """Add the high and low parts of ``a`` into the exponent bins ``bins[0]`` and ``bins[1]``."""
    bits = a.view(np.int64)
    e = bits >> 52
    e &= 0x7FF
    hi = (bits & ~((1 << 26) - 1)).view(np.float64)
    bins[0] += np.bincount(e, weights=hi, minlength=2048)
    bins[1] += np.bincount(e, weights=a - hi, minlength=2048)


def _fold(values: np.ndarray) -> int:
    """Exact sum of ``values`` at scale 2^-1126: an int, as m * 2^53 is one and x >= -1073 for m * 2^x."""
    m, x = np.frexp(values[values != 0.0])
    return sum(map(int.__lshift__, (m * 2.0**53).astype(np.int64).tolist(), (x + 1073).tolist()))


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
