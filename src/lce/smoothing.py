"""Tensor B-spline smoothing of lattice p.m.f.s and differential entropy.

The order-n cardinal B-spline is the density of the sum of n independent
uniforms on [0, 1); smoothing a p.m.f. with its tensor product yields the
density of S + U_1 + ... + U_n.  Its differential entropy has one entry,
:func:`smoothed_entropy_detail`, and one kernel, :func:`_cell_integrals`:
tensor Gauss-Legendre rules per cell, of the fixed order ``QUAD_ORDER``
against twice it.  If the cells' |I(2m) - I(m)| sum above tol/2, the whole
level goes on to the next order pair, (16, 32), then (32, 64) and so on.
Only the kernel makes the integrand non-smooth (where the mass steps to
zero), so that path is rare.  Every f log f is :func:`~lce.numerics.xlogx` of
nonnegative values, and each -sum f log f is taken as ``0.0 - sum``.  Only
cells of nonzero cover (the sum of their n^d stencil masses) are integrated,
bit for bit: any other cell has f = +-0 at every node and gives +0.0 anyway.
The pointwise density that checks the cell quadrature is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import LceError, NumericalError
from .lattice import LatticePmf, _malloc_trim
from .numerics import gauss_legendre_01, stable_sum, stable_sum_rows, xlogx

QUAD_ORDER = 8  # each cell compares this order with twice it
DEFAULT_ENTROPY_TOL = 1e-8
ORDER_CAP = 2048  # bounds the Gauss-Legendre eigen-solve
PASS_CAP = 1 << 27  # multiply-adds of one escalated pass: nodes x kernel terms x kept cells
TINY_CELL_FLOOR = 1e-30
MAX_KERNEL_ORDER = 12
CELLS_PER_BLOCK = 1 << 15  # output cells per block of _cell_integrals


def bspline_eval(n: int, x) -> np.ndarray:
    """Cardinal B-spline of order n (n-fold self-convolution of 1_[0,1)).

    Supported on [0, n]; evaluated by the two-term recursion
    B_n(x) = (x B_{n-1}(x) + (n - x) B_{n-1}(x - 1)) / (n - 1).
    """
    _check_kernel_order(n)
    xa = np.asarray(x, dtype=np.float64)
    out = _bspline_rec(n, xa)
    return out if out.shape else float(out)


def _check_kernel_order(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_KERNEL_ORDER:
        raise LceError(f"B-spline order must be an integer in 1..{MAX_KERNEL_ORDER}, got {n!r}")


def _bspline_rec(n: int, x: np.ndarray) -> np.ndarray:
    if n == 1:
        return ((x >= 0.0) & (x < 1.0)).astype(np.float64)
    prev = _bspline_rec(n - 1, x)
    prev_shift = _bspline_rec(n - 1, x - 1.0)
    return (x * prev + (n - x) * prev_shift) / (n - 1)


# ---------------------------------------------------------------------------
# differential entropy


@dataclass(frozen=True)
class SmoothedEntropyDetail:
    """``refined_cells`` counts the cells integrated again when the order was
    raised (0 if it was not); ``error_estimate`` is the accepted order pair's
    sum of |I(2m) - I(m)| over the cells."""

    value: float
    cells: int
    refined_cells: int
    error_estimate: float
    tiny_cell_bound: float


def _cell_integrals(p: LatticePmf, n: int, order: int, cover: np.ndarray) -> np.ndarray:
    """Per-cell integral of -f_n log f_n at a tensor Gauss-Legendre order;
    ``cover`` is ``_cover(p, n)``.

    Each node is one multiply-add per kernel term of a cell's stencil masses;
    node weights and coefficients are outer products, taken left to right as
    ``math.prod`` takes them, and a node with the previous node's coefficients
    reuses its f log f (n = 1: one log per block).  Blocks of about
    ``CELLS_PER_BLOCK`` cells (whole rows of axis 0) gather the masses of
    their nonzero-cover cells once and take the distinct stencils in tiles of
    ``CELLS_PER_BLOCK // kept``; each tile of nodes folds ``total -= w * g``
    with one ``np.subtract.reduce`` along the nodes, which subtracts in node
    order (one node per tile in a block that keeps ``CELLS_PER_BLOCK`` cells).

    This is bit-equal to a zero-filled loop over all cells, one node at a
    time: a zero-cover cell has f = +-0 at every node and ends at +0.0 there
    too; in a kept cell, a mass outside the array adds c * +0.0, which changes
    only the sign of a zero f, where ``xlogx`` gives -+0.0, and subtracting a
    zero leaves each sum (from +0, never -0.0).
    """
    d = p.dim
    vals = p.values
    nodes, weights = gauss_legendre_01(order)
    kernel = np.stack([bspline_eval(n, nodes + j) for j in range(n)], axis=1)  # (node, term) on one axis
    W, C = weights, kernel
    for _ in range(d - 1):
        W, C = np.multiply.outer(W, weights), np.multiply.outer(C, kernel)
    W = W.ravel()
    C = C.transpose(*range(0, 2 * d, 2), *range(1, 2 * d, 2)).reshape(order**d, n**d)
    # the distinct stencils in node order, the first node of each, and each node's stencil
    new = np.r_[True, (C[1:] != C[:-1]).any(axis=1)]
    C, first, run = C[new], np.r_[np.flatnonzero(new), len(W)], np.cumsum(new) - 1
    offsets = np.ravel_multi_index(np.indices((n,) * d).reshape(d, -1), tuple(s + n - 1 for s in cover.shape))
    acc = np.zeros(cover.shape)
    rows = max(1, CELLS_PER_BLOCK // math.prod(cover.shape[1:]))
    inner = tuple(slice(n - 1, n - 1 + s) for s in vals.shape[1:])
    for r0 in range(0, cover.shape[0], rows):
        block = acc[r0:r0 + rows]
        kept = np.flatnonzero(cover[r0:r0 + rows])
        if not kept.size:
            continue
        # The masses from input row r0 - n + 1 on, zero-padded by n - 1 cells:
        # p(k - j) of block cell k sits at piece[k + n - 1 - j].
        piece = np.zeros(tuple(s + n - 1 for s in block.shape))
        lo, hi = max(r0 - n + 1, 0), min(r0 + len(block), vals.shape[0])
        piece[(slice(lo - r0 + n - 1, hi - r0 + n - 1),) + inner] = vals[lo:hi]
        at = np.ravel_multi_index([i + n - 1 for i in np.unravel_index(kept, block.shape)], piece.shape)
        masses = np.empty((len(offsets), kept.size))  # (term, cell)
        for m, o in zip(masses, offsets):
            piece.take(at - o, out=m)
        step = max(1, CELLS_PER_BLOCK // kept.size)
        total, fbuf = np.zeros(kept.size), np.empty((min(step, len(C)), kept.size))
        for s0 in range(0, len(C), step):
            c = C[s0:s0 + step]
            f = np.multiply(c[:, :1], masses[0], out=fbuf[:len(c)])
            for j in range(1, len(masses)):
                f += c[:, j:j + 1] * masses[j]
            g = xlogx(f)
            for t0 in range(first[s0], first[s0 + len(c)], step):
                t1 = min(t0 + step, first[s0 + len(c)])
                wg = g[run[t0:t1] - s0]  # each node's f log f row
                wg *= W[t0:t1, None]
                np.subtract(total, wg[0], out=wg[0])
                np.subtract.reduce(wg, axis=0, out=total)
        block.reshape(-1)[kept] = total
    return acc


def _cover(p: LatticePmf, n: int) -> np.ndarray:
    """Sum of the n^d stencil masses p(k - j) at each cell k of the smoothed support."""
    cover = np.zeros(tuple(s + n - 1 for s in p.values.shape))
    for j in product(range(n), repeat=p.dim):
        cover[tuple(slice(ji, ji + s) for ji, s in zip(j, p.values.shape))] += p.values
    return cover


def smoothed_entropy_detail(p: LatticePmf, n: int, tol: float = DEFAULT_ENTROPY_TOL) -> SmoothedEntropyDetail:
    """h(S + U_1 + ... + U_n) in nats, with its cell counts and error bounds.  For n = 1
    the density is constant on every cell, so the value is H(p) to rounding accuracy."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise LceError(f"n must be an integer >= 1, got {n!r}")
    _check_kernel_order(n)
    if not 0.0 < tol < math.inf:
        raise LceError(f"tol must be a finite positive number, got {tol!r}")
    cover = _cover(p, n)
    order, refined = QUAD_ORDER, 0
    I1 = _cell_integrals(p, n, order, cover)
    I2 = _cell_integrals(p, n, 2 * order, cover)
    err = stable_sum(np.abs(I2 - I1))
    while err > 0.5 * tol:
        # Integrate the whole level again at the next order pair.
        order, refined = 2 * order, int(np.count_nonzero(cover))
        if 2 * order > ORDER_CAP:
            raise NumericalError(f"error sum {err:.2e} is above {0.5 * tol:.2e} at order cap {ORDER_CAP}")
        # The pass's multiply-adds, which also bound its (2m)^d x n^d node table.
        work = (2 * order) ** p.dim * n**p.dim * refined
        if work > PASS_CAP:
            raise NumericalError(f"{refined} cells at order {2 * order}: {work} multiply-adds > pass cap {PASS_CAP}")
        I1, I2 = I2, _cell_integrals(p, n, 2 * order, cover)
        err = stable_sum(np.abs(I2 - I1))

    # Certified bound on the contribution of cells whose covering mass is tiny:
    # f_n <= sum of stencil masses (the kernel peaks below 1), and -x log x is
    # increasing there, so such cells are negligible regardless of quadrature.
    def tiny_terms(rows):
        c = cover[rows]
        return xlogx(np.where((c > 0.0) & (c < TINY_CELL_FLOOR), c, 0.0))

    tiny_bound = 0.0 - stable_sum_rows(tiny_terms, cover.shape)
    value, ncells = stable_sum(I2), I2.size
    del cover, I1, I2
    _malloc_trim(0)  # so that the level-sized arrays just freed leave no resident holes in the heap
    return SmoothedEntropyDetail(
        value=value,
        cells=int(ncells),
        refined_cells=refined,
        error_estimate=float(err),
        tiny_cell_bound=float(tiny_bound),
    )


# ---------------------------------------------------------------------------
# elementary Taylor-type estimate


def entropy_like(x: float, M: float) -> float:
    """G(x) = -x log x - x log M, with G(0) = 0."""
    if x < 0:
        raise LceError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    return -x * math.log(x) - x * math.log(M)


def elementary_estimate(a: float, b: float, mu: float, D: float, M: float) -> float:
    """Bound (2 mu / M) log(1/mu) + |b - a| log(e D / mu) for |G(b) - G(a)|.

    Valid for D, M >= 1, 0 <= a, b <= D/M, 0 < mu < 1/e, where G is
    :func:`entropy_like`.
    """
    if D < 1 or M < 1:
        raise LceError("need D >= 1 and M >= 1")
    if not (0.0 < mu < 1.0 / math.e):
        raise LceError("need 0 < mu < 1/e")
    hi = D / M
    if not (0.0 <= a <= hi and 0.0 <= b <= hi):
        raise LceError("a and b must lie in [0, D/M]")
    return (2.0 * mu / M) * math.log(1.0 / mu) + abs(b - a) * math.log(math.e * D / mu)
