"""Tensor B-spline smoothing of lattice p.m.f.s and differential entropy.

The order-n cardinal B-spline is the density of the sum of n independent
uniforms on [0, 1); smoothing a p.m.f. with its tensor product yields the
density of S + U_1 + ... + U_n.  Its differential entropy has one entry,
:func:`smoothed_entropy_detail`, integrated cell by cell with tensor
Gauss-Legendre rules of the fixed order ``QUAD_ORDER`` against twice it, and
refined by order doubling per cell until the contribution errors sum below
the requested tolerance.  Only the kernel makes the integrand non-smooth (at cells where the mass steps to
zero), so refinement touches a handful of cells in practice.  Nodes with one
kernel stencil share one f log f: n = 1 takes one log per block of cells.
Every f log f is :func:`~lce.numerics.xlogx` of nonnegative values, and each
-sum f log f is taken as ``0.0 - sum``.
Only cells of nonzero cover (the sum of their n^d stencil masses) are
integrated, bit for bit: the masses are nonnegative, so any other cell has
f = +-0 at every node and integrates to +0.0 anyway.
The density is never evaluated point by point here; the pointwise sum that
checks the cell quadrature is a test oracle.
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
ORDER_CAP = 2048
REFINE_CELL_CAP = 8192
TINY_CELL_FLOOR = 1e-30
MAX_KERNEL_ORDER = 12
CELLS_PER_BLOCK = 1 << 15  # output cells per block of _cell_integrals


def bspline_eval(n: int, x) -> np.ndarray:
    """Cardinal B-spline of order n (n-fold self-convolution of 1_[0,1)).

    Supported on [0, n]; evaluated by the two-term recursion
    B_n(x) = (x B_{n-1}(x) + (n - x) B_{n-1}(x - 1)) / (n - 1).
    """
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_KERNEL_ORDER:
        raise LceError(f"B-spline order must be an integer in 1..{MAX_KERNEL_ORDER}, got {n!r}")
    xa = np.asarray(x, dtype=np.float64)
    out = _bspline_rec(n, xa)
    return out if out.shape else float(out)


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
    value: float
    cells: int
    refined_cells: int
    error_estimate: float
    tiny_cell_bound: float


def _kernel_node_weights(n: int, nodes: np.ndarray) -> list[np.ndarray]:
    return [bspline_eval(n, nodes + j) for j in range(n)]


def _cell_integrals(p: LatticePmf, n: int, order: int, cover: np.ndarray) -> np.ndarray:
    """Per-cell integral of -f_n log f_n at a tensor Gauss-Legendre order;
    ``cover`` is ``_cover(p, n)``.

    Every unit cell shares the same local nodes; each node is one multiply-add
    per kernel term of a cell's stencil masses.  Blocks of about
    ``CELLS_PER_BLOCK`` cells (whole rows of axis 0) gather the n^d masses of
    their nonzero-cover cells (:func:`_cover`) once, run the node loop on
    them, and scatter the sums into a zeroed output.  This is bit-equal to a
    zero-filled loop over all cells: a zero-cover cell has f = +-0 at every
    node and ends at +0.0 there too; in a kept cell, writing the first term
    and adding c * +0.0 for a mass outside the array change only the sign of
    a zero f, where ``xlogx`` gives -+0.0, and subtracting a zero leaves each
    sum (from +0, never -0.0).  A node with the previous node's terms reuses
    its f log f.
    """
    d = p.dim
    vals = p.values
    nodes, weights = gauss_legendre_01(order)
    kernel = _kernel_node_weights(n, nodes)
    steps = []
    for node in product(range(order), repeat=d):
        w = math.prod(weights[a] for a in node)
        terms = []
        for j in product(range(n), repeat=d):
            c = math.prod(kernel[ji][a] for ji, a in zip(j, node))
            if c > 0.0:
                terms.append((c, j))
        steps.append((w, terms))
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
        masses = {j: piece.take(at - np.ravel_multi_index(j, piece.shape)) for j in product(range(n), repeat=d)}
        f = np.empty(kept.size)
        total = np.zeros(kept.size)
        last = None
        for w, terms in steps:
            if terms != last:
                last = terms
                for k, (c, j) in enumerate(terms):
                    if k:
                        f += c * masses[j]
                    else:
                        np.multiply(masses[j], c, out=f)
                g = xlogx(f)
            total -= w * g
        block.reshape(-1)[kept] = total
    return acc


def _cover(p: LatticePmf, n: int) -> np.ndarray:
    """Sum of the n^d stencil masses p(k - j) at each cell k of the smoothed support."""
    cover = np.zeros(tuple(s + n - 1 for s in p.values.shape))
    for j in product(range(n), repeat=p.dim):
        cover[tuple(slice(ji, ji + s) for ji, s in zip(j, p.values.shape))] += p.values
    return cover


def _stencil_values(p: LatticePmf, cell: tuple[int, ...], n: int) -> np.ndarray:
    """Masses p(cell - j) over the kernel stencil; ``cell`` in absolute coords."""
    sv = np.zeros((n,) * p.dim)
    for j in product(range(n), repeat=p.dim):
        sv[j] = p.value_at(tuple(c - ji for c, ji in zip(cell, j)))
    return sv


def _tensor_cell_integral(sv: np.ndarray, n: int, order: int, d: int) -> float:
    nodes, weights = gauss_legendre_01(order)
    K = np.stack(_kernel_node_weights(n, nodes))  # (n, order)
    f = sv
    for _ in range(d):
        f = np.tensordot(f, K, axes=([0], [0]))
    val = xlogx(f)
    for _ in range(d):
        val = np.tensordot(val, weights, axes=([0], [0]))
    return 0.0 - float(val)


def _refine_cell(p, n, cell, start_order, tol_cell) -> float:
    sv = _stencil_values(p, cell, n)
    prev = None
    order = start_order
    while order <= ORDER_CAP:
        cur = _tensor_cell_integral(sv, n, order, p.dim)
        if prev is not None and abs(cur - prev) <= tol_cell:
            return cur
        prev = cur
        order *= 2
    raise NumericalError(
        f"cell {cell} did not converge below {tol_cell:.2e} at order cap {ORDER_CAP}"
    )


def smoothed_entropy_detail(p: LatticePmf, n: int, tol: float = DEFAULT_ENTROPY_TOL) -> SmoothedEntropyDetail:
    """h(S + U_1 + ... + U_n) in nats, with its cell counts and error bounds.  For n = 1
    the density is constant on every cell, so the value is H(p) to rounding accuracy."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise LceError(f"n must be an integer >= 1, got {n!r}")
    if not 0.0 < tol < math.inf:
        raise LceError(f"tol must be a finite positive number, got {tol!r}")
    cover = _cover(p, n)
    I1 = _cell_integrals(p, n, QUAD_ORDER, cover)
    I2 = _cell_integrals(p, n, 2 * QUAD_ORDER, cover)
    diff = np.abs(I2 - I1)
    ncells = I2.size
    lo = p.box.lo
    refined = 0
    err_accepted = stable_sum(diff)
    if err_accepted > 0.5 * tol:
        # Refine the smallest set of worst cells so that the error left in the
        # accepted cells stays below tol/2; each refined cell then gets an
        # equal share of the remaining budget.
        flat = diff.ravel()
        order_desc = np.argsort(-flat, kind="stable")
        cum = np.cumsum(flat[order_desc])
        total = float(cum[-1])
        # smallest k with total - cum[k-1] <= tol/2
        k = int(np.searchsorted(cum, total - 0.5 * tol, side="left")) + 1
        k = min(k, flat.size)
        if k > REFINE_CELL_CAP:
            raise NumericalError(f"{k} cells need refinement, cap is {REFINE_CELL_CAP}")
        chosen = np.sort(order_desc[:k])  # lexicographic processing order
        tol_each = 0.5 * tol / k
        for flat_idx in chosen:
            idx = np.unravel_index(int(flat_idx), I2.shape)
            cell = tuple(int(a) + l for a, l in zip(idx, lo))
            I2[idx] = _refine_cell(p, n, cell, 4 * QUAD_ORDER, tol_each)
        refined = k
        err_accepted = stable_sum(np.delete(flat, chosen)) + k * tol_each

    # Certified bound on the contribution of cells whose covering mass is tiny:
    # f_n <= sum of stencil masses (the kernel peaks below 1), and -x log x is
    # increasing there, so such cells are negligible regardless of quadrature.
    def tiny_terms(rows):
        c = cover[rows]
        return xlogx(np.where((c > 0.0) & (c < TINY_CELL_FLOOR), c, 0.0))

    tiny_bound = 0.0 - stable_sum_rows(tiny_terms, cover.shape)
    value = stable_sum(I2)
    del cover, I1, I2, diff
    _malloc_trim(0)  # so that the level-sized arrays just freed leave no resident holes in the heap
    return SmoothedEntropyDetail(
        value=value,
        cells=int(ncells),
        refined_cells=refined,
        error_estimate=float(err_accepted),
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
