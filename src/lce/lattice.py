"""Dense probability mass functions on Z^d: construction and convolution.

A :class:`LatticePmf` stores nonnegative mass values over an inclusive
axis-aligned integer box in row-major order (last axis fastest), together with
a ``deficit``: an upper bound on the mass truncated outside the box.  Deficits
are tracked through every operation and never silently renormalized, so the
error budget of any downstream quantity remains auditable.

Every FFT convolution is checked at sample cells against direct summation of
a window of one operand times the flipped window of the other.  A float sum
of the window products, with a certified bound on its error, decides most
cells; a cell that bound cannot decide falls back to
:func:`~lce.numerics.stable_sum`, exact up to one rounding, so the verdict is
that of exact sums at every cell.  The FFT never holds a whole
padded spectrum: besides the operands and the output it holds their rfft along
the last axis, one complex array of the output's leading shape by the rfft's
width, and one panel of about ``_FFT_PANEL_BYTES`` per operand at a time.

All values are immutable after construction and operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .densities import ContinuousDensity
from .errors import LceError, NumericalError
from .numerics import next_pow2, stable_sum

# Hard cap on dense cells for any single array (memory guard).
CELL_CAP = 1 << 26

# Above this direct-convolution cost estimate, switch to the FFT path.
_DIRECT_COST_CAP = 1 << 22

DEFAULT_TAIL_TOLERANCE = 1e-12
# A tail sum longer than this many shells is taken in closed form.
_TAIL_LOOP_SHELLS = 10_000
DEFAULT_RADIUS_MULTIPLIER = 12.0

_FFT_CHECK_SAMPLES = 64
_FFT_CHECK_TOL = 1e-10
# Bytes of one panel of padded spectrum columns, and output rows per irfft block.
_FFT_PANEL_BYTES = 1 << 20
_IRFFT_ROWS = 64


@dataclass(frozen=True)
class Box:
    """Inclusive integer box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) == 0:
            raise LceError("box bounds must be nonempty and of equal length")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise LceError(f"empty box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    def contains(self, point) -> bool:
        return all(l <= int(x) <= h for l, x, h in zip(self.lo, point, self.hi))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.lo[axis], self.hi[axis] + 1)

    def grid(self) -> np.ndarray:
        """Lattice coordinates of every cell, shape (*shape, dim)."""
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).astype(np.float64)

    def minkowski(self, other: "Box") -> "Box":
        if self.dim != other.dim:
            raise LceError("box dimensions differ")
        return Box(
            tuple(a + b for a, b in zip(self.lo, other.lo)),
            tuple(a + b for a, b in zip(self.hi, other.hi)),
        )


def _check_cells(box: Box):
    if box.ncells > CELL_CAP:
        raise LceError(f"box with {box.ncells} cells exceeds cap {CELL_CAP}")


@dataclass(frozen=True)
class LatticePmf:
    """Nonnegative mass values on a box, plus the truncated-mass deficit."""

    box: Box
    values: np.ndarray
    deficit: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != self.box.shape:
            raise LceError(f"values shape {vals.shape} != box shape {self.box.shape}")
        lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 0.0)  # min and max carry a nan
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise LceError("p.m.f. values must be finite")
        if lo < 0.0:
            raise LceError("p.m.f. values must be nonnegative")
        if not (0.0 <= self.deficit < 1.0):
            raise LceError("deficit must lie in [0, 1)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.box.dim

    @cached_property
    def mass(self) -> float:
        return stable_sum(self.values)

    def value_at(self, point) -> float:
        if not self.box.contains(point):
            return 0.0
        idx = tuple(int(x) - l for x, l in zip(point, self.box.lo))
        return float(self.values[idx])

    def assert_normalized(self):
        if abs(self.mass + self.deficit - 1.0) > 1e-9:
            raise LceError(f"mass {self.mass} + deficit {self.deficit} differs from 1 by more than 1e-9")

@dataclass(frozen=True)
class LatticeSet:
    """Finite set of integer points in Z^d."""

    dim: int
    points: frozenset

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.dim:
                raise LceError(f"point {p} does not have dimension {self.dim}")

    @classmethod
    def from_iterable(cls, dim: int, pts) -> "LatticeSet":
        arr = np.asarray(pts, dtype=np.int64)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != dim):
            raise LceError(f"points of shape {arr.shape} do not have dimension {dim}")
        return cls(dim, frozenset(map(tuple, arr.reshape(-1, dim).tolist())))

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(int(x) for x in p) in self.points

    def sorted_points(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def array(self) -> np.ndarray:
        if not self.points:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.array(self.sorted_points(), dtype=np.int64)

    def bounding_box(self) -> Box:
        if not self.points:
            raise LceError("empty set has no bounding box")
        arr = self.array()
        return Box(tuple(int(x) for x in arr.min(axis=0)), tuple(int(x) for x in arr.max(axis=0)))


def support_set(p: LatticePmf) -> LatticeSet:
    idx = np.argwhere(p.values > 0.0)
    pts = idx + np.array(p.box.lo, dtype=np.int64)
    return LatticeSet.from_iterable(p.dim, pts)


# ---------------------------------------------------------------------------
# constructors


def point_mass(point) -> LatticePmf:
    pt = tuple(int(x) for x in (point if hasattr(point, "__len__") else [point]))
    box = Box(pt, pt)
    return LatticePmf(box, np.ones(box.shape), 0.0, {"family": "point_mass"})


def make_product(factors: list[LatticePmf]) -> LatticePmf:
    """Product p.m.f. of one-dimensional factors; deficit bounded by the sum."""
    if not factors:
        raise LceError("need at least one factor")
    for f in factors:
        if f.dim != 1:
            raise LceError("make_product expects 1-d factors")
        f.assert_normalized()
    lo = tuple(f.box.lo[0] for f in factors)
    hi = tuple(f.box.hi[0] for f in factors)
    box = Box(lo, hi)
    _check_cells(box)
    vals = reduce(np.multiply.outer, [f.values for f in factors])
    deficit = min(1.0 - 1e-15, math.fsum(f.deficit for f in factors))
    return LatticePmf(box, vals, deficit, {"family": "product"})


def lattice_tail_sum_bound(density: ContinuousDensity, inf_radius: int) -> float:
    """Upper bound on sum of f over lattice points at L-inf distance > inf_radius from the origin.

    Uses the declared exponential tail majorant over L-inf shells; valid because
    |k|_2 >= |k|_inf.  Requires the shells to start beyond the majorant's
    validity radius.  Sums shell by shell when that stops within
    ``_TAIL_LOOP_SHELLS`` shells, and in closed form beyond them.
    """
    tb = density.tail_bound
    m0 = int(inf_radius) + 1
    if m0 < tb.radius:
        raise LceError(
            f"truncation box (inradius {inf_radius}) lies inside the tail-bound radius {tb.radius}; "
            "increase radius_multiplier"
        )
    d, amplitude, rate = density.dim, tb.amplitude, tb.rate
    # The loop stops at the first term below 1e-300 or below 1e-18 of its
    # running total.  No term exceeds top = shell(last) exp(-rate m0), so the
    # total stays below _TAIL_LOOP_SHELLS * top; and shell(m) exp(-rate m) is
    # log-concave in m, so the least term is at an end.  If both ends clear
    # that test with a margin for rounding, the loop would run all its shells,
    # and the closed form replaces it.
    last = m0 + _TAIL_LOOP_SHELLS - 1
    ends = [float(_shell(d, m)) * amplitude * math.exp(-rate * m) for m in (m0, last)]
    top = float(_shell(d, last)) * amplitude * math.exp(-rate * m0)
    if min(ends) >= (1.0 + 1e-6) * max(1e-300, 1e-18 * _TAIL_LOOP_SHELLS * top):
        return amplitude * _shell_series(d, rate, m0)
    total = 0.0
    for m in range(m0, last + 1):
        term = float(_shell(d, m)) * amplitude * math.exp(-rate * m)
        total += term
        if term < 1e-300 or term < 1e-18 * max(total, 1e-300):
            return total
    return total + amplitude * _shell_series(d, rate, last + 1)


def _shell(d: int, m: int) -> int:
    """Number of points of Z^d at L-inf distance exactly m >= 1 from a point."""
    return (2 * m + 1) ** d - (2 * m - 1) ** d


def _shell_series(d: int, rate: float, start: int) -> float:
    """sum_{m >= start} shell(m) exp(-rate m), in closed form.

    With x = exp(-rate), Q(k) = shell(start + k) is a polynomial of degree
    d - 1, so Q(k) = sum_j Delta^j Q(0) C(k, j), and sum_k C(k, j) x^k =
    x^j / (1 - x)^(j + 1).  Every term is nonnegative.  Raises
    :class:`LceError` if the sum overflows.
    """
    diffs = [_shell(d, start + k) for k in range(d)]
    x, one_minus_x = math.exp(-rate), -math.expm1(-rate)
    terms = []
    for j in range(d):
        terms.append(float(diffs[0]) * x**j / one_minus_x ** (j + 1))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    total = math.exp(-rate * start) * math.fsum(terms)
    if not math.isfinite(total):
        raise LceError("tail bound sum overflows")
    return total


def truncation_box(f: ContinuousDensity, radius_multiplier: float = DEFAULT_RADIUS_MULTIPLIER) -> Box:
    """Integer box [-h, h] per axis around the origin, h = ceil(radius_multiplier
    * axis scale) and at least 1."""
    if radius_multiplier <= 0:
        raise LceError("radius_multiplier must be positive")
    half = tuple(max(1, int(math.ceil(radius_multiplier * s))) for s in f.axis_scales())
    return Box(tuple(-h for h in half), half)


def quantize_density(f: ContinuousDensity, radius_multiplier: float = DEFAULT_RADIUS_MULTIPLIER) -> LatticePmf:
    """Sample f at the lattice points of :func:`truncation_box` and normalize.

    The retained values are scaled so that retained mass plus the certified
    out-of-box bound equals one; the bound (divided by the same normalizer)
    becomes the deficit.  Mass ratios inside the box are those of f exactly.
    """
    box = truncation_box(f, radius_multiplier)
    _check_cells(box)
    vals = f.evaluate(box.grid())
    lo, hi = float(vals.min()), float(vals.max())  # min and max carry a nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise LceError("density evaluated to a non-finite value on the box")
    if lo < 0:
        raise LceError("density evaluated to a negative value")
    retained = stable_sum(vals)
    if retained <= 0:
        raise LceError("density carries no mass on the box")
    outside = lattice_tail_sum_bound(f, min(box.hi))
    normalizer = retained + outside
    deficit = outside / normalizer
    if deficit > DEFAULT_TAIL_TOLERANCE:
        raise LceError(
            f"deficit bound {deficit:.3e} exceeds tail tolerance {DEFAULT_TAIL_TOLERANCE:.3e}; "
            "increase radius_multiplier"
        )
    meta = {"family": f.name, "params": dict(f.params), "radius_multiplier": radius_multiplier}
    return LatticePmf(box, vals / normalizer, deficit, meta)


# ---------------------------------------------------------------------------
# convolution


def convolve(p: LatticePmf, q: LatticePmf, method: str = "auto") -> LatticePmf:
    """Convolution (p * q)(k) = sum_j p(j) q(k - j) on the Minkowski-sum box.

    ``method`` is ``direct``, ``fft`` or ``auto``.  The FFT path is verified
    against direct summation on a deterministic subsample of output cells on
    every call, of a window of p times the flipped window of q: first a float
    sum with a certified error bound, then, where the bound cannot decide,
    ``stable_sum``, exact up to its one rounding, so no order of the products
    can change the verdict.
    """
    if p.dim != q.dim:
        raise LceError("convolution operands have different dimensions")
    out_box = p.box.minkowski(q.box)
    _check_cells(out_box)
    if method not in ("auto", "direct", "fft"):
        raise LceError(f"unknown convolution method {method!r}")
    p_nnz, q_nnz = np.count_nonzero(p.values), np.count_nonzero(q.values)
    # The direct path loops over the operand with fewer nonzero cells.
    small, big = (q, p) if q_nnz <= p_nnz else (p, q)
    if method == "auto":
        cost = int(min(p_nnz, q_nnz)) * max(p.box.ncells, q.box.ncells)
        method = "direct" if cost <= _DIRECT_COST_CAP else "fft"
    if method == "direct":
        out = _convolve_direct(small.values, big.values, out_box.shape)
    else:
        scale = max(1.0, float(np.sum(p.values)) * float(np.sum(q.values)))
        out = _convolve_fft(p.values, q.values, out_box.shape, scale)
        _verify_fft_subsample(p.values, q.values, out, scale)
        np.maximum(out, 0.0, out=out)
    deficit = p.deficit + q.deficit - p.deficit * q.deficit
    return LatticePmf(out_box, out, deficit, {"method": method})


def _convolve_direct(small: np.ndarray, big: np.ndarray, out_shape) -> np.ndarray:
    out = np.zeros(out_shape)
    # np.argwhere returns row-major order, which fixes the accumulation order.
    for j in np.argwhere(small != 0.0):
        sl = tuple(slice(int(a), int(a) + s) for a, s in zip(j, big.shape))
        out[sl] += small[tuple(j)] * big
    return out


def _convolve_fft(p: np.ndarray, q: np.ndarray, out_shape, scale: float) -> np.ndarray:
    padded = tuple(next_pow2(s) for s in out_shape)
    lead = range(len(padded) - 1)
    # The passes of rfftn, product and irfftn, in their order: rfft on the last
    # axis (one spectrum for a self-convolution), then per panel of frequency
    # columns the fft on axes d-2 .. 0, the product and the ifft on axes
    # 0 .. d-2, each cut to out_shape before the next, and last the irfft in
    # blocks of rows.  The same 1-d transforms of the kept rows, so the same
    # bits, and no whole padded spectrum is ever alive.
    spectra = [np.fft.rfft(x, n=padded[-1], axis=-1) for x in ((p,) if q is p else (p, q))]
    cols = padded[-1] // 2 + 1
    mid = np.empty(out_shape[:-1] + (cols,), dtype=np.complex128)
    width = max(1, _FFT_PANEL_BYTES // (16 * math.prod(padded[:-1])))
    for c in range(0, cols, width):
        panels = []
        for spectrum in spectra:
            panel = spectrum[..., c : c + width]
            for ax in reversed(lead):
                panel = np.fft.fft(panel, n=padded[ax], axis=ax)
            panels.append(panel)
        panel = panels[0] * panels[-1]
        del panels
        for ax in lead:
            panel = np.fft.ifft(panel, n=padded[ax], axis=ax)[(slice(None),) * ax + (slice(0, out_shape[ax]),)]
        mid[..., c : c + width] = panel
    del spectra, panel
    out = np.empty(out_shape)
    freqs, lines = mid.reshape(-1, cols), out.reshape(-1, out_shape[-1])
    for r in range(0, len(lines), _IRFFT_ROWS):
        lines[r : r + _IRFFT_ROWS] = np.fft.irfft(freqs[r : r + _IRFFT_ROWS], n=padded[-1])[:, : out_shape[-1]]
    if float(out.min()) < -_FFT_CHECK_TOL * scale:
        raise NumericalError("FFT convolution produced a significantly negative value")
    return out


def _verify_fft_subsample(p: np.ndarray, q: np.ndarray, out: np.ndarray, scale: float):
    """Compare ``out`` with direct summation at up to ``_FFT_CHECK_SAMPLES`` cells.

    At cell c, j runs over lo = max(0, c - shape(q) + 1) .. hi = min(c, shape(p) - 1)
    on each axis: p[lo:hi+1] times q[c-hi : c-lo+1] flipped on every axis.
    The n products are nonnegative, so numpy's sum S of them, in whatever
    order, lies within gamma_(n-1) S of their exact sum E (Higham, "Accuracy
    and Stability of Numerical Algorithms", 2002, 4.2), and ``stable_sum`` is
    E rounded once.  So where |S - fft| + 2 (n + 2) 2^-53 S is at most half
    the tolerance, |stable_sum - fft| is within it, with room for the
    roundings of the test itself, and the cell passes with no exact sum.
    Every other cell, nan and inf included, is summed exactly as before.  A
    discrepancy above the tolerance therefore lies on an exactly summed
    cell, and the verdict and the message are those of exact sums at every
    cell.
    """
    # Sorted already, so dropping repeats needs no np.unique (which imports numpy.ma).
    idx = np.linspace(0, out.size - 1, num=min(_FFT_CHECK_SAMPLES, out.size)).astype(np.int64)
    flat = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
    flip = (slice(None, None, -1),) * out.ndim
    limit = _FFT_CHECK_TOL * scale
    worst = 0.0
    cells = np.stack(np.unravel_index(flat, out.shape), axis=1).tolist()
    for cell, fft_val in zip(cells, out.ravel()[flat].tolist()):
        lo = [max(0, c - s + 1) for c, s in zip(cell, q.shape)]
        hi = [min(c, s - 1) for c, s in zip(cell, p.shape)]
        p_win = p[tuple(slice(a, b + 1) for a, b in zip(lo, hi))]
        q_win = q[tuple(slice(c - b, c - a + 1) for c, a, b in zip(cell, lo, hi))][flip]
        prod = p_win * q_win
        rough = float(prod.sum())
        if abs(rough - fft_val) + 2 * (prod.size + 2) * 2.0**-53 * rough <= 0.5 * limit:
            continue
        worst = max(worst, abs(stable_sum(prod) - fft_val))
    if worst > limit:
        raise NumericalError(f"FFT/direct subsample discrepancy {worst:.3e} exceeds {limit:.3e}")


# ---------------------------------------------------------------------------
# file formats (structured text, JSON encoding)


def pmf_to_doc(p: LatticePmf) -> dict:
    return {
        "dim": p.dim,
        "lo": list(p.box.lo),
        "hi": list(p.box.hi),
        "values": [float(v) for v in p.values.ravel(order="C")],
        "deficit": float(p.deficit),
        "meta": dict(p.meta),
    }


def pmf_from_doc(doc: dict) -> LatticePmf:
    try:
        lo, hi, dim, values = tuple(doc["lo"]), tuple(doc["hi"]), doc["dim"], doc["values"]
        vals = np.array(values, dtype=np.float64)
        deficit = float(doc.get("deficit", 0.0))
        meta = dict(doc.get("meta", {}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise LceError(f"malformed p.m.f. document: {exc!r}") from None
    # The conversions above would accept bools, strings and fractional bounds.
    if not all(type(x) is int for x in (dim, *lo, *hi)):
        raise LceError("p.m.f. document: dim, lo and hi must be integers")
    if not (isinstance(values, list) and all(type(x) in (int, float) for x in (*values, doc.get("deficit", 0.0)))):
        raise LceError("p.m.f. document: values must be a list of numbers, and deficit a number")
    box = Box(lo, hi)
    if box.dim != dim:
        raise LceError("dim field inconsistent with bounds")
    if vals.size != box.ncells:
        raise LceError(f"p.m.f. document has {vals.size} values for a box of {box.ncells} cells")
    return LatticePmf(box, vals.reshape(box.shape, order="C"), deficit, meta)


def save_pmf(p: LatticePmf, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pmf_to_doc(p), fh, indent=1)
        fh.write("\n")


def load_pmf(path) -> LatticePmf:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise LceError(f"cannot read p.m.f. file {path}: {exc}") from None
    return pmf_from_doc(doc)
