"""Discrete entropy, moments, the isotropy score, the d = 1 max-mass width
product, variation sums and sums of maxima.

Entropy is in nats throughout.  Moments and sums of maxima are correctly
rounded, each one :func:`~lce.numerics.product_sum`; the argmax tie-break
is lexicographic.  Operator norms and determinants of the small covariance
matrices come from their eigenvalues (LAPACK, ``np.linalg.eigvalsh``), which a
:class:`CovarianceMatrix` takes once, in its PSD check.  The statistics take a
:class:`MomentSummary`, so a p.m.f. is summarized once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LceError
from .lattice import LatticePmf
from .numerics import product_sum, stable_sum, stable_sum_rows, xlogx  # noqa: F401  the bench traces stable_sum here

_ARGMAX_BLOCK = 1 << 15  # values per block of the argmax search


@dataclass(frozen=True)
class CovarianceMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.entries, dtype=np.float64)
        if m.shape != (self.dim, self.dim):
            raise LceError("covariance shape mismatch")
        scale = 1.0 + float(np.abs(m).max(initial=0.0))
        if float(np.abs(m - m.T).max(initial=0.0)) > 1e-12 * scale:
            raise LceError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(m)
        if eig.size and float(eig[0]) < -1e-9 * scale:
            raise LceError(f"covariance has eigenvalue {eig[0]}, not PSD within tolerance")
        m.flags.writeable = False
        eig.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_eig", eig)

    def eigenvalues(self) -> np.ndarray:
        return self._eig

    def det(self) -> float:
        return float(np.prod(self.eigenvalues()))


@dataclass(frozen=True)
class MomentSummary:
    mass: float
    mean: np.ndarray
    cov: CovarianceMatrix
    max_value: float
    argmax: tuple[int, ...]
    sigma_hat: float


@dataclass(frozen=True)
class IsotropyScore:
    op_norm_deviation: float
    normalized: float


def shannon_entropy(p: LatticePmf) -> float:
    """H(p) = -sum p log p in nats, with 0 log 0 = 0."""
    p.assert_normalized()
    v = p.values.reshape(-1)
    return 0.0 - stable_sum_rows(lambda rows: xlogx(v[rows]), v.shape)


def discrete_moments(p: LatticePmf) -> MomentSummary:
    p.assert_normalized()
    d = p.dim
    vals = p.values
    mass = p.mass
    if mass == 0.0:
        raise LceError("p.m.f. has no mass")
    coords = [p.box.axis_coords(i).astype(np.float64).reshape([-1 if k == i else 1 for k in range(d)])
              for i in range(d)]
    mean = np.array([product_sum(vals, coords[i]) / mass for i in range(d)])
    cov = np.zeros((d, d))
    for i in range(d):
        ci = coords[i] - mean[i]
        for j in range(i, d):
            cov[i, j] = cov[j, i] = product_sum(vals, ci, coords[j] - mean[j]) / mass
    # The first maximum in C order is the lexicographically smallest.  argmax
    # copies a read-only array, so it runs on the first block that holds one.
    vmax = float(vals.max())
    flat = vals.reshape(-1)
    start = next(r for r in range(0, flat.size, _ARGMAX_BLOCK) if flat[r:r + _ARGMAX_BLOCK].max() == vmax)
    idx = np.unravel_index(start + int(flat[start:start + _ARGMAX_BLOCK].argmax()), vals.shape)
    argmax = tuple(int(a) + l for a, l in zip(idx, p.box.lo))
    cov = CovarianceMatrix(d, cov)
    sigma_hat = max(cov.det(), 0.0) ** (1.0 / (2.0 * d))
    return MomentSummary(mass=mass, mean=mean, cov=cov, max_value=vmax, argmax=argmax, sigma_hat=sigma_hat)


def isotropy_score(summary: MomentSummary) -> IsotropyScore:
    """Operator-norm deviation of Cov from sigma_hat^2 * I, absolute and per sigma_hat."""
    if summary.sigma_hat <= 0.0 or summary.cov.det() <= 0.0:
        raise LceError("degenerate covariance: isotropy score undefined")
    d = summary.cov.dim
    dev = summary.cov.entries - summary.sigma_hat**2 * np.eye(d)
    eig = np.linalg.eigvalsh(dev)
    op = float(np.max(np.abs(eig)))
    return IsotropyScore(op_norm_deviation=op, normalized=op / summary.sigma_hat)


def max_pmf_width_product(s: MomentSummary) -> float:
    """d=1 statistic max p * sqrt(1 + 4 Var(p)), from the summary of p."""
    if s.cov.dim != 1:
        raise LceError("max_pmf_width_product is defined for d = 1 only")
    return s.max_value * math.sqrt(1.0 + 4.0 * float(s.cov.entries[0, 0]))


def variation_sum(p: LatticePmf, axis: int) -> float:
    """Total variation along one axis: sum over the enlarged box of |p(k) - p(k - e_axis)|.

    The differences of the p.m.f. padded with a zero on each side of ``axis``
    are taken one block of rows at a time; on axis 0 a block reads the row
    before it too."""
    if not (0 <= axis < p.dim):
        raise LceError(f"axis {axis} out of range for dimension {p.dim}")
    vals = p.values
    shape = list(vals.shape)
    shape[axis] += 1
    pad = [(0, 0)] * p.dim
    pad[axis] = (1, 1)

    def term(rows):
        if axis:
            return np.abs(np.diff(np.pad(vals[rows], pad), axis=axis))
        # differences start .. stop - 1 read rows start - 1 .. stop - 1 of the padded p.m.f.
        start, stop = rows.start, min(rows.stop, shape[0])
        ends = [(int(start == 0), int(stop == shape[0]))] + pad[1:]
        return np.abs(np.diff(np.pad(vals[max(start - 1, 0):stop], ends), axis=0))

    return stable_sum_rows(term, tuple(shape))


def sum_of_maxima(p: LatticePmf, i: int, j: int) -> float:
    """sum over l in Z^(d-j) of |l_1|^i * max over the first j axes of p.

    The first ``j`` coordinates are maximized over, the remaining ``d - j``
    summed; ``l_1`` is the first summed coordinate (axis ``j``).  ``j = 0``
    means no maximization.  Any permuted variant is obtained by permuting the
    p.m.f.'s axes first.  The weighted maxima are summed one block of rows at
    a time.
    """
    if i not in (0, 1, 2):
        raise LceError("i must be 0, 1 or 2")
    if not (0 <= j <= p.dim - 1):
        raise LceError(f"j must lie in [0, {p.dim - 1}]")
    reduced = p.values.max(axis=tuple(range(j))) if j > 0 else p.values
    weights = np.abs(p.box.axis_coords(j).astype(np.float64)) ** i  # |0|^0 = 1
    return product_sum(reduced, weights.reshape([-1] + [1] * (reduced.ndim - 1)))
