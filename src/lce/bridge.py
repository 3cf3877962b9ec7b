"""Lattice sums against integrals for log-concave densities.

Implements the discrete-vs-continuous comparisons: mass, mean, second-moment
and covariance-determinant gaps, with the largest lattice value for the
quasi-concave bound |integral - lattice sum| <= max f that the ``bridge_gaps``
check asserts; and the one-dimensional first-moment bound with constant
(e + 1).  The integrals are the closed forms every density declares (mass 1,
mean 0 and its covariance), used as declared; the lattice sums, each one
:func:`~lce.numerics.product_sum`, run over the density's truncation box
around the origin.  Both covariance determinants come from
:meth:`~lce.moments.CovarianceMatrix.det`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import ContinuousDensity
from .errors import LceError
from .lattice import Box, truncation_box
from .moments import CovarianceMatrix
from .numerics import product_sum, stable_sum


@dataclass(frozen=True)
class GapReport:
    """Signed continuous-minus-lattice gaps for one density on one box."""

    sigma: float  # det(Cov_R)^(1/2d)
    mass_gap: float
    mean_gap: np.ndarray  # per axis
    second_moment_gap: np.ndarray  # per axis, uncentered
    cross_moment: dict  # (i, j) -> gap, i < j
    det_gap: float  # det(Cov_Z) - det(Cov_R)
    lattice_mass: float
    max_lattice_value: float


def _lattice_raw_moments(f: ContinuousDensity, box: Box):
    grid = box.grid()
    vals = f.evaluate(grid)
    vmax = float(vals.max())  # min and max carry a nan
    if not (math.isfinite(float(vals.min())) and math.isfinite(vmax)):
        raise LceError("density evaluated to a non-finite value")
    d = f.dim
    s0 = stable_sum(vals)
    s1 = np.array([product_sum(vals, grid[..., i]) for i in range(d)])
    s2 = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            s2[i, j] = s2[j, i] = product_sum(vals, grid[..., i], grid[..., j])
    return s0, s1, s2, vmax


def lattice_vs_integral_gaps(f: ContinuousDensity) -> GapReport:
    """Compare lattice sums of f over its truncation box with its integrals.

    The discrete covariance is normalized by the lattice mass, mirroring the
    continuous normalization.
    """
    s0, s1, s2, vmax = _lattice_raw_moments(f, truncation_box(f))
    d = f.dim
    cov = np.array(f.known_cov, dtype=np.float64)  # a copy, which CovarianceMatrix makes read-only
    if s0 <= 0:
        raise LceError("density carries no lattice mass on the box")
    det_l = CovarianceMatrix(d, s2 / s0 - np.outer(s1 / s0, s1 / s0)).det()
    det_c = CovarianceMatrix(d, cov).det()
    cross = {}
    for i in range(d):
        for j in range(i + 1, d):
            cross[(i, j)] = float(cov[i, j] - s2[i, j])
    return GapReport(
        sigma=max(det_c, 0.0) ** (1.0 / (2.0 * d)),
        mass_gap=float(1.0 - s0),
        mean_gap=0.0 - s1,  # not -s1, which gives the zero gaps of even densities a sign bit
        second_moment_gap=np.diag(cov) - np.diag(s2),
        cross_moment=cross,
        det_gap=det_l - det_c,
        lattice_mass=s0,
        max_lattice_value=vmax,
    )


# ---------------------------------------------------------------------------
# one-dimensional inequalities


@dataclass(frozen=True)
class FirstMomentCheck:
    lattice_mass: float  # sum f(k)
    gap: float
    bound: float  # (e + 1) * lattice_mass
    holds: bool


def covdis_check_1d(f: ContinuousDensity) -> FirstMomentCheck:
    """d=1 first-moment bound |int x f - sum k f(k)| <= (e+1) sum f(k) for
    centered log-concave f."""
    if f.dim != 1:
        raise LceError("covdis_check_1d is for d = 1")
    box = truncation_box(f)
    ks = np.arange(box.lo[0], box.hi[0] + 1, dtype=np.float64)
    vals = f.evaluate(ks[:, None])
    skf = product_sum(vals, ks)
    sf = stable_sum(vals)
    gap = abs(skf)  # f is centred, so int x f = 0
    bound = (math.e + 1.0) * sf
    return FirstMomentCheck(sf, gap, bound, gap <= bound + 1e-12)
