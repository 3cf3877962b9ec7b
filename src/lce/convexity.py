"""Decision procedures for Z^d-convexity and log-concave extensibility.

A set A is Z^d-convex when A equals conv(A) intersected with Z^d.  A p.m.f. p
is log-concave extensible when its support is Z^d-convex and V = -log p lies
on the lower convex envelope of its own lifted support points.

Both decisions come from :mod:`lce.hull` in every dimension: an exact
integer H-representation of conv(A) tested against every bounding-box point
in one matrix product, and the lower hull of the lifted points (k, V(k)).
The n-fold self-sums nA are indicator masks on their bounding boxes, built
by the exact direct convolution of :mod:`lce.lattice` and tested against
n conv(A) as A itself is.  The convexity decision is exact as it stands; the
exact mode (``exact=True``, the CLI's ``--exact``) runs the same lower hull
with no float tolerance on integers, the log-masses times the power of two
that clears their denominators; each facet value is one int / int, and
rounding is monotone, so the envelope is the exact one rounded once.
The Caratheodory and rational-LP oracles that check both routes live with
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LceError
from .hull import box_points_inside, hrep, lower_envelope
from .lattice import LatticePmf, LatticeSet, _convolve_direct, support_set

DEFAULT_ENVELOPE_TOL = 1e-9
BOX_ENUM_CAP = 500_000
SUPPORT_CAP = 4096


@dataclass(frozen=True)
class ConvexityReport:
    is_convex: bool
    witnesses: list  # lattice points in conv(A) \ A, lexicographic order

    def __post_init__(self):
        if self.is_convex != (len(self.witnesses) == 0):
            raise LceError("is_convex must match emptiness of the witness list")


@dataclass(frozen=True)
class ExtensibilityReport:
    is_extensible: bool
    support_convex: bool
    envelope_gaps: dict  # support point -> nonnegative gap in log-mass units
    tolerance_used: float
    convexity_witnesses: list = field(default_factory=list)

    def max_gap(self) -> float:
        return max(self.envelope_gaps.values(), default=0.0)


def is_zd_convex(A: LatticeSet) -> ConvexityReport:
    """Decide A = conv(A) cap Z^d; the witnesses are the lattice points of
    conv(A) that A misses, in lexicographic order.

    Every bounding-box point is tested against the exact integer
    H-representation of conv(A).
    """
    if len(A) == 0:
        raise LceError("convexity of the empty set is not defined here")
    return _hull_report(A.mask, np.array(A.lo), *_relative_hrep(A))


def _checked_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    ncells = math.prod(shape)
    if ncells > BOX_ENUM_CAP:
        raise LceError(f"bounding box has {ncells} cells, cap is {BOX_ENUM_CAP}")
    return shape


def _relative_hrep(A: LatticeSet):
    """H-representation ``(H, b)`` of conv(A) relative to ``A.lo`` (small int64 orientation tests)."""
    _checked_shape(A.bounding_box().shape)
    return hrep(A.points() - np.array(A.lo))


def _hull_report(member: np.ndarray, lo: np.ndarray, H: np.ndarray, b: np.ndarray) -> ConvexityReport:
    """Witnesses of the set with indicator ``member`` on its bounding box,
    whose corner is ``lo``, against the hull {x : H (x - lo) <= b}."""
    inside = box_points_inside(H, b, member.shape)
    witnesses = [tuple(z) for z in (inside[~member[tuple(inside.T)]] + lo).tolist()]
    return ConvexityReport(is_convex=not witnesses, witnesses=witnesses)


# ---------------------------------------------------------------------------
# log-concave extensibility


def is_log_concave_extensible(
    p: LatticePmf, tol: float = DEFAULT_ENVELOPE_TOL, *, exact: bool = False
) -> ExtensibilityReport:
    """Decide whether V = -log p extends to a convex function on R^d.

    Conditions: (a) support(p) is Z^d-convex, and (b) at every support point k
    the value V(k) does not exceed the lower convex envelope of the other
    lifted support points at k, within ``tol``; the gap is V(k) minus that
    envelope, and 0 at points outside the hull of the others (envelope
    vertices: a convex extension can always bend upward there).

    The envelope is the lower hull of all lifted support points
    (:func:`lce.hull.lower_envelope`), and the gap is ``max(0, V - envelope)``;
    with ``exact=True`` the envelope is exact and rounded once.
    """
    if not 0.0 <= tol < math.inf:
        raise LceError(f"tol must be a finite non-negative number, got {tol!r}")
    support = support_set(p)
    if len(support) == 0:
        raise LceError("p.m.f. has empty support")
    if len(support) > SUPPORT_CAP:
        raise LceError(f"support size {len(support)} exceeds cap {SUPPORT_CAP}")
    conv_report = is_zd_convex(support)
    # The masses in the points' order; math.log, as numpy's log is not libm's on every platform.
    vals = np.array([-math.log(v) for v in p.values[p.values > 0.0].tolist()])
    pts = support.points()
    env = (_exact_envelope if exact else lower_envelope)(pts, vals)
    gaps = {k: max(0.0, float(v) - float(e)) for k, v, e in zip(map(tuple, pts.tolist()), vals, env)}
    ok = conv_report.is_convex and max(gaps.values()) <= tol
    return ExtensibilityReport(
        is_extensible=ok,
        support_convex=conv_report.is_convex,
        envelope_gaps=gaps,
        tolerance_used=tol,
        convexity_witnesses=conv_report.witnesses,
    )


def _exact_envelope(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The lower envelope of the lifted points (pts, vals) at pts, decided on
    the integers vals * scale and rounded once; scale is the largest
    denominator of the values, a power of two, so dividing by it is exact."""
    scale = max(v.as_integer_ratio()[1] for v in vals.tolist())
    return lower_envelope(pts, np.array([int(v * scale) for v in vals.tolist()], dtype=object)) / scale


def check_self_sum_convexity(A: LatticeSet, n_max: int) -> list[ConvexityReport]:
    """Convexity reports for the n-fold Minkowski sums of A, n = 2..n_max.

    Requires A itself to be Z^d-convex.  Each sum nA is an indicator mask on
    its bounding box n box(A): the direct convolution of A's mask with that of
    (n-1)A counts the ways to reach each cell, exact small integers, so a cell
    is in nA when its count is positive.  Since conv(A + ... + A) = n conv(A),
    the H-representation of conv(A) is built once and each sum is tested
    against it with the offsets multiplied by n.
    """
    if n_max < 2:
        raise LceError("n_max must be at least 2")
    lo, (H, b) = np.array(A.lo), _relative_hrep(A)
    rep = _hull_report(A.mask, lo, H, b)
    if not rep.is_convex:
        raise LceError("A must be Z^d-convex (witnesses: %s)" % rep.witnesses[:5])
    reports, current = [], A.mask
    for n in range(2, n_max + 1):
        shape = _checked_shape(tuple(n * (s - 1) + 1 for s in A.mask.shape))
        current = _convolve_direct(A.mask, current, shape) > 0.0
        reports.append(_hull_report(current, n * lo, H, n * b))
    return reports
