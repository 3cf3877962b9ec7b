"""Ball bodies of log-concave densities and convex-body moment inequalities.

Covers: radial functions of the bodies K_p(f) attached to a density f, the
Gamma/exponential inclusion constants between them, the second-moment
inequality chain h_K(u)^2/(d(d+2)) <= mean <x,u>^2 <= d h_K(u)^2/(d+2) for
centered bodies, and inradius and circumradius bounds in terms of covariance
eigenvalues.

Convex bodies come in five kinds: box, ellipsoid, simplex, h-polytope and
v-polytope.  ``cube`` and ``ball`` are constructors of a box and an ellipsoid,
and a scaled simplex is a v-polytope.  Boxes, ellipsoids and the centred
standard simplex use closed-form moments.  A polytope body builds one hull
record, :attr:`ConvexBody.hull` = (V, F, N, off), at its first use: its
vertices V and their hull ``facets(V)`` (:func:`lce.hull.facets`).  A
v-polytope stores V; an h-polytope {x : A x <= b} with b > 0 takes it from its
polar body conv(a_i / b_i), one vertex per facet.  The record gives the exact
moments (the hull coned from the vertex mean into simplices whose closed-form
moments are summed), the circumradius, and the inradius from the facet rows
``N x <= off`` (an h-polytope reads its own rows ``A x <= b``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .densities import ContinuousDensity, Registry, check_dim
from .errors import LceError
from .hull import facets
from .numerics import adaptive_quad
from .simplex import OPTIMAL, solve_lp


# ---------------------------------------------------------------------------
# inclusion constants


@dataclass(frozen=True)
class InclusionConstants:
    lower: float  # Gamma(p+1)^(1/p) / Gamma(q+1)^(1/q)
    upper: float  # e^(d/p - d/q)


def inclusion_constants(d: int, p: float, q: float) -> InclusionConstants:
    if not (0 < p < q):
        raise LceError("need 0 < p < q")
    try:
        lower = math.gamma(p + 1.0) ** (1.0 / p) / math.gamma(q + 1.0) ** (1.0 / q)
        upper = math.exp(d / p - d / q)
    except OverflowError:
        raise LceError(f"inclusion constants overflow a float for d={d}, p={p!r}, q={q!r}") from None
    return InclusionConstants(lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# radial functions of ball bodies


def _radial_moment(f: ContinuousDensity, theta: np.ndarray, p: float) -> float:
    """integral of p r^(p-1) f(r theta) dr over (0, inf) with certified tail cut."""
    tb = f.tail_bound
    R = max(tb.radius, 2.0 * (p + f.dim) / tb.rate, 1.0)
    # Grow R until the exponential remainder bound is negligible.
    for _ in range(200):
        rem = p * tb.amplitude * R ** (p - 1.0) * math.exp(-tb.rate * R) / (tb.rate * 0.5)
        if rem < 1e-30 + 1e-16 * tb.amplitude:
            break
        R *= 1.5
    theta = np.asarray(theta, dtype=np.float64)

    def integrand(x):
        r = x[..., 0]
        pts = r[:, None] * theta[None, :]
        return p * r ** (p - 1.0) * f.evaluate(pts)

    val, _ = adaptive_quad(integrand, 0.0, R, rel_tol=1e-10)
    return val


def ball_body_radial(f: ContinuousDensity, p: float, dirs) -> np.ndarray:
    """Read-only radii of K_p(f) on unit rows theta of ``dirs``: rho^p = (1/f(0)) int p r^(p-1) f(r theta) dr."""
    if not 0 < p < math.inf:
        raise LceError("p must be finite and positive")
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-12):
        raise LceError("directions must be unit vectors")
    f0 = float(f(np.zeros(f.dim)))
    if f0 <= 0.0:
        raise LceError("f(0) must be positive")
    radii = np.array([(_radial_moment(f, th, p) / f0) ** (1.0 / p) for th in dirs])
    if np.any(radii <= 0.0):
        raise LceError("radii must be positive")
    radii.flags.writeable = False
    return radii


@dataclass(frozen=True)
class InclusionCheck:
    lower: float
    upper: float
    min_ratio: float
    max_ratio: float
    passed: bool


def check_inclusions(f: ContinuousDensity, p: float, q: float, dirs) -> InclusionCheck:
    """Verify lower <= rho_{K_p}(theta)/rho_{K_q}(theta) <= upper on sampled directions."""
    consts = inclusion_constants(f.dim, p, q)
    ratios = ball_body_radial(f, p, dirs) / ball_body_radial(f, q, dirs)
    lo, hi = float(ratios.min()), float(ratios.max())
    passed = (lo >= consts.lower - 1e-9) and (hi <= consts.upper + 1e-9)
    return InclusionCheck(consts.lower, consts.upper, lo, hi, passed)


# ---------------------------------------------------------------------------
# convex bodies


@dataclass(frozen=True)
class ConvexBody:
    kind: str
    dim: int
    data: tuple  # kind-specific payload, hashable

    @cached_property
    def hull(self) -> tuple:
        """(V, F, N, off): the vertices V a simplex or v-polytope stores, or for
        an h-polytope {x : A x <= b} the N / off of each facet N y = off of its
        polar body conv(a_i / b_i); and their hull ``facets(V)``.  A polar facet
        with off <= 0, or polar points that span no full hull, mean K is unbounded."""
        if self.kind == "hpoly":
            A, b = (np.asarray(a) for a in self.data)
            try:
                _, N, off = facets(A / b[:, None])
            except LceError:
                raise LceError("h-polytope is unbounded") from None
            if np.any(off <= 0.0):
                raise LceError("h-polytope is unbounded")
            V = N / off[:, None]
        else:
            V = np.asarray(self.data[0], dtype=np.float64)
        return (V, *facets(V))


def _numeric(name: str, values) -> None:
    """Refuse a bool where a number belongs, as ``families._integer`` and the
    config checks do; ``float(True)`` would pass it as 1.0."""
    for v in np.asarray(values, dtype=object).flat:
        if isinstance(v, (bool, np.bool_)):
            raise LceError(f"{name} must be numeric, got {v!r}")


def make_box(lo, hi) -> ConvexBody:
    _numeric("lo", lo)
    _numeric("hi", hi)
    lo = tuple(float(x) for x in lo)
    hi = tuple(float(x) for x in hi)
    check_dim(len(lo))
    if not all(map(math.isfinite, lo + hi)):
        raise LceError("box bounds must be finite")
    if len(lo) != len(hi) or any(h <= l for l, h in zip(lo, hi)):
        raise LceError("box needs hi > lo per axis")
    return ConvexBody("box", len(lo), (lo, hi))


def make_cube(d: int, side: float = 1.0) -> ConvexBody:
    d = check_dim(d)
    _numeric("side", side)
    h = side / 2.0
    return make_box([-h] * d, [h] * d)


def make_ball(d: int, radius: float = 1.0) -> ConvexBody:
    _numeric("radius", radius)
    return make_ellipsoid([radius] * check_dim(d))


def make_ellipsoid(axes) -> ConvexBody:
    _numeric("axes", axes)
    ax = tuple(float(a) for a in axes)
    check_dim(len(ax))
    if not all(0 < a < math.inf for a in ax):
        raise LceError("semi-axes must be finite and positive")
    return ConvexBody("ellipsoid", len(ax), (ax,))


def make_simplex(d: int) -> ConvexBody:
    """Standard simplex translated so its barycenter is the origin (the only
    body of kind ``simplex``; scaling it gives a v-polytope)."""
    d = check_dim(d)
    verts = np.vstack([np.zeros(d), np.eye(d)])
    verts = verts - verts.mean(axis=0)
    return ConvexBody("simplex", d, (tuple(map(tuple, verts)),))


def make_hpoly(A, b) -> ConvexBody:
    _numeric("A", A)
    _numeric("b", b)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).ravel()
    if A.ndim != 2 or A.shape[0] != b.size:
        raise LceError("h-polytope needs A (m, d) and b (m,)")
    check_dim(A.shape[1])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise LceError("h-polytope needs finite A and b")
    if not np.all(np.any(A != 0.0, axis=1)):
        raise LceError("h-polytope rows of A must be nonzero")
    if np.any(b <= 0):
        raise LceError("origin must be interior: need b > 0")
    return ConvexBody("hpoly", A.shape[1], (tuple(map(tuple, A)), tuple(b)))


def make_vpoly(vertices) -> ConvexBody:
    _numeric("vertices", vertices)
    V = np.asarray(vertices, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] < check_dim(V.shape[1]) + 1:
        raise LceError("v-polytope needs at least d+1 vertices")
    if V.shape[0] > 64:
        raise LceError("v-polytope capped at 64 vertices")
    if not np.all(np.isfinite(V)) or np.linalg.matrix_rank(V[1:] - V[0]) < V.shape[1]:
        raise LceError("v-polytope vertices must be finite and span R^d")
    return ConvexBody("vpoly", V.shape[1], (tuple(map(tuple, V)),))


BODIES = Registry(
    "body",
    {
        "cube": make_cube,
        "box": make_box,
        "ball": make_ball,
        "ellipsoid": make_ellipsoid,
        "simplex": make_simplex,
        "hpoly": make_hpoly,
        "vpoly": make_vpoly,
    },
)


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def body_support(K: ConvexBody, u) -> float:
    """Support function h_K(u) = max over K of <x, u>."""
    u = np.asarray(u, dtype=np.float64).ravel()
    if K.kind == "box":
        lo, hi = (np.asarray(a) for a in K.data)
        return float(np.sum(np.where(u >= 0, hi * u, lo * u)))
    if K.kind == "ellipsoid":
        ax = np.asarray(K.data[0])
        return float(np.linalg.norm(ax * u))
    if K.kind in ("simplex", "vpoly"):
        verts = np.asarray(K.data[0])
        return float(np.max(verts @ u))
    if K.kind == "hpoly":
        return _hpoly_support(K, u)
    raise LceError(f"support not implemented for {K.kind}")


def _hpoly_support(K: ConvexBody, u: np.ndarray) -> float:
    A, b = (np.asarray(a, dtype=np.float64) for a in K.data)
    m, d = A.shape
    # max u.x st Ax <= b -> min -u.(xp - xm) st A(xp - xm) + s = b, all vars >= 0
    Astd = np.hstack([A, -A, np.eye(m)])
    c = np.concatenate([-u, u, np.zeros(m)])
    res = solve_lp(c, Astd, b)
    if res.status != OPTIMAL:
        raise LceError("h-polytope appears unbounded in this direction")
    return -res.objective


@dataclass(frozen=True)
class BodyMoments:
    volume: float
    barycenter: np.ndarray  # (1/|K|) int_K x dx
    second_moment: np.ndarray  # (1/|K|) int_K x x^T dx


def body_moments(K: ConvexBody) -> BodyMoments:
    """Volume, barycenter and normalized second moment matrix of K."""
    d = K.dim
    if K.kind == "box":
        lo, hi = (np.asarray(a) for a in K.data)
        c = (lo + hi) / 2.0
        M = np.outer(c, c)
        M[np.diag_indices(d)] += (hi - lo) ** 2 / 12.0
        return BodyMoments(float(np.prod(hi - lo)), c, M)
    if K.kind == "ellipsoid":
        ax = np.asarray(K.data[0])
        vol = _unit_ball_volume(d) * float(np.prod(ax))
        return BodyMoments(vol, np.zeros(d), np.diag(ax**2 / (d + 2.0)))
    if K.kind == "simplex":
        # Dirichlet moments of the standard simplex, then recentered.
        raw = np.full((d, d), 1.0) + np.eye(d)
        raw *= math.factorial(d) / math.factorial(d + 2)
        b = np.full(d, 1.0 / (d + 1.0))
        M0 = raw - np.outer(b, b)  # centered moments of the standard simplex
        bary = np.asarray(K.data[0]).mean(axis=0)
        return BodyMoments(1.0 / math.factorial(d), bary, M0)
    if K.kind in ("vpoly", "hpoly"):
        return _vpoly_moments(K.hull)
    raise LceError(f"moments not implemented for {K.kind}")


def _vpoly_moments(hull) -> BodyMoments:
    """Exact moments of conv(V) from the record (V, F, N, off) of its hull: the
    hull is coned from the vertex mean c into one simplex S per facet.  With
    v_0 = c, v_1..v_d the facet's vertices and s = sum v_i, S has volume
    |S| = (off - N c)/d! and the closed-form moments int_S x dx = |S| s/(d+1)
    and int_S x x^T dx = |S| (sum v_i v_i^T + s s^T)/((d+1)(d+2))."""
    V, F, N, off = hull
    d = V.shape[1]
    c = V.mean(axis=0)
    S = np.concatenate([np.broadcast_to(c, (len(F), 1, d)), V[F]], axis=1)  # (m, d+1, d)
    s = S.sum(axis=1)
    w = (off - N @ c) / math.factorial(d)
    vol = float(w.sum())
    first = w @ s / (d + 1.0)
    second = (np.einsum("k,kij,kil->jl", w, S, S) + np.einsum("k,kj,kl->jl", w, s, s)) / ((d + 1.0) * (d + 2.0))
    return BodyMoments(vol, first / vol, second / vol)


def scale_body(K: ConvexBody, t: float) -> ConvexBody:
    if t <= 0:
        raise LceError("scale factor must be positive")
    if K.kind == "box":
        lo, hi = (np.asarray(a) for a in K.data)
        return make_box(t * lo, t * hi)
    if K.kind == "ellipsoid":
        return make_ellipsoid(t * np.asarray(K.data[0]))
    if K.kind in ("simplex", "vpoly"):
        return make_vpoly(t * np.asarray(K.data[0]))
    if K.kind == "hpoly":
        A, b = (np.asarray(a) for a in K.data)
        return make_hpoly(A, t * b)
    raise LceError(f"scaling not implemented for {K.kind}")


def scale_to_unit_volume(K: ConvexBody) -> ConvexBody:
    return scale_body(K, body_moments(K).volume ** (-1.0 / K.dim))


# ---------------------------------------------------------------------------
# second-moment chain and radius bounds


@dataclass(frozen=True)
class KlsReport:
    lhs: float  # h_K(u)^2 / (d (d+2))
    mid: float  # (1/|K|) int_K <x,u>^2 dx
    rhs: float  # d h_K(u)^2 / (d+2)

    def chain_holds(self, tol: float = 1e-9) -> bool:
        # The chain admits equality cases (e.g. simplices along vertex
        # directions), so allow a relative epsilon.
        widen = tol * max(self.lhs, self.mid, self.rhs)
        return self.lhs <= self.mid + widen and self.mid - widen <= self.rhs


def kls_second_moment_check(K: ConvexBody, dirs) -> list[KlsReport]:
    """Second-moment chain for a centered convex body along each row of ``dirs``."""
    d = K.dim
    mom = body_moments(K)
    reports = []
    for u in np.atleast_2d(np.asarray(dirs, dtype=np.float64)):
        u = u / np.linalg.norm(u)
        h = body_support(K, u)
        if float(np.linalg.norm(mom.barycenter)) > 1e-9 * (1.0 + h):
            raise LceError(f"body is not centered: barycenter {mom.barycenter}")
        reports.append(KlsReport(lhs=h * h / (d * (d + 2.0)), mid=float(u @ mom.second_moment @ u),
                                 rhs=d / (d + 2.0) * h * h))
    return reports


@dataclass(frozen=True)
class RadiusReport:
    inradius: float
    circumradius: float
    lambda_min: float
    lambda_max: float
    circum_margin: float  # (d+1) sqrt(lambda_max) - R  (>= 0 expected)
    inradius_margin: float  # r - sqrt((d+2)/d) sqrt(lambda_min)  (>= 0 expected)

    def holds(self) -> bool:
        return self.circum_margin >= -1e-9 and self.inradius_margin >= -1e-9


def body_inradius(K: ConvexBody) -> float:
    """Distance from the origin to the boundary of K; <= 0 when the origin is
    not interior."""
    if K.kind == "box":
        lo, hi = (np.asarray(a) for a in K.data)
        return float(min(np.min(-lo), np.min(hi)))
    if K.kind == "ellipsoid":
        return float(np.min(K.data[0]))
    # the nearest facet plane A_i x = b_i: an h-polytope's own rows, or the hull's
    A, b = (np.asarray(a) for a in K.data) if K.kind == "hpoly" else K.hull[2:]
    return float(np.min(b / np.linalg.norm(A, axis=1)))


def body_circumradius(K: ConvexBody) -> float:
    if K.kind == "box":
        lo, hi = (np.asarray(a) for a in K.data)
        return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
    if K.kind == "ellipsoid":
        return float(np.max(K.data[0]))
    if K.kind in ("simplex", "vpoly", "hpoly"):
        return float(np.max(np.linalg.norm(K.hull[0], axis=1)))
    raise LceError(f"circumradius not implemented for {K.kind}")


def radius_bounds_check(K: ConvexBody) -> RadiusReport:
    """Inradius/circumradius bounds via covariance eigenvalues; requires |K| = 1
    and the origin in the interior."""
    mom = body_moments(K)
    if abs(mom.volume - 1.0) > 1e-9:
        raise LceError(f"body must have unit volume (got {mom.volume}); rescale first")
    r, R = body_inradius(K), body_circumradius(K)
    if r <= 0.0:
        raise LceError("origin must lie in the interior")
    d = K.dim
    eig = np.linalg.eigvalsh(mom.second_moment)  # |K| = 1: matrix of int_K y_i y_j dy
    lam_min, lam_max = float(eig[0]), float(eig[-1])
    return RadiusReport(
        inradius=r,
        circumradius=R,
        lambda_min=lam_min,
        lambda_max=lam_max,
        circum_margin=(d + 1.0) * math.sqrt(lam_max) - R,
        inradius_margin=r - math.sqrt((d + 2.0) / d) * math.sqrt(lam_min),
    )
