"""Log-concave densities on R^d with declared moments and tail majorants.

Each density is centred at the origin and of mass 1, and declares its
covariance and a certified exponential tail bound
``f(x) <= amplitude * exp(-rate * |x|_2)`` valid for ``|x|_2 >= radius``.
The tail bound is what makes box truncation auditable: every truncated
constructor converts it into a deficit bound.

The module also holds the spec-string parser and :class:`Registry`, the one
name-to-factory table that ``lce`` uses for every named object: the lattice
families of ``lce gen`` and of a config's ``family``
(:mod:`lce.families`), the densities below, and the convex bodies of
:mod:`lce.geometry`.

``DENSITIES`` families::

    gaussian{sigma, dim}            isotropic N(0, sigma^2 I)
    laplace_product{rate, dim}      product of two-sided exponentials
    sheared_gaussian{sigma, rho}    d=2 Gaussian, per-axis variance sigma^2,
                                    correlation rho (evaluator composed with
                                    the whitening map of the base Gaussian)
    asym_exponential{left_rate, right_rate}   d=1, centered, asymmetric
"""

from __future__ import annotations

import inspect
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import LceError


@dataclass(frozen=True)
class TailBound:
    amplitude: float
    rate: float
    radius: float

    def __post_init__(self):
        if self.amplitude <= 0 or self.rate <= 0 or self.radius < 0:
            raise LceError("tail bound needs amplitude > 0, rate > 0, radius >= 0")


@dataclass(frozen=True)
class ContinuousDensity:
    """Evaluator of a probability density on R^d with mean 0, its covariance
    ``known_cov`` and its tail bound (about the origin)."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    known_cov: np.ndarray
    tail_bound: TailBound
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, pts) -> np.ndarray:
        return self.evaluate(as_points(pts, self.dim))

    def axis_scales(self) -> np.ndarray:
        """Per-axis standard deviations, used to size truncation boxes."""
        return np.sqrt(np.diag(np.asarray(self.known_cov, dtype=np.float64)))

def as_points(pts, dim: int) -> np.ndarray:
    """Normalize input to shape (..., dim)."""
    a = np.asarray(pts, dtype=np.float64)
    if dim == 1 and (a.ndim == 0 or a.shape[-1] != 1):
        a = a.reshape(a.shape + (1,))
    if a.shape[-1] != dim:
        raise LceError(f"points have dimension {a.shape[-1]}, expected {dim}")
    return a


# Largest dimension a factory accepts: a d x d matrix is built per density or
# body, and nothing in the library is usable beyond a handful of dimensions.
MAX_DIM = 64


def check_dim(d) -> int:
    """``d`` if it is an integer in [1, MAX_DIM], else an :class:`LceError`."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or not 1 <= d <= MAX_DIM:
        raise LceError(f"dimension must be an integer in [1, {MAX_DIM}], got {d!r}")
    return int(d)


# ---------------------------------------------------------------------------
# registry families


def gaussian(sigma: float, dim: int = 1) -> ContinuousDensity:
    dim = check_dim(dim)
    if not sigma > 0:
        raise LceError("sigma must be positive")
    sigma = float(sigma)
    norm = (2.0 * math.pi * sigma * sigma) ** (-dim / 2.0)

    def evaluate(pts):
        pts = as_points(pts, dim)
        return norm * np.exp(-0.5 * np.sum(pts * pts, axis=-1) / (sigma * sigma))

    # Gaussian majorant: e^{-r^2/2s^2} <= e^{-(r0/2s^2) r} for r >= r0, r0 = 6s.
    r0 = 6.0 * sigma
    tb = TailBound(amplitude=norm, rate=r0 / (2.0 * sigma * sigma), radius=r0)
    return ContinuousDensity(
        dim=dim,
        evaluate=evaluate,
        known_cov=sigma * sigma * np.eye(dim),
        tail_bound=tb,
        name="gaussian",
        params={"sigma": sigma, "dim": dim},
    )


def laplace_product(rate: float, dim: int = 1) -> ContinuousDensity:
    dim = check_dim(dim)
    if not rate > 0:
        raise LceError("rate must be positive")
    lam = float(rate)
    norm = (lam / 2.0) ** dim

    def evaluate(pts):
        pts = as_points(pts, dim)
        return norm * np.exp(-lam * np.sum(np.abs(pts), axis=-1))

    tb = TailBound(amplitude=norm, rate=lam / math.sqrt(dim), radius=0.0)
    return ContinuousDensity(
        dim=dim,
        evaluate=evaluate,
        known_cov=(2.0 / (lam * lam)) * np.eye(dim),
        tail_bound=tb,
        name="laplace_product",
        params={"rate": lam, "dim": dim},
    )


def sheared_gaussian(sigma: float, rho: float) -> ContinuousDensity:
    """d=2 Gaussian with covariance sigma^2 [[1, rho], [rho, 1]].

    Built by composing the isotropic evaluator with the inverse shear map, so
    the density is exactly the correlated Gaussian while the code path mirrors
    "base density composed with a linear map".
    """
    if not (-1.0 < rho < 1.0 and sigma > 0):
        raise LceError("need sigma > 0 and -1 < rho < 1")
    sigma = float(sigma)
    rho = float(rho)
    base = gaussian(sigma, dim=2)
    # Sigma = L L^T with L = sigma * [[1, 0], [rho, sqrt(1-rho^2)]]; inverse map
    # sends the correlated Gaussian back to the isotropic base density.
    s = math.sqrt(1.0 - rho * rho)
    Linv = np.array([[1.0, 0.0], [-rho / s, 1.0 / s]])
    jac = 1.0 / s  # |det Linv|

    def evaluate(pts):
        pts = as_points(pts, 2)
        return jac * base.evaluate(pts @ Linv.T)

    cov = sigma * sigma * np.array([[1.0, rho], [rho, 1.0]])
    lam_max = sigma * sigma * (1.0 + abs(rho))
    r0 = 6.0 * math.sqrt(lam_max)
    tb = TailBound(
        amplitude=1.0 / (2.0 * math.pi * sigma * sigma * s),
        rate=r0 / (2.0 * lam_max),
        radius=r0,
    )
    return ContinuousDensity(
        dim=2,
        evaluate=evaluate,
        known_cov=cov,
        tail_bound=tb,
        name="sheared_gaussian",
        params={"sigma": sigma, "rho": rho},
    )


def asym_exponential(left_rate: float, right_rate: float) -> ContinuousDensity:
    """Centered asymmetric two-sided exponential on R (log-concave)."""
    l, r = float(left_rate), float(right_rate)
    if not (l > 0 and r > 0):
        raise LceError("rates must be positive")
    C = l * r / (l + r)
    mu = 1.0 / r - 1.0 / l  # mean of the uncentered density

    def evaluate(pts):
        pts = as_points(pts, 1)
        t = pts[..., 0] + mu
        return C * np.exp(np.where(t >= 0, -r * t, l * t))

    m2 = 2.0 * (l**3 + r**3) / ((l + r) * (l * r) ** 2)
    var = m2 - mu * mu
    rate = min(l, r)
    tb = TailBound(amplitude=C * math.exp(rate * abs(mu)), rate=rate, radius=0.0)
    return ContinuousDensity(
        dim=1,
        evaluate=evaluate,
        known_cov=np.array([[var]]),
        tail_bound=tb,
        name="asym_exponential",
        params={"left_rate": l, "right_rate": r},
    )


_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\{(.*)\})?\s*$")


def parse_param_spec(text: str) -> tuple[str, dict]:
    """Parse ``name{key=value,...}``; every value must be JSON."""
    m = _SPEC_RE.match(text)
    if not m:
        raise LceError(f"cannot parse spec string: {text!r}")
    name, body = m.group(1), m.group(2)
    params: dict = {}
    for item in _split_top_level(body or ""):
        if not item.strip():
            continue
        if "=" not in item:
            raise LceError(f"bad parameter {item!r} in {text!r}")
        key, val = item.split("=", 1)
        try:
            params[key.strip()] = json.loads(val.strip())
        except json.JSONDecodeError:
            raise LceError(f"value of {key.strip()!r} in {text!r} is not a JSON value") from None
    return name, params


def _split_top_level(body: str) -> list[str]:
    """Split on commas outside brackets, so array values survive."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


@dataclass(frozen=True)
class Registry:
    """Named factories of one kind: lattice families, densities or bodies."""

    kind: str
    factories: dict

    def check_call(self, name: str, /, *args, **params) -> None:
        """Raise :class:`LceError` unless ``name`` is known and ``args`` and
        ``params`` bind to its factory's signature."""
        if name not in self.factories:
            raise LceError(f"unknown {self.kind} {name!r}; known: {sorted(self.factories)}")
        try:
            inspect.signature(self.factories[name]).bind(*args, **params)
        except TypeError as exc:
            raise LceError(f"bad parameters for {name!r}: {exc}") from None

    def make(self, name: str, /, *args, **params):
        """``factories[name](*args, **params)``, with :meth:`check_call` first
        and a value the factory rejects reported as an :class:`LceError`."""
        self.check_call(name, *args, **params)
        try:
            return self.factories[name](*args, **params)
        except LceError:
            raise
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise LceError(f"bad parameter value for {name!r}: {exc}") from None

    def from_spec(self, text: str):
        """The object a ``name{key=value,...}`` spec string names."""
        name, params = parse_param_spec(text)
        return self.make(name, **params)


DENSITIES = Registry(
    "density family",
    {
        "gaussian": gaussian,
        "laplace_product": laplace_product,
        "sheared_gaussian": sheared_gaussian,
        "asym_exponential": asym_exponential,
    },
)
