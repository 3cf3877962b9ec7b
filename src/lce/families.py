"""Standard discrete test families on Z and Z^d.

Every family here is log-concave in the extensible sense.  Truncated families
(geometric tails, quantized Gaussians) carry exact or certified deficits so
that downstream error budgets stay honest.  Two registries name them:
``GENERATORS`` for ``lce gen`` and ``SWEEP`` for the ``family`` of a
verification config.
"""

from __future__ import annotations

import math

import numpy as np

from . import densities
from .errors import LceError
from .lattice import DEFAULT_RADIUS_MULTIPLIER, Box, LatticePmf, _check_cells, make_product, point_mass, quantize_density

# Largest tail mass a geometric family cuts off; it is the exact deficit.
GEOMETRIC_TAIL_TOL = 1e-14


def uniform_interval(m: int, lo: int = 0) -> LatticePmf:
    """Uniform mass on {lo, ..., lo + m - 1}."""
    if m < 1:
        raise LceError("m must be positive")
    box = _check_cells(Box((lo,), (lo + m - 1,)))  # before an array of its size exists
    return LatticePmf(box, np.full(box.shape, 1.0 / m), 0.0, {"family": "uniform", "m": m})


def binomial_pmf(n: int, prob: float = 0.5) -> LatticePmf:
    if n < 1 or not (0.0 < prob < 1.0):
        raise LceError("need n >= 1 and 0 < prob < 1")
    ks = np.arange(n + 1)
    vals = np.array([math.comb(n, int(k)) * prob**k * (1 - prob) ** (n - k) for k in ks])
    return LatticePmf(Box((0,), (n,)), vals, 0.0, {"family": "binomial", "n": n, "prob": prob})


def one_sided_geometric(q: float) -> LatticePmf:
    """p(k) = (1-q) q^k on {0..K}; the cut tail q^(K+1) is the exact deficit."""
    if not (0.0 < q < 1.0):
        raise LceError("need 0 < q < 1")
    K = max(1, int(math.ceil(math.log(GEOMETRIC_TAIL_TOL) / math.log(q))) + 1)
    box = _check_cells(Box((0,), (K,)))
    ks = np.arange(K + 1)
    vals = (1.0 - q) * q**ks
    deficit = q ** (K + 1)
    return LatticePmf(box, vals, deficit, {"family": "geometric", "q": q})


def two_sided_geometric(q: float) -> LatticePmf:
    """p(k) proportional to q^|k| on {-K..K}; exact symmetric tail deficit."""
    if not (0.0 < q < 1.0):
        raise LceError("need 0 < q < 1")
    C = (1.0 - q) / (1.0 + q)
    # The smallest K >= 1 whose cut tail is within the tolerance, searched up
    # from two steps short of the closed form 2 q^(K+1) / (1 + q) <= tol.
    K = max(1, math.ceil(math.log(GEOMETRIC_TAIL_TOL * (1.0 + q) / 2.0) / math.log(q)) - 3)
    while 2.0 * C * q ** (K + 1) / (1.0 - q) > GEOMETRIC_TAIL_TOL:
        K += 1
    box = _check_cells(Box((-K,), (K,)))
    ks = np.arange(-K, K + 1)
    vals = C * q ** np.abs(ks)
    deficit = 2.0 * C * q ** (K + 1) / (1.0 - q)
    return LatticePmf(box, vals, deficit, {"family": "two_sided_geometric", "q": q})


def quantized_gaussian(sigma: float, dim: int = 1, radius_multiplier: float = DEFAULT_RADIUS_MULTIPLIER) -> LatticePmf:
    """Isotropic Gaussian density sampled on Z^d and normalized."""
    return quantize_density(densities.gaussian(sigma, dim), radius_multiplier=radius_multiplier)


def assorted_pmfs_1d(count: int = 20) -> list[LatticePmf]:
    """The first ``count`` (at most 20) of a deterministic zoo of 1-d p.m.f.s
    covering shapes from point mass to wide."""
    pool = [
        point_mass((0,)),
        point_mass((5,)),
        uniform_interval(2),
        uniform_interval(3, lo=-1),
        uniform_interval(7),
        uniform_interval(16, lo=-8),
        binomial_pmf(4),
        binomial_pmf(9, 0.3),
        binomial_pmf(20, 0.5),
        binomial_pmf(14, 0.7),
        one_sided_geometric(0.3),
        one_sided_geometric(0.6),
        one_sided_geometric(0.85),
        two_sided_geometric(0.25),
        two_sided_geometric(0.5),
        two_sided_geometric(0.8),
        quantized_gaussian(1.0),
        quantized_gaussian(2.5),
        quantized_gaussian(6.0),
        quantized_gaussian(10.0),
    ]
    return pool[:count]


def product_gaussian(sigma: float, dim: int, radius_multiplier: float = DEFAULT_RADIUS_MULTIPLIER) -> LatticePmf:
    """Product of 1-d quantized Gaussians (coordinates independent)."""
    factor = quantized_gaussian(sigma, 1, radius_multiplier)
    return make_product([factor] * dim)


def _uniform_family(sigma: float, d: int) -> LatticePmf:
    m = max(1, int(round(math.sqrt(12.0) * sigma)))
    one = uniform_interval(m)
    return make_product([one] * d) if d > 1 else one


def _integer(name: str, value) -> int:
    """``value`` if it is an int; a bool or a fraction is refused, as in a p.m.f. file."""
    if type(value) is not int:
        raise LceError(f"{name} must be an integer, got {value!r}")
    return value


# ``lce gen`` families; each signature holds the keys a spec may set and
# their defaults.
GENERATORS = densities.Registry(
    "generator family",
    {
        "gaussian": lambda sigma=4.0, dim=1, radius_multiplier=DEFAULT_RADIUS_MULTIPLIER:
            quantized_gaussian(sigma, dim, radius_multiplier),
        "uniform": lambda m=5, lo=0: uniform_interval(_integer("m", m), _integer("lo", lo)),
        "binomial": lambda n=10, prob=0.5: binomial_pmf(_integer("n", n), prob),
        "geometric": lambda q=0.5: one_sided_geometric(q),
        "two_sided_geometric": lambda q=0.5: two_sided_geometric(q),
        "point_mass": lambda at=(0,): point_mass(tuple(_integer("each entry of at", x) for x in at)),
    },
)

# Sweep families: called as make(name, sigma, d, **params); the config's
# params must fit the rest of the signature.
SWEEP = densities.Registry(
    "sweep family",
    {
        "gaussian": quantized_gaussian,
        "product_gaussian": product_gaussian,
        "uniform": _uniform_family,
        "point_mass": lambda sigma, d: point_mass((0,) * d),
    },
)
