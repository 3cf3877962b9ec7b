import dataclasses
import math

import numpy as np
import pytest

from lce import bridge, numerics
from lce.densities import (
    DENSITIES,
    asym_exponential,
    gaussian,
    laplace_product,
    parse_param_spec,
    sheared_gaussian,
)
from lce.errors import LceError
from lce.lattice import truncation_box

from oracles import quadrature_moments, rate_envelope_ok, spot_check_tail


# ---------------------------------------------------------------------------
# density registry


def test_parse_param_spec():
    name, params = parse_param_spec("gaussian{sigma=4,dim=2}")
    assert name == "gaussian" and params == {"sigma": 4, "dim": 2}
    name, params = parse_param_spec("ellipsoid{axes=[1,2.5]}")
    assert params == {"axes": [1, 2.5]}
    name, params = parse_param_spec("cube")
    assert name == "cube" and params == {}
    with pytest.raises(LceError):
        parse_param_spec("nope{x}")


def test_registry_families_normalized():
    for f in [
        gaussian(1.5, 2),
        laplace_product(0.8, 2),
        sheared_gaussian(2.0, 0.5),
        asym_exponential(0.7, 2.0),
    ]:
        rep = bridge.lattice_vs_integral_gaps(f)
        # lattice mass should be close to the unit continuous mass
        assert abs(rep.mass_gap) < 0.2
        assert spot_check_tail(f) <= 1.0 + 1e-12


def test_density_from_spec_unknown():
    with pytest.raises(LceError, match="known: .*'gaussian'"):
        DENSITIES.make("bogus")
    assert DENSITIES.from_spec("laplace_product{rate=1,dim=1}").dim == 1


def test_sheared_gaussian_matches_quadratic_form():
    s, rho = 2.0, 0.5
    f = sheared_gaussian(s, rho)
    cov = s * s * np.array([[1.0, rho], [rho, 1.0]])
    inv = np.linalg.inv(cov)
    pts = np.array([[0.3, -1.2], [2.0, 1.0], [-0.7, 0.4]])
    norm = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(cov)))
    expected = norm * np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, inv, pts))
    assert np.allclose(f(pts), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# lattice vs integral gaps


def test_gaussian_d1_mass_gap_tiny():
    rep = bridge.lattice_vs_integral_gaps(gaussian(1.0, 1))
    assert abs(rep.mass_gap) < 1e-8  # theta-function correction scale
    assert abs(rep.mass_gap) <= rep.max_lattice_value


def test_even_density_mean_gap_exactly_zero():
    for f in [gaussian(2.0, 1), gaussian(1.5, 2), laplace_product(1.0, 2)]:
        rep = bridge.lattice_vs_integral_gaps(f)
        assert np.all(rep.mean_gap == 0.0)
        assert not np.signbit(rep.mean_gap).any()  # +0.0, as ``lce bridge`` prints it


def test_gap_report_finite_fields():
    rep = bridge.lattice_vs_integral_gaps(sheared_gaussian(3.0, 0.4))
    vals = [rep.mass_gap, rep.det_gap, rep.sigma, *rep.mean_gap, *rep.second_moment_gap]
    vals.extend(rep.cross_moment.values())
    assert all(math.isfinite(v) for v in vals)


def test_gaussian_gap_envelopes_across_sweep():
    for d in (1, 2):
        mass_stats, det_stats = [], []
        for sigma in (2.0, 4.0, 8.0):
            rep = bridge.lattice_vs_integral_gaps(gaussian(sigma, d))
            mass_stats.append(abs(rep.mass_gap) * sigma)
            det_stats.append(abs(rep.det_gap) / sigma ** (2 * d - 1))
        assert rate_envelope_ok(mass_stats, noise_floor=1e-9)
        assert rate_envelope_ok(det_stats, noise_floor=1e-9)


@pytest.mark.parametrize(
    "f",
    [gaussian(2.0, 2), laplace_product(1.0, 2), sheared_gaussian(2.0, 0.5), asym_exponential(0.7, 2.0)],
    ids=["gaussian2", "laplace2", "sheared2", "asym1"],
)
def test_quadrature_moments_match_closed_forms(f):
    # Every density declares mass 1, mean 0 and its covariance; quadrature
    # over a wide box is the independent check.
    m0, m1, raw2 = quadrature_moments(f, truncation_box(f, radius_multiplier=40))
    assert m0 == pytest.approx(1.0, abs=1e-12)
    assert np.abs(m1).max() <= 1e-12
    assert np.abs(raw2 - f.known_cov).max() <= 1e-12


# ---------------------------------------------------------------------------
# 1-d inequalities


def test_covdis_bound_on_logconcave_zoo():
    zoo = [
        gaussian(1.0, 1),
        gaussian(0.5, 1),
        laplace_product(1.0, 1),
        laplace_product(2.5, 1),
        asym_exponential(0.7, 2.0),
        asym_exponential(3.0, 0.4),
    ]
    for f in zoo:
        chk = bridge.covdis_check_1d(f)
        assert chk.holds
        lattice_mass = numerics.stable_sum(f.evaluate(truncation_box(f).grid()))
        assert chk.bound == pytest.approx((math.e + 1.0) * lattice_mass, rel=1e-12)
        assert chk.gap <= chk.bound


def test_covdis_requires_d1():
    with pytest.raises(LceError):
        bridge.covdis_check_1d(gaussian(1.0, 2))


def test_gaussian_gaps_tiny_at_moderate_sigma():
    # theta-function corrections for sampled Gaussians are far below 1e-6
    # at their natural power of sigma once sigma >= 4
    for d in (1, 2):
        for sigma in (4.0, 8.0):
            rep = bridge.lattice_vs_integral_gaps(gaussian(sigma, d))
            assert abs(rep.mass_gap) < 1e-6
            assert np.all(np.abs(rep.mean_gap) < 1e-6 * sigma)
            assert np.all(np.abs(rep.second_moment_gap) < 1e-6 * sigma**2)
            for v in rep.cross_moment.values():
                assert abs(v) < 1e-6 * sigma**2
            assert abs(rep.det_gap) < 1e-6 * sigma ** (2 * d - 1)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("f", [gaussian(1.5, 2), sheared_gaussian(2.0, 0.5), laplace_product(0.8, 3),
                               asym_exponential(1.0, 2.0)], ids=["gauss2", "sheared", "laplace3", "asym1"])
def test_blocked_lattice_moments_are_fsum_of_the_full_products(monkeypatch, block, f):
    monkeypatch.setattr(numerics, "_SUM_BLOCK", block)
    box = truncation_box(f)
    grid = box.grid()
    vals = f.evaluate(grid)
    s0, s1, s2, vmax = bridge._lattice_raw_moments(f, box)
    assert s0 == math.fsum(vals.ravel()) and vmax == vals.max()
    for i in range(f.dim):
        assert s1[i] == math.fsum((vals * grid[..., i]).ravel())
        for j in range(f.dim):
            assert s2[i, j] == math.fsum((vals * grid[..., min(i, j)] * grid[..., max(i, j)]).ravel())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattice_moments_reject_a_non_finite_value(bad):
    f = gaussian(1.0, 2)

    def evaluate(x):
        out = f.evaluate(x)
        out.flat[-1] = bad
        return out

    with pytest.raises(LceError, match="density evaluated to a non-finite value"):
        bridge._lattice_raw_moments(dataclasses.replace(f, evaluate=evaluate), truncation_box(f))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_first_moment_check_rejects_a_non_finite_value(bad):
    f = gaussian(1.0, 1)

    def evaluate(x):
        out = f.evaluate(x)
        out.flat[0] = bad
        return out

    with pytest.raises(LceError, match="density evaluated to a non-finite value"):
        bridge.covdis_check_1d(dataclasses.replace(f, evaluate=evaluate))
