"""Acceptance gate: one test per quantitative criterion, each printing a
single [PASS]/[FAIL] line (run with ``pytest -s tests/test_acceptance.py`` to
see them).

Two criteria assert statements that are mathematically unattainable as
written; they are implemented faithfully and marked as strict expected
failures with the disproof in the reason string:

* criterion 4: max p * sqrt(1 + 4 Var) <= 1 fails for geometric-type p.m.f.s
  (one-sided q = 1/2 gives exactly 3/2); the sharp attainable relation
  Var <= (1 - max)/(max^2) is verified green by a companion test.
* criterion 9 (d = 3 half): hole-free subsets of Z^3 are not closed under
  Minkowski self-sums (Reeve simplices); the d = 2 half and the Reeve witness
  are verified green.
"""

import hashlib
import math

import numpy as np
import pytest

from lce import bridge, convexity as cx, families, geometry as geo, harness
from lce.densities import asym_exponential, gaussian, laplace_product
from lce.lattice import LatticeSet, convolve, point_mass
from lce.moments import discrete_moments, max_pmf_width_product, shannon_entropy
from lce.numerics import unit_directions
from lce.smoothing import elementary_estimate, entropy_like, smoothed_entropy_detail

from oracles import (
    extensible_zoo_1d,
    is_log_concave_1d,
    is_log_concave_extensible_bruteforce,
    minkowski_sum_pairwise,
    zd_convex_bruteforce,
)

SIGMAS = (4.0, 8.0, 16.0, 32.0)
DIMS = (1, 2)


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {criterion}: {detail}")
    return ok


_CHAINS = {}


def entropy_chain(d, sigma, n_top=3):
    """S_1..S_n_top for the quantized isotropic Gaussian, with H and sigma_hat."""
    key = (d, sigma, n_top)
    if key not in _CHAINS:
        p = families.quantized_gaussian(sigma, d)
        sums = [p]
        for _ in range(n_top - 1):
            sums.append(convolve(sums[-1], p))
        _CHAINS[key] = (
            sums,
            [shannon_entropy(s) for s in sums],
            [discrete_moments(s).sigma_hat for s in sums],
        )
    return _CHAINS[key]


def test_criterion_01_smoothing_identity():
    worst = 0.0
    pmfs = families.assorted_pmfs_1d(18) + [point_mass((0, 0)), families.quantized_gaussian(2.0, 2)]
    assert len(pmfs) == 20
    for p in pmfs:
        worst = max(worst, abs(smoothed_entropy_detail(p, 1).value - shannon_entropy(p)))
    assert report(1, worst < 1e-9, f"max |h(S+U) - H(S)| = {worst:.3e} over 20 p.m.f.s (< 1e-9)")


def test_criterion_02_exact_smoothed_entropies():
    h1 = smoothed_entropy_detail(point_mass((0,)), 2).value
    h2 = smoothed_entropy_detail(point_mass((0, 0)), 2).value
    ok = abs(h1 - 0.5) < 1e-6 and abs(h2 - 1.0) < 1e-6
    assert report(2, ok, f"h(point+U+U): d=1 err {h1 - 0.5:.2e}, d=2 err {h2 - 1.0:.2e} (tol 1e-6)")


def test_criterion_03_max_mass_vs_covariance_determinant():
    ok = True
    details = []
    for d in DIMS:
        for sigma in (2.0, 4.0, 8.0, 16.0, 32.0):
            s = discrete_moments(families.quantized_gaussian(sigma, d))
            ratio = s.max_value * math.sqrt(max(s.cov.det(), 0.0))
            ok = ok and ratio <= 1.0
            if sigma == 32.0:
                target = (2 * math.pi) ** (-d / 2.0)
                rel = abs(ratio - target) / target
                ok = ok and rel < 0.02
                details.append(f"d={d}: ratio {ratio:.5f} vs (2pi)^(-d/2) {target:.5f} (rel {rel:.1e})")
    assert report(3, ok, "; ".join(details) + "; all sweep ratios <= 1")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated: max p sqrt(1+4Var) = 3/2 for the one-sided "
    "geometric with q = 1/2 (and > 1 for every geometric-type p.m.f.); see the "
    "sharp-bound companion test",
)
def test_criterion_04_max_mass_width_bound():
    zoo = extensible_zoo_1d(50)
    assert len(zoo) >= 50
    worst, worst_name = 0.0, ""
    for p in zoo:
        assert is_log_concave_1d(p).is_extensible
        v = max_pmf_width_product(discrete_moments(p))
        if v > worst:
            worst, worst_name = v, p.meta.get("family", "?")
    ok = worst <= 1.0 + 1e-9
    report(4, ok, f"max p*sqrt(1+4 Var) worst {worst:.4f} ({worst_name}); bound 1 + 1e-9 "
                  "[expected failure: bound is not attainable for geometric-type laws]")
    assert ok


def test_criterion_04_companion_sharp_bound():
    zoo = extensible_zoo_1d(50)
    worst = 0.0
    for p in zoo:
        s = discrete_moments(p)
        M, var = s.max_value, float(s.cov.entries[0, 0])
        worst = max(worst, var - (1.0 - M) / (M * M))
        assert var <= (1.0 - M) / (M * M) + 1e-9
    assert report("4b", True, f"sharp relation Var <= (1-max)/max^2 holds on all 50 (worst slack {worst:.2e})")


def test_criterion_05_entropy_monotonicity_gap():
    ok = True
    details = []
    floor = 1e-9
    for d in DIMS:
        for n in (1, 2):
            deficits = []
            for sigma in SIGMAS:
                _, H, _ = entropy_chain(d, sigma)
                delta = H[n] - H[n - 1] - 0.5 * d * math.log((n + 1) / n)
                if sigma >= 8.0:
                    ok = ok and delta >= -1e-3
                deficits.append(max(0.0, -delta))
            cleaned = [x if x > floor else 0.0 for x in deficits]
            mono = all(cleaned[i + 1] <= cleaned[i] + floor for i in range(len(cleaned) - 1))
            ok = ok and mono
            details.append(f"d={d},n={n}: max deficit {max(deficits):.1e}")
    assert report(5, ok, "; ".join(details) + " (threshold 1e-3 at sigma >= 8; deficits non-increasing)")


def test_criterion_06_differential_entropy_rate():
    ok = True
    details = []
    for d in DIMS:
        rates = {}
        for sigma in SIGMAS:
            sums, H, sig = entropy_chain(d, sigma)
            h = smoothed_entropy_detail(sums[1], 2).value
            delta = abs(h - H[1])
            rates[sigma] = delta * sig[1] / math.log(sig[1])
        ok = ok and max(rates[16.0], rates[32.0]) <= rates[4.0]
        details.append(f"d={d}: rate(4)={rates[4.0]:.4f} rate(16)={rates[16.0]:.4f} rate(32)={rates[32.0]:.4f}")
    assert report(6, ok, "; ".join(details) + " (rates at 16, 32 below rate at 4)")


def test_criterion_07_lattice_vs_integral_gaps():
    ok = True
    details = []
    for d in DIMS:
        det_stats = []
        for sigma in (2.0, 4.0, 8.0):
            rep = bridge.lattice_vs_integral_gaps(gaussian(sigma, d))
            if d == 1:
                ok = ok and abs(rep.mass_gap) <= rep.max_lattice_value + 1e-12
            det_stats.append(abs(rep.det_gap) / sigma ** (2 * d - 1))
        cap = max(det_stats[0], 1e-9)
        ok = ok and all(v <= cap * (1 + 1e-9) + 1e-9 for v in det_stats)
        details.append(f"d={d}: det stats {['%.1e' % v for v in det_stats]}")
    zoo = [gaussian(1.0, 1), gaussian(0.5, 1), laplace_product(1.0, 1),
           laplace_product(2.5, 1), asym_exponential(0.7, 2.0), asym_exponential(3.0, 0.4)]
    for f in zoo:
        chk = bridge.covdis_check_1d(f)
        ok = ok and chk.holds
    assert report(7, ok, "; ".join(details) + f"; (e+1) first-moment bound holds on {len(zoo)} densities")


def test_criterion_08_convexity_oracles():
    rng = np.random.default_rng(88)
    mismatches = 0
    for _ in range(200):
        pts = rng.integers(0, 6, size=(int(rng.integers(1, 10)), 2))
        A = LatticeSet.from_iterable(2, pts)
        lp = cx.is_zd_convex(A)
        bf = zd_convex_bruteforce(A)
        mismatches += int(lp.is_convex != bf.is_convex or lp.witnesses != bf.witnesses)
    assert report("8a", mismatches == 0, f"LP vs definitional convexity: {mismatches} mismatches in 200 sets")


def test_criterion_08_extensibility_oracles_and_witness():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        span = 3
        pts = [(a, b) for a in range(span + 1) for b in range(span + 1)]
        k = int(rng.integers(2, 13))
        idx = rng.choice(len(pts), size=k, replace=False)
        vals = np.zeros((span + 1, span + 1))
        for i in idx:
            vals[pts[i]] = rng.uniform(0.05, 1.0)
        from lce.lattice import Box, LatticePmf

        p = LatticePmf(Box((0, 0), (span, span)), vals / vals.sum())
        lp = cx.is_log_concave_extensible(p)
        bf = is_log_concave_extensible_bruteforce(p)
        agree = lp.is_extensible == bf.is_extensible and all(
            abs(lp.envelope_gaps[k2] - bf.envelope_gaps[k2]) < 1e-7 for k2 in lp.envelope_gaps
        )
        mismatches += int(not agree)
    S1 = LatticeSet.from_iterable(2, [(0, 0), (1, 1)])
    S2 = LatticeSet.from_iterable(2, [(0, 1), (1, 0)])
    rep = cx.is_zd_convex(minkowski_sum_pairwise(S1, S2))
    witness_ok = (not rep.is_convex) and rep.witnesses == [(1, 1)]
    ok = mismatches == 0 and witness_ok
    assert report("8b", ok, f"envelope LP vs Caratheodory: {mismatches} mismatches in 100; "
                            f"two-point diagonal sum witness {rep.witnesses}")


def test_criterion_09_self_sum_convexity_d2():
    rng = np.random.default_rng(20240810 + 9)
    failures = 0
    for _ in range(100):
        A = harness._random_convex_set(rng, 2, 5)
        failures += sum(0 if r.is_convex else 1 for r in cx.check_self_sum_convexity(A, 4))
    assert report("9 (d=2)", failures == 0, f"100 planar convex sets, sums to n=4: {failures} non-convex")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated in d = 3: hole-freeness is not closed under "
    "Minkowski self-sums (Reeve simplex: (1,1,1) is in conv(R+R) but not R+R); "
    "random hull-lattice sets reach such configurations",
)
def test_criterion_09_self_sum_convexity_d3():
    rng = np.random.default_rng(20240810 + 9)
    failures = 0
    for _ in range(20):
        A = harness._random_convex_set(rng, 3, 3)
        failures += sum(0 if r.is_convex else 1 for r in cx.check_self_sum_convexity(A, 4))
    report("9 (d=3)", failures == 0,
           f"20 spatial convex sets, sums to n=4: {failures} non-convex "
           "[expected failure: see Reeve-simplex companion test]")
    assert failures == 0


def test_criterion_09_companion_reeve_witness():
    R = LatticeSet.from_iterable(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert zd_convex_bruteforce(R).is_convex
    rep = cx.check_self_sum_convexity(R, 2)[0]
    assert report("9b", (not rep.is_convex) and rep.witnesses == [(1, 1, 1)],
                  f"Reeve simplex twofold sum misses {rep.witnesses}")


def test_criterion_10_ball_geometry():
    dirs = unit_directions(2, 64)
    radii = geo.ball_body_radial(gaussian(1.0, 2), 2.0, dirs)
    radial_ok = float(np.abs(radii - math.sqrt(2.0)).max()) < 1e-6
    inc = geo.check_inclusions(gaussian(1.0, 2), 2.0, 3.0, dirs)
    kls_ok = True
    for K in (geo.make_ball(2, 1.5), geo.make_cube(2), geo.make_simplex(2),
              geo.make_ball(3), geo.make_cube(3), geo.make_simplex(3)):
        reps = geo.kls_second_moment_check(K, [np.eye(K.dim)[0], np.ones(K.dim)])
        kls_ok = kls_ok and all(rep.chain_holds(tol=1e-6) for rep in reps)
    rng = np.random.default_rng(10)
    for d in (2, 3):
        A = rng.normal(size=(3 * d, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = rng.uniform(0.5, 1.5, size=3 * d)
        K = geo.make_hpoly(np.vstack([A, -A]), np.concatenate([b, b]))
        (rep,) = geo.kls_second_moment_check(K, rng.normal(size=d))
        kls_ok = kls_ok and rep.chain_holds()
    radius_ok = (geo.radius_bounds_check(geo.make_cube(2)).holds()
                 and geo.radius_bounds_check(geo.make_cube(3)).holds()
                 and geo.radius_bounds_check(geo.scale_to_unit_volume(geo.make_ball(2))).holds()
                 and geo.radius_bounds_check(geo.scale_to_unit_volume(geo.make_ball(3))).holds())
    ok = radial_ok and inc.passed and kls_ok and radius_ok
    assert report(10, ok, f"radial sqrt2 ok={radial_ok}, inclusions "
                          f"[{inc.min_ratio:.4f},{inc.max_ratio:.4f}] in [{inc.lower:.4f},{inc.upper:.4f}], "
                          f"second-moment chain ok={kls_ok}, radius bounds ok={radius_ok}")


def test_criterion_11_elementary_estimate_samples():
    rng = np.random.default_rng(11)
    n = 100_000
    M = np.exp(rng.uniform(0.0, 8.0, n))
    D = np.exp(rng.uniform(0.0, 8.0, n))
    hi = D / M
    a = hi * rng.random(n)
    b = hi * rng.random(n)
    mu = rng.uniform(1e-12, 1.0 / math.e - 1e-12, n)
    violations = 0
    for i in range(n):
        g = abs(entropy_like(float(b[i]), float(M[i])) - entropy_like(float(a[i]), float(M[i])))
        bound = elementary_estimate(float(a[i]), float(b[i]), float(mu[i]), float(D[i]), float(M[i]))
        if g > bound * (1 + 1e-12) + 1e-15:
            violations += 1
    assert report(11, violations == 0, f"{n} in-domain samples, {violations} violations")


def test_criterion_12_deterministic_reports():
    cfg = harness.default_config()
    a = harness.run_config(cfg)
    b = harness.run_config(cfg)
    same = a.canonical_bytes() == b.canonical_bytes()
    assert report(12, same and a.summary["fail"] == 0,
                  f"two default runs byte-identical modulo runtimes: {same}; "
                  f"summary {a.summary}")
    # The bytes every "bit for bit" change of the library must keep.
    digest = hashlib.sha256(a.canonical_bytes()).hexdigest()
    assert digest == "e45226b6d8071eec9a57f8b3c22e1dc97e94bef574aeb30608034c06d905f586"


# The overrides of the three benchmark workloads, copied so that the pins do
# not depend on the benchmark's files.
WORKLOAD_OVERRIDES = {
    "sweep_default": {"sigmas": [4.0, 8.0],
                      "tolerances": {"selfsum_d2_sets": 6, "explore_samples": 8, "elementary_samples": 20000}},
    "convexity_lp": {"checks": ["self_sum_convex", "explore_conv"],
                     "tolerances": {"selfsum_d2_sets": 10, "selfsum_d3_sets": 2, "explore_samples": 16}},
    "entropy_fft": {"checks": ["epi_gap", "discrete_ub", "max_pmf_1d"], "sigmas": [8.0, 16.0]},
}


def test_workload_reports_keep_their_canonical_bytes():
    # The other three reports every "bit for bit" change must keep, beside
    # the default sweep of criterion 12, at the default seed.
    expected = {
        "sweep_default": "c9f1367064c08fc80ce7e96f1f6fb133cfe1d5fbc524fe8093c3ef0eac35663c",
        "convexity_lp": "6dd5750c074d2fef138c0f1155aeb7888e14ba7caa0e3fb21072dec3c818b414",
        "entropy_fft": "abfc365ec472b899ff5096063152dbd1cab11b6292f0badacdd1c1f9ebcb6489",
    }
    digests = {}
    for name, overrides in WORKLOAD_OVERRIDES.items():
        doc = {**harness.default_config().to_doc(), "seed": 20240810, **overrides}
        report = harness.run_config(harness.ExperimentConfig.from_doc(doc))
        digests[name] = hashlib.sha256(report.canonical_bytes()).hexdigest()
    assert digests == expected
