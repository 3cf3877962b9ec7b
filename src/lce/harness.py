"""Experiment driver: sweeps over distribution families, quantitative checks,
report and CSV emission.

Checks are registered by id and take the :class:`RunContext` that
:func:`run_config` builds per run: the :class:`ExperimentConfig`, the moment
summary of the family member of each (d, sigma), taken once per run, and the
entropy chains S_1..S_n, one per (d, sigma), which ``epi_gap`` (Delta_n) and
``diff_approx`` (delta_n) share.  Each chain level is convolved once, when a
reader first needs it, and a chain is dropped at its last read.

Each check produces :class:`CheckResult` rows whose status is recomputable
from the stored measured/bound pairs; sweep points whose hypotheses fail
(degenerate covariance, non-extensible family member) are ``flagged`` rather
than ``fail``.  Every row is built by :meth:`RunContext.row`.  A row's
``runtime_ms`` is the wall time since the check's previous row, or since the
check began, so a chain build or the extensibility precheck lands on the first
row that waits for it, and a check's rows add up to its wall time.  Reports
serialize to JSON deterministically; byte identity modulo the runtime fields
is part of the contract.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__, convexity, families, geometry, hull
from .bridge import covdis_check_1d, lattice_vs_integral_gaps
from .densities import asym_exponential, gaussian, laplace_product
from .errors import LceError
from .lattice import Box, LatticePmf, LatticeSet, convolve, make_product, pmf_to_doc, point_mass
from .moments import MomentSummary, discrete_moments, isotropy_score, max_pmf_width_product, shannon_entropy
from .numerics import stable_sum, unit_directions
from .smoothing import elementary_estimate, entropy_like, smoothed_entropy_detail

TOOL_VERSION = f"lce {__version__}"

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"

BRIDGE_SIGMAS = (2.0, 4.0, 8.0)

DEFAULT_TOLERANCES = {
    "identity_tol": 1e-9,  # |h(S + U^1) - H(S)|
    "entropy_tol": 1e-8,  # quadrature target for smoothed entropies
    "epi_min_delta": 1e-3,  # Delta_n >= -this once sigma >= epi_sigma_floor
    "epi_sigma_floor": 8.0,
    "deficit_floor": 1e-9,  # fp floor when comparing EPI deficits across sigma
    "ub_cap": 1.0,  # max p * sqrt(det Cov) cap for the sweep family
    "envelope_tol": 1e-9,  # extensibility tolerance (log-mass units)
    "max_width_cap": 1.0 + 1e-9,
    "explore_samples": 40,
    "selfsum_d2_sets": 30,
    # d=3 is opt-in: hole-free sets in Z^3 need not stay hole-free under
    # Minkowski self-sums (Reeve-simplex phenomenon), so a random d=3 sweep
    # reports genuine non-convex sums rather than a software defect.
    "selfsum_d3_sets": 0,
    "selfsum_nmax": 4,
    "elementary_samples": 100_000,
}
# Tolerances that count samples, sets or summands: non-negative integers.
COUNT_TOLERANCES = ("explore_samples", "selfsum_d2_sets", "selfsum_d3_sets", "selfsum_nmax", "elementary_samples")


@dataclass
class ExperimentConfig:
    family: dict
    dims: list
    sigmas: list
    n_values: list
    checks: list
    tolerances: dict = field(default_factory=dict)
    seed: int = 20240810
    output: str | None = None

    def __post_init__(self):
        fam = self.family
        if not (isinstance(fam, dict) and isinstance(fam.get("name", ""), str)
                and isinstance(fam.get("params", {}), dict) and all(isinstance(k, str) for k in fam.get("params", {}))):
            raise LceError('family must be an object {"name": string, "params": object}')
        extra = sorted(set(fam) - {"name", "params"})
        if extra:
            raise LceError(f"unknown family keys: {extra}")
        families.SWEEP.check_call(self.family_name, 1.0, 1, **fam.get("params", {}))  # placeholder sigma, d
        for key in ("dims", "n_values"):
            if not _nonempty_list(getattr(self, key), lambda v: isinstance(v, int) and v > 0):
                raise LceError(f"{key} must be a nonempty list of positive integers")
        if not _nonempty_list(self.sigmas, lambda v: isinstance(v, (int, float)) and 0 < v < math.inf):
            raise LceError("sigmas must be a nonempty list of finite positive numbers")
        if not isinstance(self.checks, list) or not all(isinstance(c, str) for c in self.checks):
            raise LceError("checks must be a list of check ids")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise LceError(f"unknown check ids: {unknown}")
        tols = self.tolerances
        if not isinstance(tols, dict):
            raise LceError("tolerances must be an object")
        unknown = sorted(set(tols) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise LceError(f"unknown tolerance keys: {unknown}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in tols.values()):
            raise LceError("tolerances must be numbers")
        infinite = sorted(k for k, v in tols.items() if isinstance(v, float) and not math.isfinite(v))
        if infinite:
            raise LceError(f"tolerances must be finite: {infinite}")
        for key in COUNT_TOLERANCES:
            least = 2 if key == "selfsum_nmax" else 0
            if key in tols and not (isinstance(tols[key], int) and tols[key] >= least):
                raise LceError(f"tolerance {key} must be an integer >= {least}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise LceError("seed must be a non-negative integer")
        if self.output is not None and not isinstance(self.output, str):
            raise LceError("output must be null or a string")

    @property
    def family_name(self) -> str:
        return self.family.get("name", "gaussian")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise LceError("config document must be an object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        missing = sorted(f.name for f in fields(cls) if f.name not in doc
                         and f.default is MISSING and f.default_factory is MISSING)
        if unknown or missing:
            raise LceError(f"config document: unknown keys {unknown}, missing keys {missing}")
        return cls(**doc)


def _nonempty_list(values, ok) -> bool:
    """``values`` is a nonempty list whose items, none of them a bool, pass ``ok``."""
    return isinstance(values, list) and bool(values) and all(not isinstance(v, bool) and ok(v) for v in values)


def default_config(output: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        family={"name": "gaussian", "params": {}},
        dims=[1, 2],
        sigmas=[4.0, 8.0, 16.0, 32.0],
        n_values=[1, 2],
        checks=list(CHECKS),
        output=output,
    )


@dataclass
class CheckResult:
    check_id: str
    inputs: dict  # family, d, sigma, n
    measured: dict  # name -> float
    bound: dict  # name -> float
    status: str
    runtime_ms: float
    notes: dict = field(default_factory=dict)


@dataclass
class ReportDocument:
    config: dict
    results: list
    summary: dict
    tool_version: str = TOOL_VERSION

    def to_doc(self) -> dict:
        return asdict(self)

    def canonical_bytes(self) -> bytes:
        doc = self.to_doc()
        for r in doc["results"]:
            r["runtime_ms"] = 0.0
        return json.dumps(doc, sort_keys=True, indent=1).encode()

    def exit_code(self) -> int:
        return 0 if self.summary.get("fail", 0) == 0 else 1


# ---------------------------------------------------------------------------
# family instantiation


def family_pmf(cfg: ExperimentConfig, d: int, sigma: float) -> LatticePmf:
    return families.SWEEP.make(cfg.family_name, sigma, d, **cfg.family.get("params", {}))


def _family_extensibility_precheck(cfg: ExperimentConfig, d: int, sigma: float) -> bool:
    """Extensibility of a central window, at most 9 cells per axis, of the
    family member.

    The window is the restriction of the same convex log-mass to a box, so
    extensibility of the window is the meaningful finite check.
    """
    p = family_pmf(cfg, d, sigma)
    mid = [(lo + hi) // 2 for lo, hi in zip(p.box.lo, p.box.hi)]
    box = Box(tuple(max(lo, c - 4) for lo, c in zip(p.box.lo, mid)),
              tuple(min(hi, c + 4) for hi, c in zip(p.box.hi, mid)))
    cells = tuple(slice(a - lo, b - lo + 1) for a, b, lo in zip(box.lo, box.hi, p.box.lo))
    window = LatticePmf(box, p.values[cells])
    return convexity.is_log_concave_extensible(window, tol=cfg.tol("envelope_tol")).is_extensible


# ---------------------------------------------------------------------------
# run context


class EntropyChain:
    """S_k = X_1 + ... + X_k for i.i.d. copies of one family member: ``H[k - 1]``
    = H(S_k) and, for k <= ``keep`` only, ``sigma_hat[k - 1]`` = sigma_hat(S_k)
    and ``sums[k - 1]`` = the p.m.f. of S_k; so it grows at most one level
    past ``keep``, and that level gets its entropy only."""

    def __init__(self, base: LatticePmf, base_moments: MomentSummary, keep: int):
        self.base = base
        self.keep = keep
        self.sums = [base]
        self.H = [shannon_entropy(base)]
        self.sigma_hat = [base_moments.sigma_hat]

    def extend(self, levels: int) -> None:
        # Convolutions first: on the default sweep this peaks lower in RSS.
        new = []
        while len(self.H) + len(new) < levels:
            new.append(convolve(new[-1] if new else self.sums[-1], self.base))
        self.H += [shannon_entropy(s) for s in new]
        self.sigma_hat += [discrete_moments(s).sigma_hat for s in new[: self.keep - len(self.sigma_hat)]]
        self.sums += new[: self.keep - len(self.sums)]


# Checks that read the entropy chains of the run context.
CHAIN_READERS = ("epi_gap", "diff_approx")


class RunContext:
    """What the checks of one run share: the config, the moment summaries of
    the family members, the entropy chains and the clock that times their rows.

    The summary of each (d, sigma) is taken at its first read, of the chain
    base if a chain is built first, and kept for the run, so a check that
    needs only the summary builds no member; the members themselves are not
    kept.  Each chain reader reads the chain of every (d, sigma) of the sweep
    once; a chain is built at its first read, keeps the p.m.f.s up to
    max(n_values) (the ones ``diff_approx`` smooths) and is dropped at its
    last read."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        readers = sum(c in CHAIN_READERS for c in cfg.checks)
        points = Counter((d, sigma) for d in cfg.dims for sigma in cfg.sigmas)
        self._reads_left = Counter({key: count * readers for key, count in points.items()})
        self._chains: dict = {}
        self._moments: dict = {}
        self.clock = time.perf_counter()

    def row(self, check_id: str, inputs: tuple, measured: dict, bound: dict, ok: bool, rule: str,
            flagged: bool = False) -> CheckResult:
        """The report row of one measurement; ``inputs`` is (family, d, sigma, n).

        Its status is ``flagged`` if the hypotheses fail, else ``pass`` or
        ``fail`` by ``ok``; its ``runtime_ms`` is the wall time since
        :attr:`clock`, which it then resets."""
        now = time.perf_counter()
        family, d, sigma, n = inputs
        result = CheckResult(check_id, {"family": family, "d": d, "sigma": float(sigma), "n": n}, measured, bound,
                             FLAGGED if flagged else PASS if ok else FAIL, (now - self.clock) * 1000.0,
                             {"rule": rule})
        self.clock = now
        return result

    def member_moments(self, d: int, sigma: float, member: LatticePmf | None = None) -> MomentSummary:
        """The moment summary of the family p.m.f. of (d, sigma), taken of
        ``member`` if given (a chain base) and else of a member built for it."""
        key = (d, sigma)
        if key not in self._moments:
            self._moments[key] = discrete_moments(family_pmf(self.cfg, d, sigma) if member is None else member)
        return self._moments[key]

    def chain(self, d: int, sigma: float, levels: int) -> EntropyChain:
        """The chain of (d, sigma), extended to at least ``levels`` levels."""
        key = (d, sigma)
        chain = self._chains.pop(key, None)
        if chain is None:
            base = family_pmf(self.cfg, d, sigma)
            chain = EntropyChain(base, self.member_moments(d, sigma, base), max(self.cfg.n_values))
        chain.extend(levels)
        self._reads_left[key] -= 1
        if self._reads_left[key] > 0:
            self._chains[key] = chain
        return chain


# ---------------------------------------------------------------------------
# checks


def _rate(delta: float, sig_n: float) -> float:
    """The rate statistic delta sigma_hat / log(sigma_hat) of a chain level."""
    return delta * sig_n / math.log(sig_n) if sig_n > 1.0 else float("nan")


def check_smooth_identity(ctx: RunContext) -> list:
    tol = ctx.cfg.tol("identity_tol")
    zoo = families.assorted_pmfs_1d(16)
    u2 = families.uniform_interval(2)
    zoo += [point_mass((0, 0)), make_product([u2, u2]), families.product_gaussian(2.0, 2),
            families.quantized_gaussian(2.0, 2)]
    worst = 0.0
    for p in zoo:
        worst = max(worst, abs(smoothed_entropy_detail(p, 1).value - shannon_entropy(p)))
    return [ctx.row("smooth_identity", ("assorted_zoo", 1, 0.0, 1), {"max_abs_delta": worst, "count": float(len(zoo))},
                    {"identity_tol": tol}, worst < tol, "max_abs_delta < identity_tol")]


def check_epi_gap(ctx: RunContext) -> list:
    cfg = ctx.cfg
    results = []
    floor = cfg.tol("epi_sigma_floor")
    min_delta = cfg.tol("epi_min_delta")
    dfloor = cfg.tol("deficit_floor")
    n_top = max(cfg.n_values) + 1
    for d in cfg.dims:
        extensible = _family_extensibility_precheck(cfg, d, min(cfg.sigmas))
        deficits: dict[int, list] = {n: [] for n in cfg.n_values}
        for sigma in cfg.sigmas:
            chain = ctx.chain(d, sigma, n_top)
            for n in cfg.n_values:
                delta = chain.H[n] - chain.H[n - 1] - 0.5 * d * math.log((n + 1) / n)
                sig_n = chain.sigma_hat[n - 1]
                deficit = max(0.0, -delta)
                deficits[n].append(deficit)
                # below the sigma floor a row is recorded only
                results.append(ctx.row("epi_gap", (cfg.family_name, d, sigma, n),
                                       {"delta": delta, "sigma_hat": sig_n, "rate_stat": _rate(delta, sig_n),
                                        "deficit": deficit},
                                       {"delta_min": -min_delta, "sigma_floor": floor},
                                       sigma < floor or delta >= -min_delta,
                                       "delta >= bound.delta_min when sigma >= bound.sigma_floor",
                                       flagged=not extensible or sig_n <= 0.0))
        for n in cfg.n_values:
            seq = [max(x, dfloor) * (x > dfloor) for x in deficits[n]]
            mono = all(seq[i + 1] <= seq[i] + dfloor for i in range(len(seq) - 1))
            results.append(ctx.row("epi_gap_monotone", (cfg.family_name, d, 0.0, n),
                                   {"max_deficit": max(deficits[n]), "last_deficit": deficits[n][-1]},
                                   {"deficit_floor": dfloor}, mono,
                                   "deficits non-increasing in sigma above deficit_floor"))
    return results


def check_diff_approx(ctx: RunContext) -> list:
    cfg = ctx.cfg
    results = []
    id_tol = cfg.tol("identity_tol")
    etol = cfg.tol("entropy_tol")
    n_top = max(cfg.n_values)
    for d in cfg.dims:
        rates: dict[int, list] = {n: [] for n in cfg.n_values if n >= 2}
        for sigma in cfg.sigmas:
            chain = ctx.chain(d, sigma, n_top)
            for n in cfg.n_values:
                delta = abs(smoothed_entropy_detail(chain.sums[n - 1], n, tol=etol).value - chain.H[n - 1])
                sig_n = chain.sigma_hat[n - 1]
                rate = _rate(delta, sig_n)
                if n >= 2:
                    rates[n].append(rate)
                results.append(ctx.row("diff_approx", (cfg.family_name, d, sigma, n),
                                       {"delta": delta, "rate_stat": rate, "sigma_hat": sig_n},
                                       {"identity_tol": id_tol if n == 1 else float("nan")},
                                       n >= 2 or delta < id_tol, "n=1: delta < identity_tol; n>=2: rate recorded"))
        for n, seq in rates.items():
            if len(seq) < 3:
                continue
            top = max(seq[-2], seq[-1])
            results.append(ctx.row("diff_approx_rate", (cfg.family_name, d, 0.0, n),
                                   {"rate_smallest": seq[0], "rate_two_largest_max": top}, {"cap": seq[0]},
                                   top <= seq[0] * (1.0 + 1e-9), "rate at two largest sigmas <= rate at smallest"))
    return results


def check_discrete_ub(ctx: RunContext) -> list:
    cfg = ctx.cfg
    results = []
    cap = cfg.tol("ub_cap")
    for d in cfg.dims:
        for sigma in cfg.sigmas:
            s = ctx.member_moments(d, sigma)
            det = max(s.cov.det(), 0.0)
            ratio = s.max_value * math.sqrt(det)
            target = (2.0 * math.pi) ** (-d / 2.0)
            try:
                iso = isotropy_score(s).normalized
            except LceError:
                iso = float("nan")
            results.append(ctx.row("discrete_ub", (cfg.family_name, d, sigma, 1),
                                   {"ratio_ub": ratio, "gaussian_target": target,
                                    "target_rel_err": abs(ratio - target) / target, "isotropy_normalized": iso},
                                   {"cap": cap}, ratio <= cap, "ratio_ub <= bound.cap", flagged=det <= 0.0))
    return results


def check_max_pmf_1d(ctx: RunContext) -> list:
    cfg = ctx.cfg
    results = []
    cap = cfg.tol("max_width_cap")
    for sigma in cfg.sigmas:
        prod = max_pmf_width_product(ctx.member_moments(1, sigma))
        results.append(ctx.row("max_pmf_1d", (cfg.family_name, 1, sigma, 1), {"max_width_product": prod},
                               {"cap": cap}, prod <= cap, "max_width_product <= bound.cap"))
    return results


def check_bridge_gaps(ctx: RunContext) -> list:
    results = []
    for d in ctx.cfg.dims:
        det_stats = []
        for sigma in BRIDGE_SIGMAS:
            rep = lattice_vs_integral_gaps(gaussian(sigma, d))
            det_stats.append(abs(rep.det_gap) / sigma ** (2 * d - 1))
            results.append(ctx.row("bridge_gaps", ("gaussian", d, sigma, 1),
                                   {"mass_gap": rep.mass_gap, "det_gap": rep.det_gap, "det_stat": det_stats[-1],
                                    "max_lattice": rep.max_lattice_value},
                                   {"mass_gap_cap": rep.max_lattice_value},
                                   abs(rep.mass_gap) <= rep.max_lattice_value + 1e-12,
                                   "|mass_gap| <= max lattice value (quasi-concave bound)"))
        floor = 1e-9
        cap = max(det_stats[0], floor)
        results.append(ctx.row("bridge_det_envelope", ("gaussian", d, 0.0, 1),
                               {"det_stat_smallest": det_stats[0], "det_stat_max": max(det_stats)},
                               {"cap": cap, "floor": floor}, all(v <= cap * (1 + 1e-9) + floor for v in det_stats),
                               "det_gap / sigma^(2d-1) bounded by its value at the smallest sigma"))
    densities_1d = [gaussian(1.0, 1), gaussian(2.0, 1), laplace_product(1.0, 1), laplace_product(0.5, 1),
                    asym_exponential(0.7, 2.0), asym_exponential(2.0, 0.5)]
    worst = 0.0
    for f in densities_1d:
        chk = covdis_check_1d(f)
        worst = max(worst, chk.gap / chk.bound)
    results.append(ctx.row("bridge_covdis", ("logconcave_1d_zoo", 1, 0.0, 1),
                           {"worst_gap_over_bound": worst, "count": float(len(densities_1d))}, {"cap": 1.0},
                           worst <= 1.0, "|int x f - sum k f| <= (e+1) sum f on every density"))
    return results


def _random_convex_set(rng: np.random.Generator, d: int, span: int) -> LatticeSet:
    """Random Z^d-convex set: lattice points of the hull of random seeds."""
    npts = int(rng.integers(d + 1, d + 5))
    pts = rng.integers(0, span + 1, size=(npts, d))
    seed_set = LatticeSet.from_iterable(d, pts)
    box = seed_set.bounding_box()
    lo = np.array(box.lo, dtype=np.int64)
    A, b = hull.hrep(seed_set.array() - lo)
    return LatticeSet.from_iterable(d, hull.box_points_inside(A, b, box.shape) + lo)


def check_self_sum_convex(ctx: RunContext) -> list:
    cfg = ctx.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    n_max = cfg.tol("selfsum_nmax")
    # Set sizes are configured by count, not by the p.m.f. sweep dims: the
    # self-sum law is a lattice-set statement and cheap even in d = 3.
    plans = [(2, cfg.tol("selfsum_d2_sets"), 5), (3, cfg.tol("selfsum_d3_sets"), 3)]
    results = []
    for d, count, span in plans:
        if count <= 0:
            continue
        failures = 0
        for _ in range(count):
            reports = convexity.check_self_sum_convexity(_random_convex_set(rng, d, span), n_max)
            failures += sum(0 if r.is_convex else 1 for r in reports)
        results.append(ctx.row("self_sum_convex", ("random_convex_sets", d, 0.0, n_max),
                               {"sets": float(count), "nonconvex_sums": float(failures)}, {"max_failures": 0.0},
                               failures == 0, "every n-fold self-sum of a convex set stays convex"))
    return results


def _random_extensible_pmf(rng: np.random.Generator):
    """Rejection sampler: convex quadratic log-masses plus uniform noise up to
    0.15 on a random convex support in [0, 4]^2; accepted only if the result
    is log-concave extensible."""
    for _ in range(200):
        support = _random_convex_set(rng, 2, 4)
        if len(support) < 2:
            continue
        B = rng.normal(size=(2, 2))
        Q = B.T @ B / 4.0 + 0.05 * np.eye(2)
        b = rng.normal(size=2)
        arr = support.array().astype(np.float64)
        V = 0.5 * np.einsum("ni,ij,nj->n", arr, Q, arr) + arr @ b
        V = V + 0.15 * rng.random(len(arr))
        w = np.exp(-(V - V.min()))
        box = support.bounding_box()
        vals = np.zeros(box.shape)
        vals[tuple((support.array() - np.array(box.lo)).T)] = w
        p = LatticePmf(Box(tuple(box.lo), tuple(box.hi)), vals / stable_sum(vals), 0.0, {"family": "random_extensible"})
        rep = convexity.is_log_concave_extensible(p)
        if rep.is_extensible:
            return p
    raise LceError("rejection sampler failed to produce an extensible p.m.f.")


def check_explore_conv(ctx: RunContext) -> list:
    cfg = ctx.cfg
    rng = np.random.default_rng(cfg.seed + 2)
    samples = cfg.tol("explore_samples")
    tol = cfg.tol("envelope_tol")
    counterexamples = []
    fail2 = fail3 = 0
    for _ in range(samples):
        p = _random_extensible_pmf(rng)
        p2 = convolve(p, p)
        p3 = convolve(p2, p)
        r2 = convexity.is_log_concave_extensible(p2, tol=tol)
        r3 = convexity.is_log_concave_extensible(p3, tol=tol)
        if not r2.is_extensible:
            fail2 += 1
            counterexamples.append(pmf_to_doc(p))
        elif not r3.is_extensible:
            fail3 += 1
            counterexamples.append(pmf_to_doc(p))
    row = ctx.row("explore_conv", ("random_extensible", 2, 0.0, 3),
                  {"samples": float(samples), "fail_twofold": float(fail2), "fail_threefold": float(fail3)}, {},
                  True, "closure of extensibility under self-convolution is an open question; "
                        "failures are reported, never asserted", flagged=bool(counterexamples))
    if counterexamples:
        row.notes["counterexamples"] = counterexamples
    return [row]


def check_geom_ballbody(ctx: RunContext) -> list:
    dirs = unit_directions(2, 64)
    prof1 = geometry.ball_body_radial(gaussian(1.0, 2), 2.0, dirs)
    err_value = float(np.abs(prof1.radii - math.sqrt(2.0)).max())
    spread = float(prof1.radii.max() / prof1.radii.min() - 1.0)
    prof2 = geometry.ball_body_radial(gaussian(2.0, 2), 2.0, dirs)
    scale_err = float(np.abs(prof2.radii / prof1.radii - 2.0).max())
    return [ctx.row("geom_ballbody", ("gaussian", 2, 1.0, 1),
                    {"radial_err": err_value, "direction_spread": spread, "scaling_err": scale_err},
                    {"radial_tol": 1e-6, "spread_tol": 1e-8, "scaling_tol": 1e-6},
                    err_value < 1e-6 and spread < 1e-8 and scale_err < 1e-6,
                    "rho_K2 = sqrt(2) sigma, direction-independent, homogeneous")]


def check_geom_inclusions(ctx: RunContext) -> list:
    results = []
    dirs = unit_directions(2, 64)
    for (p, q) in ((2.0, 3.0), (3.0, 4.0)):
        chk = geometry.check_inclusions(gaussian(1.0, 2), p, q, dirs)
        results.append(ctx.row("geom_inclusions", ("gaussian", 2, 1.0, 1),
                               {"min_ratio": chk.min_ratio, "max_ratio": chk.max_ratio, "p": p, "q": q},
                               {"lower": chk.lower, "upper": chk.upper}, chk.passed,
                               "lower <= rho_p/rho_q <= upper on all directions"))
    return results


def _geom_bodies(cfg: ExperimentConfig):
    rng = np.random.default_rng(cfg.seed + 3)
    bodies = [
        ("ball2", geometry.make_ball(2, 1.5)),
        ("cube2", geometry.make_cube(2)),
        ("simplex2", geometry.make_simplex(2)),
        ("ball3", geometry.make_ball(3)),
        ("cube3", geometry.make_cube(3)),
        ("simplex3", geometry.make_simplex(3)),
    ]
    for d in (2, 3):
        m = 3 * d
        A = rng.normal(size=(m, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = rng.uniform(0.5, 1.5, size=m)
        A = np.vstack([A, -A])
        b = np.concatenate([b, b])
        bodies.append((f"hpoly{d}", geometry.make_hpoly(A, b)))
    return bodies


def check_geom_kls(ctx: RunContext) -> list:
    cfg = ctx.cfg
    results = []
    rng = np.random.default_rng(cfg.seed + 4)
    for name, K in _geom_bodies(cfg):
        dirs = [np.eye(K.dim)[0], np.ones(K.dim), rng.normal(size=K.dim)]
        ok = True
        worst = 0.0
        for rep in geometry.kls_second_moment_check(K, dirs):
            ok = ok and rep.chain_holds(tol=1e-6)
            span = max(rep.rhs - rep.lhs, 1e-300)
            worst = max(worst, (rep.lhs - rep.mid) / span, (rep.mid - rep.rhs) / span)
        results.append(ctx.row("geom_kls", (name, K.dim, 0.0, 1), {"worst_violation": worst}, {"cap": 0.0}, ok,
                               "h^2/(d(d+2)) <= mean <x,u>^2 <= d h^2/(d+2), MC within 3 SE"))
    return results


def check_geom_radius(ctx: RunContext) -> list:
    results = []
    bodies = [
        ("cube2", geometry.make_cube(2)),
        ("cube3", geometry.make_cube(3)),
        ("ball2", geometry.scale_to_unit_volume(geometry.make_ball(2))),
        ("ball3", geometry.scale_to_unit_volume(geometry.make_ball(3))),
        ("ellipsoid2", geometry.scale_to_unit_volume(geometry.make_ellipsoid([1.0, 2.0]))),
    ]
    for name, K in bodies:
        rep = geometry.radius_bounds_check(K)
        results.append(ctx.row("geom_radius", (name, K.dim, 0.0, 1),
                               {"inradius_margin": rep.inradius_margin, "circum_margin": rep.circum_margin},
                               {"min_margin": 0.0}, rep.holds(),
                               "R <= (d+1) sqrt(lambda_max) and r >= sqrt((d+2)/d) sqrt(lambda_min)"))
    return results


def check_elementary(ctx: RunContext) -> list:
    cfg = ctx.cfg
    rng = np.random.default_rng(cfg.seed + 5)
    n = cfg.tol("elementary_samples")
    M = np.exp(rng.uniform(0.0, 8.0, n))
    D = np.exp(rng.uniform(0.0, 8.0, n))
    hi = D / M
    a = hi * rng.random(n)
    b = hi * rng.random(n)
    mu = rng.uniform(1e-12, 1.0 / math.e - 1e-12, n)
    viol = 0
    worst = -np.inf
    for Mi, Di, ai, bi, mui in zip(M.tolist(), D.tolist(), a.tolist(), b.tolist(), mu.tolist()):
        g = abs(entropy_like(bi, Mi) - entropy_like(ai, Mi))
        bound = elementary_estimate(ai, bi, mui, Di, Mi)
        margin = g - bound
        worst = max(worst, margin)
        if margin > 1e-12 * max(1.0, bound):
            viol += 1
    return [ctx.row("elementary_estimate", ("random_domain", 1, 0.0, 1),
                    {"samples": float(n), "violations": float(viol), "worst_margin": float(worst)},
                    {"max_violations": 0.0}, viol == 0, "|G(b) - G(a)| <= (2 mu/M) log(1/mu) + |b-a| log(e D/mu)")]


CHECKS = {
    "smooth_identity": check_smooth_identity,
    "epi_gap": check_epi_gap,
    "diff_approx": check_diff_approx,
    "discrete_ub": check_discrete_ub,
    "max_pmf_1d": check_max_pmf_1d,
    "bridge_gaps": check_bridge_gaps,
    "self_sum_convex": check_self_sum_convex,
    "explore_conv": check_explore_conv,
    "geom_ballbody": check_geom_ballbody,
    "geom_inclusions": check_geom_inclusions,
    "geom_kls": check_geom_kls,
    "geom_radius": check_geom_radius,
    "elementary_estimate": check_elementary,
}


def run_config(cfg: ExperimentConfig) -> ReportDocument:
    ctx = RunContext(cfg)
    results = []
    for check_id in cfg.checks:
        ctx.clock = time.perf_counter()
        results.extend(CHECKS[check_id](ctx))
    counts = Counter(r.status for r in results)
    summary = {"pass": counts[PASS], "fail": counts[FAIL], "flagged": counts[FLAGGED], "total": len(results)}
    return ReportDocument(config=cfg.to_doc(), results=results, summary=summary)


CSV_HEADER = ["check_id", "family", "d", "sigma", "n", "measured", "bound", "status", "runtime_ms"]


def report_csv_text(doc: ReportDocument) -> str:
    """One row per sweep point per check; measured/bound are the primary pair."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in doc.results:
        inputs = [r.inputs.get(key, "") for key in ("family", "d", "sigma", "n")]
        primary = [next(iter(r.measured.values()), ""), next(iter(r.bound.values()), "")]
        w.writerow([r.check_id, *inputs, *primary, r.status, r.runtime_ms])
    return buf.getvalue()


def emit_report(doc: ReportDocument, json_path, csv_path=None):
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc.to_doc(), sort_keys=True, indent=1))
            fh.write("\n")
        if csv_path is not None:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(report_csv_text(doc))
    except OSError as exc:
        raise LceError(f"cannot write report: {exc}") from None


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise LceError(f"cannot read config file {path}: {exc}") from None
    return ExperimentConfig.from_doc(doc)
