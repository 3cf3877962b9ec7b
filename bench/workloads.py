"""Benchmark workloads: an ``lce`` report config per workload and seed, and
the rules a report's rows are checked by.

Every workload is the default sweep config (``harness.default_config()``)
with a subset of its checks and smaller sizes, so that one report takes a few
seconds and a timed run holds several reports.  The default config is copied
here, not imported, so that a change to the program's defaults cannot change
the benchmark's inputs.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 20240810
# Every CYCLE-th report of a run uses DEFAULT_SEED, whose rows are checked
# against the reference report; the others use seeds drawn from the run's
# seed, so that a run averages over how much work the random sets of one seed
# happen to need.
CYCLE = 2

_DEFAULT_CHECKS = [
    "smooth_identity",
    "epi_gap",
    "diff_approx",
    "discrete_ub",
    "max_pmf_1d",
    "bridge_gaps",
    "self_sum_convex",
    "explore_conv",
    "geom_ballbody",
    "geom_inclusions",
    "geom_kls",
    "geom_radius",
    "elementary_estimate",
]

# name -> (why, overrides of the default sweep config)
WORKLOADS = {
    "sweep_default": (
        "every check of the default sweep, at sizes cut to a few seconds; the only workload that "
        "runs smoothing, and the mix a user of lce sweep waits for",
        {
            "sigmas": [4.0, 8.0],
            "tolerances": {"selfsum_d2_sets": 6, "explore_samples": 8, "elementary_samples": 20000},
        },
    ),
    "convexity_lp": (
        "self-sum convexity in d=2,3 and self-convolution extensibility: the per-point LP route "
        "(solve_lp) and tiny direct convolutions",
        {
            "checks": ["self_sum_convex", "explore_conv"],
            "tolerances": {"selfsum_d2_sets": 10, "selfsum_d3_sets": 2, "explore_samples": 16},
        },
    ),
    "entropy_fft": (
        "entropy chains of quantized Gaussians in d=1,2: large FFT convolutions and exact sums, "
        "no smoothing and few LPs",
        {
            "checks": ["epi_gap", "discrete_ub", "max_pmf_1d"],
            "sigmas": [8.0, 16.0],
        },
    ),
}

# A status that depends on the random sets a seed draws; any listed value is
# correct.  Every other row must keep the status of the reference report.
SEED_DEPENDENT_STATUS = {
    "self_sum_convex": {"pass", "fail"},  # d=3 sums may have genuine holes
    "explore_conv": {"pass", "flagged"},  # counterexamples are reported, not asserted
}

# Absolute tolerance on a measured value, by check id, named after the config
# tolerance the check itself is judged with; every value also gets RTOL.
ROW_ATOL = {
    "smooth_identity": "identity_tol",
    "epi_gap": "entropy_tol",
    "epi_gap_monotone": "entropy_tol",
    "diff_approx": "entropy_tol",
    "diff_approx_rate": "entropy_tol",
}
RTOL = 1e-9


def config_doc(workload: str, seed: int) -> dict:
    """The ``ExperimentConfig`` document of ``workload`` at ``seed``."""
    doc = {
        "family": {"name": "gaussian", "params": {}},
        "dims": [1, 2],
        "sigmas": [4.0, 8.0, 16.0, 32.0],
        "n_values": [1, 2],
        "checks": list(_DEFAULT_CHECKS),
        "tolerances": {},
        "seed": int(seed),
        "output": None,
    }
    doc.update(WORKLOADS[workload][1])
    return doc


def config_seed(seed: int, index: int) -> int:
    """Config seed of report ``index`` of a run with benchmark seed ``seed``."""
    if index % CYCLE == 0:
        return DEFAULT_SEED
    return random.Random(f"{seed}:{index}").randrange(2**31)


def row_key(row: dict) -> tuple:
    inputs = row["inputs"]
    return (row["check_id"], inputs["family"], inputs["d"], inputs["sigma"], inputs["n"])


def compare_rows(rows: list, reference: dict) -> list[str]:
    """Disagreements of ``rows`` with the reference report of the same seed.

    Rows disagree when a check id, input or status differs, or when a measured
    value lies outside the check's own tolerance.
    """
    ref_rows = reference["rows"]
    problems = _compare_keys(rows, ref_rows)
    if problems:
        return problems
    tolerances = reference["tolerances"]
    for row, ref in zip(rows, ref_rows):
        where = f"{row['check_id']} {row['inputs']}"
        if row["status"] != ref["status"]:
            problems.append(f"{where}: status {row['status']} != reference {ref['status']}")
        if set(row["measured"]) != set(ref["measured"]):
            problems.append(f"{where}: measured keys differ from the reference")
            continue
        atol = tolerances.get(ROW_ATOL.get(row["check_id"], ""), 0.0)
        for name, want in ref["measured"].items():
            got = row["measured"][name]
            if not _close(got, want, atol):
                problems.append(f"{where}: {name}={got!r}, reference {want!r} (atol {atol})")
    return problems


def check_pattern(rows: list, reference: dict) -> list[str]:
    """For a seed without a reference report: the same rows as the reference
    and, row by row, its status or one of the seed-dependent statuses."""
    ref_rows = reference["rows"]
    problems = _compare_keys(rows, ref_rows)
    if problems:
        return problems
    for row, ref in zip(rows, ref_rows):
        allowed = SEED_DEPENDENT_STATUS.get(row["check_id"], {ref["status"]})
        if row["status"] not in allowed:
            problems.append(f"{row['check_id']} {row['inputs']}: status {row['status']} not in {sorted(allowed)}")
    return problems


def _compare_keys(rows: list, ref_rows: list) -> list[str]:
    keys = [row_key(r) for r in rows]
    ref_keys = [row_key(r) for r in ref_rows]
    if keys == ref_keys:
        return []
    return [f"rows {keys[:3]}... differ from reference rows {ref_keys[:3]}... ({len(keys)} vs {len(ref_keys)})"]


def _close(got, want, atol: float) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
        return got == want
    if math.isinf(want):
        return got == want
    return abs(got - want) <= atol + RTOL * abs(want)
