#!/usr/bin/env python3
"""Empirical exploration: is log-concave extensibility on Z^2 preserved by
self-convolution?

Samples random extensible p.m.f.s on small supports, convolves them with
themselves (twice and three times), and re-runs the extensibility decision.
Instances whose self-convolutions fail are re-verified in exact rational
arithmetic and dumped as JSON for reproduction.

Usage: python scripts/explore_self_convolution.py [SAMPLES] [SEED] [OUTDIR]
"""

import json
import pathlib
import sys

import numpy as np

from lce import convexity
from lce.harness import _random_extensible_pmf
from lce.lattice import convolve, pmf_to_doc


def main() -> int:
    samples = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20240810
    outdir = pathlib.Path(sys.argv[3]) if len(sys.argv) > 3 else pathlib.Path("explore_out")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    tallies = {"extensible_twofold": 0, "fail_twofold": 0, "fail_threefold": 0}
    dumps = []
    for i in range(samples):
        p = _random_extensible_pmf(rng)
        p2 = convolve(p, p)
        r2 = convexity.is_log_concave_extensible(p2)
        if r2.is_extensible:
            tallies["extensible_twofold"] += 1
            p3 = convolve(p2, p)
            if not convexity.is_log_concave_extensible(p3).is_extensible:
                tallies["fail_threefold"] += 1
                dumps.append((i, p, 3))
        else:
            tallies["fail_twofold"] += 1
            # exact-arithmetic confirmation before calling it a counterexample
            exact = convexity.is_log_concave_extensible(p2, exact=True)
            if not exact.is_extensible:
                dumps.append((i, p, 2))

    print(f"samples={samples} seed={seed}")
    for k, v in tallies.items():
        print(f"  {k}: {v}")
    for i, p, fold in dumps:
        path = outdir / f"counterexample_{i:04d}_fold{fold}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fold": fold, "pmf": pmf_to_doc(p)}, fh, indent=1)
    if dumps:
        print(f"wrote {len(dumps)} exact-verified counterexample p.m.f.s to {outdir}/")
        print("each one: an extensible p.m.f. whose self-convolution is not extensible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
