#!/usr/bin/env python3
"""Print the entropy-monotonicity gap and the discrete-vs-differential
entropy deviation along the quantized-Gaussian sigma sweep.

For each (d, sigma, n): Delta_n = H(S_(n+1)) - H(S_n) - (d/2) log((n+1)/n)
and delta_n = |h(S_n + U^(n)) - H(S_n)|, with the rate statistic scaled by
sigma_hat / log sigma_hat.  The values are the ``epi_gap`` and
``diff_approx`` rows of one verification run, which share its entropy chains.

Usage: python scripts/epi_rate_table.py [--dims 1,2] [--sigmas 4,8,16,32] [--nmax 2]
"""

import argparse

from lce.harness import ExperimentConfig, run_config


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dims", default="1,2")
    ap.add_argument("--sigmas", default="4,8,16,32")
    ap.add_argument("--nmax", type=int, default=2)
    args = ap.parse_args()
    try:
        cfg = ExperimentConfig(
            family={"name": "gaussian", "params": {}},
            dims=[int(x) for x in args.dims.split(",")],
            sigmas=[float(x) for x in args.sigmas.split(",")],
            n_values=list(range(1, args.nmax + 1)),
            checks=["epi_gap", "diff_approx"],
        )
    except ValueError as exc:  # lce.errors.LceError included
        ap.error(str(exc))
    measured = {"epi_gap": {}, "diff_approx": {}}
    for r in run_config(cfg).results:
        if r.check_id in measured:
            measured[r.check_id][r.inputs["d"], r.inputs["sigma"], r.inputs["n"]] = r.measured

    print(f"{'d':>2} {'sigma':>6} {'n':>2} {'Delta_n':>12} {'delta_n':>12} {'rate(delta)':>12}")
    for (d, sigma, n), gap in measured["epi_gap"].items():
        approx = measured["diff_approx"][d, sigma, n]
        values = (gap["delta"], approx["delta"], approx["rate_stat"])
        print(f"{d:>2} {sigma:>6.1f} {n:>2}", *(f"{v:>12.3e}" for v in values))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
