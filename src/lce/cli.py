"""Command-line front end.

Subcommands: gen, convolve, entropy, moments, check, smooth-entropy, geom,
bridge, verify, sweep.  P.m.f.s, configs and reports are JSON documents;
results print to stdout as JSON.  Exit code 1 means a verification run
contains a failing check, 2 bad input and 3 a numerical failure (a routine
that did not converge); errors are reported on one ``error:`` line.  A reader
that closes stdout early (``lce ... | head``) ends the command with exit code
141 (128 + SIGPIPE) and no message.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bridge as bridge_mod
from . import convexity, families, geometry, harness, moments, smoothing
from .densities import DENSITIES, parse_param_spec
from .errors import LceError, NumericalError
from .lattice import convolve, load_pmf, save_pmf, support_set
from .numerics import unit_directions


def _emit(doc: dict):
    json.dump(doc, sys.stdout, indent=1, sort_keys=True, default=_jsonable)
    sys.stdout.write("\n")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _gen(args) -> int:
    p = families.GENERATORS.from_spec(args.family)
    save_pmf(p, args.out)
    _emit({"written": args.out, "dim": p.dim, "cells": p.box.ncells, "deficit": p.deficit})
    return 0


def _convolve(args) -> int:
    if len(args.pmf) != 2:
        raise LceError(f"convolve takes exactly two --pmf inputs, got {len(args.pmf)}")
    p, q = (load_pmf(path) for path in args.pmf)
    r = convolve(p, q, method=args.method)
    save_pmf(r, args.out)
    _emit({"written": args.out, "method": r.meta.get("method"), "deficit": r.deficit})
    return 0


def _entropy(args) -> int:
    p = load_pmf(args.pmf)
    _emit({"entropy_nats": moments.shannon_entropy(p), "deficit": p.deficit})
    return 0


def _moments(args) -> int:
    p = load_pmf(args.pmf)
    s = moments.discrete_moments(p)
    doc = {
        "mass": s.mass,
        "mean": s.mean,
        "cov": s.cov.entries,
        "max_value": s.max_value,
        "argmax": list(s.argmax),
        "sigma_hat": s.sigma_hat,
        "variation_sum": [moments.variation_sum(p, axis) for axis in range(p.dim)],
        "sum_of_maxima": [[moments.sum_of_maxima(p, i, j) for j in range(p.dim)] for i in range(3)],
    }
    try:
        score = moments.isotropy_score(s)
        doc["isotropy"] = {"op_norm_deviation": score.op_norm_deviation, "normalized": score.normalized}
    except LceError:
        doc["isotropy"] = None
    _emit(doc)
    return 0


def _check(args) -> int:
    p = load_pmf(args.pmf)
    if args.mode == "zconvex":
        rep = convexity.is_zd_convex(support_set(p))  # exact already: --exact changes nothing
        _emit({"is_convex": rep.is_convex, "witnesses": [list(w) for w in rep.witnesses]})
        return 0
    if args.mode == "extensible":
        rep = convexity.is_log_concave_extensible(p, tol=args.tol, exact=args.exact)
        _emit(
            {
                "is_extensible": rep.is_extensible,
                "support_convex": rep.support_convex,
                "tolerance_used": rep.tolerance_used,
                "max_gap": rep.max_gap(),
                "envelope_gaps": {str(list(k)): v for k, v in sorted(rep.envelope_gaps.items())},
            }
        )
        return 0
    if args.mode == "selfsum":
        reports = convexity.check_self_sum_convexity(support_set(p), args.nmax)
        _emit(
            {
                "n_max": args.nmax,
                "all_convex": all(r.is_convex for r in reports),
                "reports": [
                    {"n": n, "is_convex": r.is_convex, "witnesses": [list(w) for w in r.witnesses]}
                    for n, r in enumerate(reports, start=2)
                ],
            }
        )
        return 0
    raise LceError(f"unknown check mode {args.mode!r}")


def _smooth_entropy(args) -> int:
    p = load_pmf(args.pmf)
    det = smoothing.smoothed_entropy_detail(p, args.n, tol=args.tol)
    _emit(
        {
            "differential_entropy_nats": det.value,
            "n": args.n,
            "cells": det.cells,
            "refined_cells": det.refined_cells,
            "error_estimate": det.error_estimate,
            "tiny_cell_bound": det.tiny_cell_bound,
        }
    )
    return 0


def _geom(args) -> int:
    K = geometry.BODIES.from_spec(args.body)
    if args.check == "kls":
        (rep,) = geometry.kls_second_moment_check(K, np.ones(K.dim))
        _emit({"lhs": rep.lhs, "mid": rep.mid, "rhs": rep.rhs, "chain_holds": rep.chain_holds()})
        return 0
    if args.check == "radius":
        rep = geometry.radius_bounds_check(geometry.scale_to_unit_volume(K))
        _emit(
            {
                "inradius": rep.inradius,
                "circumradius": rep.circumradius,
                "lambda_min": rep.lambda_min,
                "lambda_max": rep.lambda_max,
                "holds": rep.holds(),
            }
        )
        return 0
    if args.check in ("ballbody", "inclusions"):
        f = DENSITIES.from_spec(args.density)
        dirs = unit_directions(f.dim, args.dirs)
        if args.check == "ballbody":
            _emit({"p": args.p, "radii": geometry.ball_body_radial(f, args.p, dirs)})
            return 0
        chk = geometry.check_inclusions(f, args.p, args.q, dirs)
        _emit(
            {
                "p": args.p,
                "q": args.q,
                "lower": chk.lower,
                "upper": chk.upper,
                "min_ratio": chk.min_ratio,
                "max_ratio": chk.max_ratio,
                "passed": chk.passed,
            }
        )
        return 0
    raise LceError(f"unknown geom check {args.check!r}")


def _bridge(args) -> int:
    name, params = parse_param_spec(args.density)
    sigmas = [None]
    if args.sweep:
        factory = DENSITIES.factories.get(name)
        if factory is not None and "sigma" not in inspect.signature(factory).parameters:
            raise LceError(f"--sweep sets sigma, which {name!r} does not take")
        try:
            sigmas = [float(s) for s in args.sweep.split(",")]
        except ValueError:
            sigmas = [math.nan]
        if not all(math.isfinite(s) for s in sigmas):
            raise LceError(f"--sweep needs comma-separated finite numbers, got {args.sweep!r}")
    out = []
    for sigma in sigmas:
        g = DENSITIES.make(name, **{**params, **({} if sigma is None else {"sigma": sigma})})
        rep = bridge_mod.lattice_vs_integral_gaps(g)
        out.append(
            {
                "sigma": rep.sigma,
                "mass_gap": rep.mass_gap,
                "mean_gap": rep.mean_gap,
                "second_moment_gap": rep.second_moment_gap,
                "cross_moment": {str(list(k)): v for k, v in rep.cross_moment.items()},
                "det_gap": rep.det_gap,
            }
        )
    _emit({"density": args.density, "gaps": out})
    return 0


def _report_paths(out) -> tuple[Path, Path]:
    """The report JSON and CSV paths, checked before a run rather than after it."""
    paths = (Path(out), Path(out).with_suffix(".csv"))
    if not paths[0].parent.is_dir():
        raise LceError(f"report directory {str(paths[0].parent)!r} does not exist")
    for p in paths:
        if p.is_dir():
            raise LceError(f"report path {str(p)!r} is a directory")
    return paths


def _verify(args) -> int:
    cfg = harness.load_config(args.config)
    out = args.out or cfg.output
    if out:
        json_path, csv_path = _report_paths(out)
    doc = harness.run_config(cfg)
    if out:
        harness.emit_report(doc, json_path, csv_path)
    _emit(doc.to_doc())
    return doc.exit_code()


def _sweep(args) -> int:
    cfg = harness.default_config(output=args.out)
    if args.checks:
        cfg = dataclasses.replace(cfg, checks=args.checks.split(","))
    if args.out:
        json_path, csv_path = _report_paths(args.out)
    doc = harness.run_config(cfg)
    if args.out:
        harness.emit_report(doc, json_path, csv_path)
    else:
        _emit(doc.to_doc())
    print(f"pass={doc.summary['pass']} fail={doc.summary['fail']} flagged={doc.summary['flagged']}",
          file=sys.stderr)
    for r in doc.results:
        if r.status != harness.PASS:
            print(f"[{r.status}] {r.check_id} {json.dumps(r.inputs, sort_keys=True)}", file=sys.stderr)
    return doc.exit_code()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lce", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a p.m.f. file from a named family")
    g.add_argument("--family", required=True, help="e.g. gaussian{sigma=4,dim=2}")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_gen)

    c = sub.add_parser("convolve", help="convolve two p.m.f. files")
    c.add_argument("--pmf", action="append", required=True, help="input file (give exactly twice)")
    c.add_argument("--out", required=True)
    c.add_argument("--method", default="auto", choices=["auto", "direct", "fft"])
    c.set_defaults(fn=_convolve)

    e = sub.add_parser("entropy", help="Shannon entropy of a p.m.f. file")
    e.add_argument("--pmf", required=True)
    e.set_defaults(fn=_entropy)

    m = sub.add_parser("moments", help="moment summary of a p.m.f. file")
    m.add_argument("--pmf", required=True)
    m.set_defaults(fn=_moments)

    k = sub.add_parser("check", help="convexity / extensibility decisions")
    k.add_argument("--pmf", required=True)
    k.add_argument("--mode", required=True, choices=["zconvex", "extensible", "selfsum"])
    k.add_argument("--tol", type=float, default=convexity.DEFAULT_ENVELOPE_TOL)
    k.add_argument("--exact", action="store_true",
                   help="decide extensibility on the hull exactly on integers, with no float tolerance "
                        "(the integer hull of zconvex is exact already)")
    k.add_argument("--nmax", type=int, default=3)
    k.set_defaults(fn=_check)

    s = sub.add_parser("smooth-entropy", help="differential entropy of p.m.f. + n uniforms")
    s.add_argument("--pmf", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--tol", type=float, default=smoothing.DEFAULT_ENTROPY_TOL)
    s.set_defaults(fn=_smooth_entropy)

    ge = sub.add_parser("geom", help="convex-geometry checks")
    ge.add_argument("--body", default="cube{d=2}", help="e.g. cube{d=2}, ball{d=3,radius=1}")
    ge.add_argument("--check", required=True, choices=["kls", "radius", "ballbody", "inclusions"])
    ge.add_argument("--density", default="gaussian{sigma=1,dim=2}")
    ge.add_argument("--p", type=float, default=2.0)
    ge.add_argument("--q", type=float, default=3.0)
    ge.add_argument("--dirs", type=int, default=64)
    ge.set_defaults(fn=_geom)

    b = sub.add_parser("bridge", help="lattice-vs-integral gap reports")
    b.add_argument("--density", required=True, help="e.g. gaussian{sigma=4,dim=2}")
    b.add_argument("--sweep", default=None, help="comma-separated sigmas, each set as the density's sigma "
                   "(so only for gaussian and sheared_gaussian)")
    b.set_defaults(fn=_bridge)

    v = sub.add_parser("verify", help="run a verification config file")
    v.add_argument("--config", required=True)
    v.add_argument("--out", default=None, help="report JSON path (CSV written alongside)")
    v.set_defaults(fn=_verify)

    w = sub.add_parser("sweep", help="run the default verification sweep")
    w.add_argument("--out", default=None)
    w.add_argument("--checks", default=None, help="comma-separated subset of check ids")
    w.set_defaults(fn=_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except LceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    except BrokenPipeError:
        # Point stdout at os.devnull, so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
