"""Which ``lce`` functions the traced run wraps, and the per-layer metrics
derived from what the wrappers record.

Layers are the ``lce`` modules.  Each wrapped function is a span named
``<module>.<function>``; ``bridge`` and ``geometry`` are summed over their
public functions into one span each, and every registered harness check is a
span ``harness.check.<check_id>``.
"""

from __future__ import annotations

import importlib
import inspect
import os

from tracer import Tracer

PACKAGE = "lce"

# The check ids registered in ``lce.harness.CHECKS``; one timing metric each.
CHECK_IDS = (
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
)

# Public functions of these modules are summed into one span per module.
GROUPED_MODULES = ("bridge", "geometry")


def _observe_stable_sum(tr, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tr.count("numerics.stable_sum", "elements", getattr(values, "size", None) or len(values))


def _observe_convolve(tr, args, kwargs, result):
    span = "lattice.convolve"
    tr.count(span, "fft_calls" if result.meta.get("method") == "fft" else "direct_calls")
    tr.count(span, "cells_out", result.values.size)


def _observe_solve_lp(tr, args, kwargs, result):
    span = "simplex.solve_lp"
    tr.count(span, "exact_calls", 1.0 if kwargs.get("exact", False) else 0.0)
    tr.count(span, "infeasible", 1.0 if result.status == "infeasible" else 0.0)


def _observe_is_zd_convex(tr, args, kwargs, result):
    span = "convexity.is_zd_convex"
    A = args[0] if args else kwargs["A"]
    tr.count(span, "box_points", A.bounding_box().ncells)
    tr.count(span, "witnesses", len(result.witnesses))


def _observe_extensible(tr, args, kwargs, result):
    span = "convexity.is_log_concave_extensible"
    tr.count(span, "support_points", len(result.envelope_gaps))
    tr.count(span, "accepted", 1.0 if result.is_extensible else 0.0)


def _observe_smoothing(tr, args, kwargs, result):
    span = "smoothing.smoothed_entropy_detail"
    tr.count(span, "cells", result.cells)
    tr.count(span, "refined_cells", result.refined_cells)
    tr.count_max(span, "error_estimate_max", result.error_estimate)


def _observe_emit_report(tr, args, kwargs, result):
    paths = list(args[1:3]) + [kwargs.get("json_path"), kwargs.get("csv_path")]
    tr.count("harness.emit_report", "bytes", sum(os.path.getsize(p) for p in paths if p is not None))


def install(tracer: Tracer) -> None:
    """Wrap the traced ``lce`` functions; undo with ``tracer.restore()``."""
    from lce import convexity, families, harness, lattice, moments, numerics, simplex, smoothing

    targets = [
        (numerics.stable_sum, "numerics.stable_sum", _observe_stable_sum),
        (lattice.convolve, "lattice.convolve", _observe_convolve),
        (families.quantized_gaussian, "families.quantized_gaussian", None),
        (moments.discrete_moments, "moments.discrete_moments", None),
        (moments.shannon_entropy, "moments.shannon_entropy", None),
        (simplex.solve_lp, "simplex.solve_lp", _observe_solve_lp),
        (convexity.is_zd_convex, "convexity.is_zd_convex", _observe_is_zd_convex),
        (convexity.is_log_concave_extensible, "convexity.is_log_concave_extensible", _observe_extensible),
        (smoothing.smoothed_entropy_detail, "smoothing.smoothed_entropy_detail", _observe_smoothing),
        (harness.emit_report, "harness.emit_report", _observe_emit_report),
    ]
    for name in GROUPED_MODULES:
        targets += [(fn, name, None) for fn in _public_functions(importlib.import_module(f"{PACKAGE}.{name}"))]
    for fn, span, observe in targets:
        tracer.patch_function(PACKAGE, fn, span, observe)
    for check_id in list(harness.CHECKS):
        tracer.patch_dict_entry(harness.CHECKS, check_id, f"harness.check.{check_id}")


def _public_functions(module) -> list:
    return [
        fn
        for name, fn in sorted(vars(module).items())
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
    ]


def snapshot(tracer: Tracer) -> dict:
    """Raw tracer state as plain JSON data."""
    return {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "total_s": dict(tracer.total_s),
        "counts": dict(tracer.counts),
    }


# (metric name, unit, exact) in BENCHMARK.json order.  An exact value must
# repeat for a given config; times, and the report size that holds them, vary.
def metric_specs() -> list[tuple[str, str, bool]]:
    specs = [(f"harness.check.{c}.s", "s", False) for c in CHECK_IDS]
    specs += [
        ("harness.emit_report.s", "s", False),
        ("harness.emit_report.bytes", "bytes", False),
        ("numerics.stable_sum.calls", "count", True),
        ("numerics.stable_sum.elements", "count", True),
        ("numerics.stable_sum.self_s", "s", False),
        ("lattice.convolve.calls", "count", True),
        ("lattice.convolve.fft_calls", "count", True),
        ("lattice.convolve.direct_calls", "count", True),
        ("lattice.convolve.cells_out", "count", True),
        ("lattice.convolve.self_s", "s", False),
        ("families.quantized_gaussian.calls", "count", True),
        ("families.quantized_gaussian.self_s", "s", False),
        ("moments.discrete_moments.self_s", "s", False),
        ("moments.shannon_entropy.self_s", "s", False),
        ("simplex.solve_lp.calls", "count", True),
        ("simplex.solve_lp.exact_calls", "count", True),
        ("simplex.solve_lp.infeasible", "count", True),
        ("simplex.solve_lp.self_s", "s", False),
        ("convexity.is_zd_convex.calls", "count", True),
        ("convexity.is_zd_convex.box_points", "count", True),
        ("convexity.is_zd_convex.witnesses", "count", True),
        ("convexity.is_zd_convex.self_s", "s", False),
        ("convexity.is_log_concave_extensible.calls", "count", True),
        ("convexity.is_log_concave_extensible.support_points", "count", True),
        ("convexity.is_log_concave_extensible.accept_ratio", "ratio", True),
        ("convexity.is_log_concave_extensible.self_s", "s", False),
        ("convexity.lp_per_point", "ratio", True),
        ("smoothing.smoothed_entropy_detail.calls", "count", True),
        ("smoothing.smoothed_entropy_detail.cells", "count", True),
        ("smoothing.smoothed_entropy_detail.refined_cells", "count", True),
        ("smoothing.smoothed_entropy_detail.refine_ratio", "ratio", True),
        ("smoothing.smoothed_entropy_detail.error_estimate_max", "nats", True),
        ("smoothing.smoothed_entropy_detail.self_s", "s", False),
        ("bridge.self_s", "s", False),
        ("geometry.self_s", "s", False),
    ]
    return specs


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metric values of one traced report (see :func:`metric_specs`)."""
    calls, self_s, total_s, counts = snap["calls"], snap["self_s"], snap["total_s"], snap["counts"]
    out = {}
    for name, _unit, _exact in metric_specs():
        span, _, field = name.rpartition(".")
        if name.startswith("harness.check.") or name == "harness.emit_report.s":
            out[name] = total_s.get(span, 0.0)
        elif field == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif field == "calls":
            out[name] = float(calls.get(span, 0))
        else:
            out[name] = counts.get(name, 0.0)
    ext = "convexity.is_log_concave_extensible"
    out[f"{ext}.accept_ratio"] = _ratio(counts.get(f"{ext}.accepted", 0.0), calls.get(ext, 0))
    sm = "smoothing.smoothed_entropy_detail"
    out[f"{sm}.refine_ratio"] = _ratio(counts.get(f"{sm}.refined_cells", 0.0), counts.get(f"{sm}.cells", 0.0))
    points = counts.get("convexity.is_zd_convex.box_points", 0.0) + counts.get(f"{ext}.support_points", 0.0)
    out["convexity.lp_per_point"] = _ratio(calls.get("simplex.solve_lp", 0), points)
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
