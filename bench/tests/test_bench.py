"""Tests of the benchmark's tracer, layer wiring and report checks.

Run: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Tracer, leftover_wrappers

BENCH_DIR = Path(layers.__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_times():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    w_inner = tr.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        w_inner()
        clock.now += 3.0
        w_inner()

    tr.wrap("outer", outer)()
    assert tr.calls == {"inner": 2, "outer": 1}
    assert tr.total_s["outer"] == 8.0
    assert tr.self_s["outer"] == 4.0
    assert tr.self_s["inner"] == 4.0


def test_observer_time_is_charged_to_nobody():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def slow_observer(tracer, args, kwargs, result):
        clock.now += 100.0
        tracer.count("inner", "seen", result)

    w_inner = tr.wrap("inner", lambda: 5, slow_observer)

    def outer():
        clock.now += 1.0
        return w_inner()

    tr.wrap("outer", outer)()
    assert tr.self_s["outer"] == 1.0
    assert tr.self_s["inner"] == 0.0
    assert tr.counts["inner.seen"] == 5


def test_raising_callee_is_still_subtracted():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner():
        clock.now += 2.0
        raise KeyError("x")

    w_inner = tr.wrap("inner", inner)

    def outer():
        try:
            w_inner()
        except KeyError:
            clock.now += 1.0

    tr.wrap("outer", outer)()
    assert tr.self_s == {"inner": 2.0, "outer": 1.0}


@pytest.fixture
def toy_package():
    names = ["toypkg", "toypkg.core", "toypkg.user"]
    core = types.ModuleType("toypkg.core")

    def work(x):
        return x + 1

    core.work = work
    user = types.ModuleType("toypkg.user")
    user.work = work  # as ``from .core import work`` binds it
    user.run = lambda x: user.work(x)
    table = {"w": work}
    for name, mod in zip(names, [types.ModuleType("toypkg"), core, user]):
        sys.modules[name] = mod
    yield core, user, table, work
    for name in names:
        sys.modules.pop(name, None)


def test_patch_rebinds_every_alias_and_restore_undoes_it(toy_package):
    core, user, table, work = toy_package
    tr = Tracer()
    assert tr.patch_function("toypkg", work, "core.work") == 2
    tr.patch_dict_entry(table, "w", "table.w")
    assert user.run(1) == 2 and core.work(1) == 2 and table["w"](1) == 2
    assert tr.calls == {"core.work": 2, "table.w": 1}
    assert len(leftover_wrappers("toypkg", [table])) == 3
    tr.restore()
    assert core.work is work and user.work is work and table["w"] is work
    assert leftover_wrappers("toypkg", [table]) == []


def tiny_config(seed=7):
    from lce import harness

    return harness.ExperimentConfig(
        family={"name": "gaussian", "params": {}},
        dims=[1, 2],
        sigmas=[2.0, 3.0],
        n_values=[1, 2],
        checks=["epi_gap", "diff_approx", "self_sum_convex", "explore_conv", "bridge_gaps", "geom_radius"],
        tolerances={"explore_samples": 3, "selfsum_d2_sets": 2, "selfsum_d3_sets": 1, "selfsum_nmax": 3},
        seed=seed,
    )


def traced_run(cfg, tmp_path):
    """Run ``cfg`` and a low-order smoothed entropy under the tracer."""
    from lce import families, harness, smoothing

    tr = Tracer()
    layers.install(tr)
    try:
        doc = harness.run_config(cfg)
        harness.emit_report(doc, tmp_path / "r.json", tmp_path / "r.csv")
        # Order 2 leaves cells over the error budget, so refinement runs.
        smoothing.differential_entropy(families.quantized_gaussian(3.0, 1), 2, quad_order=2)
    finally:
        tr.restore()
    return doc, layers.layer_metrics(layers.snapshot(tr))


def test_layer_install_rebinds_every_alias_and_restores():
    import lce.harness
    import lce.lattice
    import lce.moments
    import lce.numerics
    import lce.smoothing

    holders = [lce.harness, lce.lattice, lce.moments, lce.numerics, lce.smoothing]
    original = lce.numerics.stable_sum
    original_checks = dict(lce.harness.CHECKS)
    tr = Tracer()
    layers.install(tr)
    try:
        bound = {m.stable_sum for m in holders}
        assert len(bound) == 1 and original not in bound
        assert all(fn is not original_checks[c] for c, fn in lce.harness.CHECKS.items())
    finally:
        tr.restore()
    assert all(m.stable_sum is original for m in holders)
    assert lce.harness.CHECKS == original_checks
    assert leftover_wrappers("lce", [lce.harness.CHECKS]) == []


def test_counts_repeat_exactly_and_tracing_keeps_report_bytes(tmp_path):
    from lce import harness

    plain = harness.run_config(tiny_config()).canonical_bytes()
    doc1, m1 = traced_run(tiny_config(), tmp_path)
    doc2, m2 = traced_run(tiny_config(), tmp_path)
    assert doc1.canonical_bytes() == plain == doc2.canonical_bytes()
    for name in (
        "simplex.solve_lp.calls",
        "numerics.stable_sum.elements",
        "lattice.convolve.cells_out",
        "smoothing.smoothed_entropy_detail.refined_cells",
    ):
        assert m1[name] > 0, name
        assert m1[name] == m2[name], name
    for name, _unit, exact in layers.metric_specs():
        if exact:
            assert m1[name] == m2[name], name
    assert m1["harness.check.epi_gap.s"] > 0 and m1["harness.check.geom_kls.s"] == 0


def reference_like(rows):
    return {"rows": rows, "tolerances": {"entropy_tol": 1e-8, "identity_tol": 1e-9}}


def row(check_id, status="pass", **measured):
    return {"check_id": check_id, "inputs": {"family": "g", "d": 1, "sigma": 4.0, "n": 1},
            "status": status, "measured": measured}


def test_compare_rows_uses_the_checks_tolerance():
    ref = reference_like([row("epi_gap", delta=0.5, rate_stat=float("nan")), row("max_pmf_1d", max_width_product=0.9)])
    assert workloads.compare_rows([row("epi_gap", delta=0.5 + 5e-9, rate_stat=float("nan")),
                                   row("max_pmf_1d", max_width_product=0.9)], ref) == []
    assert workloads.compare_rows([row("epi_gap", delta=0.5 + 5e-8, rate_stat=float("nan")),
                                   row("max_pmf_1d", max_width_product=0.9)], ref)
    assert workloads.compare_rows([row("epi_gap", delta=0.5, rate_stat=float("nan")),
                                   row("max_pmf_1d", max_width_product=0.9 + 1e-6)], ref)
    assert workloads.compare_rows([row("epi_gap", "fail", delta=0.5, rate_stat=float("nan")),
                                   row("max_pmf_1d", max_width_product=0.9)], ref)
    assert workloads.compare_rows([row("epi_gap", delta=0.5, rate_stat=float("nan"))], ref)


def test_check_pattern_allows_only_seed_dependent_statuses():
    ref = reference_like([row("self_sum_convex"), row("epi_gap")])
    assert workloads.check_pattern([row("self_sum_convex", "fail"), row("epi_gap", delta=1.0)], ref) == []
    assert workloads.check_pattern([row("self_sum_convex"), row("epi_gap", "fail")], ref)
    assert workloads.check_pattern([row("self_sum_convex", "flagged"), row("epi_gap")], ref)


def test_config_seeds_are_reproducible():
    seeds = [workloads.config_seed(5, i) for i in range(2 * workloads.CYCLE)]
    assert seeds == [workloads.config_seed(5, i) for i in range(2 * workloads.CYCLE)]
    assert seeds[0] == seeds[workloads.CYCLE] == workloads.DEFAULT_SEED
    assert len(set(seeds)) == 2 * workloads.CYCLE - 1
    assert workloads.config_seed(6, 1) != seeds[1]


def test_references_match_their_configs():
    for name in workloads.WORKLOADS:
        with open(BENCH_DIR / "reference" / f"{name}.json", encoding="utf-8") as fh:
            ref = json.load(fh)
        assert ref["config"] == workloads.config_doc(name, workloads.DEFAULT_SEED)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "entropy_fft", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{") and '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric():
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["report_s", "setup_s", "peak_rss_mb"]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _ in layers.metric_specs()] + [("trace.report_s", "s"), ("trace.overhead_s", "s")]


def test_report_past_the_run_limit_is_cut(tmp_path):
    import run

    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.config_doc("entropy_fft", 1)))
    result = run.run_report(config, tmp_path / "r.json", False, run.child_env(), timeout=0.5)
    assert "error" in result and not (tmp_path / "r.json").exists()
