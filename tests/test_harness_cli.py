import ast
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lce import geometry, harness
from lce.cli import main
from lce.errors import LceError
from lce.lattice import Box, LatticePmf, save_pmf
from lce.moments import discrete_moments

from oracles import load_report


def tiny_config(checks):
    return harness.ExperimentConfig(
        family={"name": "gaussian", "params": {}},
        dims=[1],
        sigmas=[2.0, 4.0],
        n_values=[1],
        checks=checks,
        tolerances={"explore_samples": 4, "selfsum_d2_sets": 3, "elementary_samples": 2000},
        seed=7,
    )


def test_empty_check_list_is_valid():
    cfg = tiny_config([])
    doc = harness.run_config(cfg)
    assert doc.results == []
    assert doc.summary == {"pass": 0, "fail": 0, "flagged": 0, "total": 0}


def test_unknown_check_id_rejected():
    with pytest.raises(LceError):
        tiny_config(["no_such_check"])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_values", [0], "n_values must be"),
        ("n_values", [1.5], "n_values must be"),
        ("dims", [True], "dims must be"),
        ("dims", [], "dims must be"),
        ("sigmas", [float("nan")], "sigmas must be"),
        ("sigmas", [-1.0], "sigmas must be"),
        ("checks", "epi_gap", "checks must be a list"),
        ("family", {"name": "gaussian", "params": [1]}, "family must be"),
        ("tolerances", {"max_width_cap": "x"}, "tolerances must be"),
        ("tolerances", {"explore_sample": 3}, "unknown tolerance keys"),
        ("tolerances", {"ub_target_rel": 0.02}, "unknown tolerance keys"),
        ("tolerances", {"explore_samples": -3}, "explore_samples must be an integer >= 0"),
        ("tolerances", {"elementary_samples": -1}, "elementary_samples must be"),
        ("tolerances", {"selfsum_d2_sets": 2.5}, "selfsum_d2_sets must be"),
        ("tolerances", {"selfsum_d3_sets": True}, "tolerances must be numbers"),
        ("tolerances", {"selfsum_nmax": 1}, "selfsum_nmax must be an integer >= 2"),
        ("tolerances", {"identity_tol": float("nan")}, "tolerances must be finite"),
        ("tolerances", {"envelope_tol": float("inf")}, "tolerances must be finite"),
        ("seed", -5, "seed must be"),
        ("seed", True, "seed must be"),
        ("seed", 2.9, "seed must be"),
        ("seed", "12", "seed must be"),
        ("tolerances", [["ub_cap", 0.5]], "tolerances must be an object"),
        ("tolerance", {"ub_cap": 0.5}, r"unknown keys \['tolerance'\]"),
        ("output", 5, "output must be null or a string"),
        ("family", {"name": "bogus", "params": {}}, "unknown sweep family 'bogus'"),
        ("family", {"name": "gaussian", "params": {}, "extra": 1}, r"unknown family keys: \['extra'\]"),
        ("family", {"name": "gaussian", "params": {"foo": 1}}, "bad parameters for 'gaussian'"),
        ("family", {"name": "gaussian", "params": {"sigma": 2.0}}, "bad parameters for 'gaussian'"),
        ("family", {"name": "point_mass", "params": {"radius_multiplier": 8.0}}, "bad parameters for 'point_mass'"),
        ("family", {"name": "gaussian", "params": {1: 2}}, "family must be"),
    ],
)
def test_config_fields_are_validated(field, value, message):
    doc = tiny_config([]).to_doc()
    with pytest.raises(LceError, match=message):
        harness.ExperimentConfig.from_doc({**doc, field: value})


def test_report_round_trip(tmp_path):
    cfg = tiny_config(["max_pmf_1d", "discrete_ub"])
    doc = harness.run_config(cfg)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    harness.emit_report(doc, jpath, cpath)
    loaded = load_report(jpath)
    assert loaded.canonical_bytes() == doc.canonical_bytes()
    header = cpath.read_text().splitlines()[0]
    assert header == "check_id,family,d,sigma,n,measured,bound,status,runtime_ms"


def test_config_round_trip(tmp_path):
    cfg = harness.default_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_doc()))
    loaded = harness.load_config(path)
    assert loaded.to_doc() == cfg.to_doc()


def test_config_without_seed_loads_default_seed():
    doc = harness.default_config().to_doc()
    del doc["seed"]
    assert harness.ExperimentConfig.from_doc(doc).seed == harness.default_config().seed
    del doc["dims"]
    with pytest.raises(LceError, match=r"missing keys \['dims'\]"):
        harness.ExperimentConfig.from_doc(doc)


def test_determinism_on_seeded_checks():
    cfg = tiny_config(["explore_conv", "self_sum_convex", "elementary_estimate"])
    a = harness.run_config(cfg).canonical_bytes()
    b = harness.run_config(cfg).canonical_bytes()
    assert a == b


def test_statuses_recomputable():
    cfg = tiny_config(["max_pmf_1d", "discrete_ub", "epi_gap"])
    doc = harness.run_config(cfg)
    for r in doc.results:
        if r.check_id == "max_pmf_1d":
            assert (r.status == "pass") == (r.measured["max_width_product"] <= r.bound["cap"])
        if r.check_id == "discrete_ub":
            assert (r.status == "pass") == (r.measured["ratio_ub"] <= r.bound["cap"])


def test_exit_code_reflects_failures():
    cfg = tiny_config(["max_pmf_1d"])
    doc = harness.run_config(cfg)
    assert doc.exit_code() == 0
    doc.summary["fail"] = 1
    assert doc.exit_code() == 1


def test_family_pmf_variants():
    cfg = tiny_config([])
    for name in ("gaussian", "product_gaussian", "uniform", "point_mass"):
        cfg.family = {"name": name, "params": {}}
        p = harness.family_pmf(cfg, 1, 3.0)
        assert abs(p.mass + p.deficit - 1.0) < 1e-9
    cfg.family = {"name": "bogus", "params": {}}
    with pytest.raises(LceError):
        harness.family_pmf(cfg, 1, 3.0)


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_gen_entropy_moments(tmp_path, capsys):
    pmf = tmp_path / "g.json"
    assert run_cli("gen", "--family", "gaussian{sigma=2,dim=1}", "--out", str(pmf)) == 0
    assert run_cli("entropy", "--pmf", str(pmf)) == 0
    out = capsys.readouterr().out
    assert "entropy_nats" in out
    assert run_cli("moments", "--pmf", str(pmf)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma_hat"] == pytest.approx(2.0, rel=1e-6)


def test_cli_moments_variation_and_maxima(tmp_path, capsys):
    pmf = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform{m=4}", "--out", str(pmf))
    capsys.readouterr()
    assert run_cli("moments", "--pmf", str(pmf)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variation_sum"] == [0.5]
    # sums over k = 0..3 of |k|^i / 4
    assert doc["sum_of_maxima"] == [[1.0], [1.5], [3.5]]
    run_cli("gen", "--family", "gaussian{sigma=2,dim=2}", "--out", str(pmf))
    capsys.readouterr()
    assert run_cli("moments", "--pmf", str(pmf)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["variation_sum"]) == 2
    assert [len(row) for row in doc["sum_of_maxima"]] == [2, 2, 2]
    assert doc["sum_of_maxima"][0][0] == pytest.approx(doc["mass"], abs=1e-15)


def test_cli_convolve_and_check(tmp_path, capsys):
    a = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform{m=2}", "--out", str(a))
    capsys.readouterr()
    out = tmp_path / "c.json"
    assert run_cli("convolve", "--pmf", str(a), "--pmf", str(a), "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("check", "--pmf", str(out), "--mode", "extensible") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_extensible"] is True
    assert run_cli("check", "--pmf", str(out), "--mode", "zconvex") == 0
    assert run_cli("check", "--pmf", str(out), "--mode", "selfsum", "--nmax", "2") == 0


@pytest.mark.parametrize("count", [1, 3])
def test_cli_convolve_takes_exactly_two_inputs(count, tmp_path, capsys):
    a = tmp_path / "u.json"
    run_cli("gen", "--family", "uniform{m=2}", "--out", str(a))
    out = tmp_path / "c.json"
    assert run_cli("convolve", *(["--pmf", str(a)] * count), "--out", str(out)) == 2
    assert f"exactly two --pmf inputs, got {count}" in capsys.readouterr().err
    assert not out.exists()


CORNERS_3X3 = {"dim": 2, "lo": [0, 0], "hi": [2, 2], "values": [0.25, 0, 0.25, 0, 0, 0, 0.25, 0, 0.25]}
DIP_1D = {"dim": 1, "lo": [0], "hi": [2], "values": [0.4, 0.1, 0.5]}  # convex support, log-mass dips at 1


@pytest.mark.parametrize("pmf, mode, verdict", [
    (CORNERS_3X3, "zconvex", {"is_convex": False, "witnesses": [[0, 1], [1, 0], [1, 1], [1, 2], [2, 1]]}),
    (CORNERS_3X3, "extensible", {"is_extensible": False, "support_convex": False}),
    (DIP_1D, "zconvex", {"is_convex": True, "witnesses": []}),
    (DIP_1D, "extensible", {"is_extensible": False, "support_convex": True}),
], ids=["corners-zconvex", "corners-extensible", "dip-zconvex", "dip-extensible"])
def test_cli_check_exact_prints_what_the_hull_route_prints(pmf, mode, verdict, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(pmf, deficit=0.0, meta={})))
    outs = []
    for extra in ((), ("--exact",)):
        assert run_cli("check", "--pmf", str(path), "--mode", mode, *extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert {k: doc[k] for k in verdict} == verdict


def test_cli_smooth_entropy(tmp_path, capsys):
    pmf = tmp_path / "p.json"
    run_cli("gen", "--family", "point_mass{at=[0]}", "--out", str(pmf))
    capsys.readouterr()
    assert run_cli("smooth-entropy", "--pmf", str(pmf), "--n", "2", "--tol", "1e-8") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["differential_entropy_nats"] == pytest.approx(0.5, abs=1e-6)


def test_cli_geom_and_bridge(capsys):
    assert run_cli("geom", "--body", "cube{d=2}", "--check", "kls") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain_holds"] is True
    assert run_cli("bridge", "--density", "gaussian{sigma=2,dim=1}") == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["gaps"]) == 1


def test_cli_verify_and_exit_code(tmp_path, capsys):
    cfg = tiny_config(["max_pmf_1d"])
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg.to_doc()))
    rpath = tmp_path / "rep.json"
    assert run_cli("verify", "--config", str(cpath), "--out", str(rpath)) == 0
    capsys.readouterr()
    assert rpath.exists() and (tmp_path / "rep.csv").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_cli_csv_path_replaces_only_the_file_suffix(tmp_path, capsys, monkeypatch, command):
    # A dot in a directory name is not the report's suffix.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.v2").mkdir()
    if command == "verify":
        cfg = dataclasses.replace(tiny_config(["max_pmf_1d"]), output="run.v2/report")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_doc()))
        assert run_cli("verify", "--config", "cfg.json") == 0
    else:
        assert run_cli("sweep", "--out", "run.v2/report", "--checks", "max_pmf_1d") == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == ["report", "report.csv"]
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("target", ["a_directory", "csv_directory", "missing_parent"])
def test_cli_rejects_a_bad_report_path_before_the_run(tmp_path, capsys, monkeypatch, command, target):
    runs = []
    monkeypatch.setattr(harness, "run_config", runs.append)
    out = {"a_directory": tmp_path, "csv_directory": tmp_path / "rep.json",
           "missing_parent": tmp_path / "no_such_dir" / "rep.json"}[target]
    if target == "csv_directory":
        (tmp_path / "rep.csv").mkdir()
    if command == "verify":
        (tmp_path / "cfg.json").write_text(json.dumps(tiny_config(["max_pmf_1d"]).to_doc()))
        code = run_cli("verify", "--config", str(tmp_path / "cfg.json"), "--out", str(out))
    else:
        code = run_cli("sweep", "--out", str(out), "--checks", "max_pmf_1d")
    err = capsys.readouterr().err
    assert (code, runs) == (2, [])
    assert err.startswith("error: report ") and len(err.splitlines()) == 1


def test_emit_report_turns_an_os_error_into_lce_error(tmp_path):
    doc = harness.run_config(tiny_config(["max_pmf_1d"]))
    with pytest.raises(LceError, match="cannot write report"):
        harness.emit_report(doc, tmp_path)
    with pytest.raises(LceError, match="cannot write report"):
        harness.emit_report(doc, tmp_path / "missing" / "rep.json")
    (tmp_path / "rep.csv").mkdir()
    with pytest.raises(LceError, match="cannot write report"):
        harness.emit_report(doc, tmp_path / "rep.json", tmp_path / "rep.csv")


def test_cli_sweep_subset(tmp_path, capsys):
    rpath = tmp_path / "sweep.json"
    assert run_cli("sweep", "--out", str(rpath), "--checks", "max_pmf_1d,geom_radius") == 0
    capsys.readouterr()
    doc = load_report(rpath)
    assert doc.summary["fail"] == 0
    assert {r.check_id for r in doc.results} == {"max_pmf_1d", "geom_radius"}


def test_cli_sweep_prints_one_line_per_row_that_did_not_pass(monkeypatch, capsys):
    def rows(cfg):
        return [
            harness.CheckResult("max_pmf_1d", {"d": 1}, {}, {}, harness.FLAGGED, 0.0),
            harness.CheckResult("max_pmf_1d", {"d": 2}, {}, {}, harness.PASS, 0.0),
        ]

    monkeypatch.setitem(harness.CHECKS, "max_pmf_1d", rows)
    assert run_cli("sweep", "--checks", "max_pmf_1d") == 0
    assert capsys.readouterr().err.splitlines() == ["pass=1 fail=0 flagged=1", '[flagged] max_pmf_1d {"d": 1}']


def test_cli_error_paths(tmp_path, capsys):
    assert run_cli("gen", "--family", "bogus{z=1}", "--out", str(tmp_path / "x.json")) == 2
    capsys.readouterr()


# The reason an error line must give, where a wrong one was seen.
BAD_INPUT_REASONS = {
    "zero_dim_vpoly": "dimension must be an integer in [1, ",
    "config_output_not_a_string": "output must be null or a string",
    "config_family_unknown_name": "unknown sweep family 'bogus'",
    "config_family_extra_key": "unknown family keys: ['extra']",
    "config_family_bad_params": "bad parameters for 'uniform'",
    "box_infinite_bound": "box bounds must be finite",
    "cube_nan_side": "box bounds must be finite",
    "ellipsoid_infinite_axis": "semi-axes must be finite and positive",
    "ball_infinite_radius": "semi-axes must be finite and positive",
    "hpoly_nan_in_A": "h-polytope needs finite A and b",
    "hpoly_infinite_b": "h-polytope needs finite A and b",
    "hpoly_zero_row": "h-polytope rows of A must be nonzero",
    "hpoly_unbounded_strip": "h-polytope is unbounded",
    "hpoly_rank_deficient": "h-polytope is unbounded",
    "gen_uniform_fractional_m": "m must be an integer, got 2.5",
    "gen_gaussian_fractional_dim": "dimension must be an integer in [1, 64], got 1.5",
    "gen_binomial_fractional_n": "n must be an integer, got 3.7",
    "gen_uniform_bool_m": "m must be an integer, got True",
    "gen_point_mass_fractional_at": "each entry of at must be an integer, got 0.5",
    "bridge_sweep_laplace_product": "--sweep sets sigma, which 'laplace_product' does not take",
    "bridge_sweep_asym_exponential": "--sweep sets sigma, which 'asym_exponential' does not take",
    "cube_bool_side": "side must be numeric, got True",
    "ball_bool_radius": "radius must be numeric, got True",
    "ellipsoid_bool_axis": "axes must be numeric, got True",
    "hpoly_bool_b": "b must be numeric, got True",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "bogus{z=1}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "gaussian{sigma=abc}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "gaussian{sigma=2,foo=1}", "--out", "{tmp}/x.json"],
        ["bridge", "--density", "gaussian{foo=1}"],
        ["geom", "--body", "cube{foo=1}", "--check", "kls"],
        ["geom", "--body", "vpoly{vertices=[[0,0],[1,1],[2,2]]}", "--check", "radius"],
        ["geom", "--body", "vpoly{vertices=[[0,0],[1,1],[2,2.5]]}", "--check", "radius"],
        ["geom", "--body", "box{lo=[0,0],hi=[1,1]}", "--check", "radius"],
        ["entropy", "--pmf", "{tmp}/missing.json"],
        ["verify", "--config", "{tmp}/missing.json"],
        ["entropy", "--pmf", "{tmp}/short.json"],
        ["verify", "--config", "{tmp}/family_key.json"],
        ["sweep", "--checks", "foo"],
        ["verify", "--config", "{tmp}/zero_n.json"],
        ["verify", "--config", "{tmp}/fractional_n.json"],
        ["verify", "--config", "{tmp}/checks_string.json"],
        ["bridge", "--density", "gaussian{name=1}"],
        ["geom", "--body", "cube{self=1}", "--check", "kls"],
        ["verify", "--config", "{tmp}/tol_unknown.json"],
        ["verify", "--config", "{tmp}/tol_negative.json"],
        ["verify", "--config", "{tmp}/tol_fractional.json"],
        ["bridge", "--density", "gaussian", "--sweep", "a"],
        ["bridge", "--density", "gaussian", "--sweep", "nan"],
        ["bridge", "--density", "gaussian{sigma=NaN}"],
        ["geom", "--check", "ballbody", "--p", "nan"],
        ["geom", "--check", "ballbody", "--p", "inf"],
        ["geom", "--check", "ballbody", "--density", "laplace_product{rate=NaN,dim=2}"],
        ["check", "--pmf", "{tmp}/pair.json", "--mode", "extensible", "--tol", "nan"],
        ["check", "--pmf", "{tmp}/pair.json", "--mode", "extensible", "--tol", "-1"],
        ["smooth-entropy", "--pmf", "{tmp}/pair.json", "--n", "2", "--tol", "nan"],
        ["verify", "--config", "{tmp}/tol_nan.json"],
        ["verify", "--config", "{tmp}/tol_infinite.json"],
        ["geom", "--check", "ballbody", "--dirs", "0"],
        ["geom", "--check", "inclusions", "--dirs", "0"],
        ["geom", "--check", "ballbody", "--dirs", "-2", "--density", "gaussian{sigma=1,dim=3}"],
        ["geom", "--body", "vpoly{vertices=[[]]}", "--check", "kls"],
        ["verify", "--config", "{tmp}/output_int.json"],
        ["verify", "--config", "{tmp}/family_bogus.json"],
        ["verify", "--config", "{tmp}/family_extra.json"],
        ["verify", "--config", "{tmp}/family_params.json"],
        ["geom", "--body", "box{lo=[-1,-1],hi=[1,1e400]}", "--check", "kls"],
        ["geom", "--body", "cube{d=2,side=NaN}", "--check", "kls"],
        ["geom", "--body", "ellipsoid{axes=[1,1e400]}", "--check", "kls"],
        ["geom", "--body", "ball{d=2,radius=1e400}", "--check", "kls"],
        ["geom", "--body", "hpoly{A=[[NaN,0],[-1,0],[0,1],[0,-1]],b=[1,1,1,1]}", "--check", "kls"],
        ["geom", "--body", "hpoly{A=[[1,0],[-1,0],[0,1],[0,-1]],b=[1,1,1,Infinity]}", "--check", "kls"],
        ["geom", "--body", "hpoly{A=[[1,0],[0,1],[-1,-1],[0,0]],b=[1,1,1,1]}", "--check", "radius"],
        ["geom", "--body", "hpoly{A=[[1,0],[0,1],[-1,0]],b=[1,1,1]}", "--check", "radius"],
        ["geom", "--body", "hpoly{A=[[1,0],[-1,0]],b=[1,1]}", "--check", "kls"],
        ["gen", "--family", "uniform{m=2.5}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "gaussian{sigma=2,dim=1.5}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "binomial{n=3.7}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "uniform{m=true}", "--out", "{tmp}/x.json"],
        ["gen", "--family", "point_mass{at=[0.5]}", "--out", "{tmp}/x.json"],
        ["bridge", "--density", "laplace_product{rate=1,dim=1}", "--sweep", "1,2"],
        ["bridge", "--density", "asym_exponential{left_rate=1,right_rate=2}", "--sweep", "1"],
        ["geom", "--body", "cube{d=2,side=true}", "--check", "kls"],
        ["geom", "--body", "ball{d=2,radius=true}", "--check", "kls"],
        ["geom", "--body", "ellipsoid{axes=[true,2]}", "--check", "kls"],
        ["geom", "--body", "hpoly{A=[[1,0],[0,1],[-1,-1]],b=[true,1,1]}", "--check", "kls"],
    ],
    ids=[
        "unknown_family",
        "non_json_value",
        "unknown_key",
        "density_key",
        "body_key",
        "flat_vpoly",
        "origin_vertex_vpoly",
        "origin_corner_box",
        "missing_pmf",
        "missing_config",
        "short_values",
        "config_family_key",
        "sweep_unknown_check",
        "config_zero_n",
        "config_fractional_n",
        "config_checks_string",
        "density_key_name",
        "body_key_self",
        "config_tolerance_unknown_key",
        "config_tolerance_negative_count",
        "config_tolerance_fractional_count",
        "bridge_sweep_not_a_number",
        "bridge_sweep_nan",
        "density_sigma_nan",
        "ballbody_p_nan",
        "ballbody_p_inf",
        "density_rate_nan",
        "extensible_tol_nan",
        "extensible_tol_negative",
        "smooth_entropy_tol_nan",
        "config_tolerance_nan",
        "config_tolerance_infinite",
        "ballbody_no_directions",
        "inclusions_no_directions",
        "ballbody_negative_directions",
        "zero_dim_vpoly",
        "config_output_not_a_string",
        "config_family_unknown_name",
        "config_family_extra_key",
        "config_family_bad_params",
        "box_infinite_bound",
        "cube_nan_side",
        "ellipsoid_infinite_axis",
        "ball_infinite_radius",
        "hpoly_nan_in_A",
        "hpoly_infinite_b",
        "hpoly_zero_row",
        "hpoly_unbounded_strip",
        "hpoly_rank_deficient",
        "gen_uniform_fractional_m",
        "gen_gaussian_fractional_dim",
        "gen_binomial_fractional_n",
        "gen_uniform_bool_m",
        "gen_point_mass_fractional_at",
        "bridge_sweep_laplace_product",
        "bridge_sweep_asym_exponential",
        "cube_bool_side",
        "ball_bool_radius",
        "ellipsoid_bool_axis",
        "hpoly_bool_b",
    ],
)
def test_cli_bad_input_exits_2_with_error_line(argv, tmp_path, capsys, request):
    # two values for a box of four cells
    (tmp_path / "short.json").write_text(json.dumps({"dim": 1, "lo": [0], "hi": [3], "values": [0.5, 0.5]}))
    (tmp_path / "pair.json").write_text(json.dumps({"dim": 1, "lo": [0], "hi": [1], "values": [0.5, 0.5]}))
    doc = tiny_config(["max_pmf_1d"]).to_doc()
    for name, change in [
        ("family_key", {"family": {"name": "gaussian", "params": {"foo": 1}}}),
        ("zero_n", {"n_values": [0]}),
        ("fractional_n", {"n_values": [1.5]}),
        ("checks_string", {"checks": "epi_gap"}),
        ("tol_unknown", {"tolerances": {"explore_sample": 3}}),
        ("tol_negative", {"tolerances": {"elementary_samples": -1}}),
        ("tol_fractional", {"tolerances": {"selfsum_d2_sets": 2.5}}),
        ("tol_nan", {"tolerances": {"identity_tol": float("nan")}}),
        ("tol_infinite", {"tolerances": {"entropy_tol": float("inf")}}),
        ("output_int", {"output": 5}),
        # checks that never build a family member, so only the config load can catch the family
        ("family_bogus", {"family": {"name": "bogus", "params": {}}, "checks": ["geom_radius"]}),
        ("family_extra", {"family": {"name": "gaussian", "params": {}, "extra": 1}, "checks": ["geom_radius"]}),
        ("family_params", {"family": {"name": "uniform", "params": {"m": 3}}, "checks": ["geom_radius"]}),
    ]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**doc, **change}))
    assert run_cli(*[a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert BAD_INPUT_REASONS.get(request.node.callspec.id, "") in err


@pytest.mark.parametrize("hpoly, twin", [
    ("hpoly{A=[[1,0],[-1,0],[0,1],[0,-1]],b=[1,1,1,1]}", "cube{d=2,side=2}"),
    ("hpoly{A=[[1,0],[0,1],[-1,-1]],b=[1,1,1]}", "vpoly{vertices=[[1,1],[1,-2],[-2,1]]}"),
], ids=["square", "triangle"])
def test_cli_radius_check_of_hpoly_matches_its_twin(hpoly, twin, capsys):
    docs = []
    for body in (hpoly, twin):
        assert run_cli("geom", "--body", body, "--check", "radius") == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["holds"] is docs[1]["holds"] is True
    for key in ("inradius", "circumradius", "lambda_min", "lambda_max"):
        assert docs[0][key] == pytest.approx(docs[1][key], abs=1e-12)


def test_cli_radius_check_of_hpoly_takes_its_vertices_once_per_body(monkeypatch, capsys):
    calls = []
    vertices = geometry._vertices
    monkeypatch.setattr(geometry, "_vertices", lambda K: calls.append(K) or vertices(K))
    assert run_cli("geom", "--body", "hpoly{A=[[1,0],[0,1],[-1,-1]],b=[1,1,1]}", "--check", "radius") == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    # the body, to rescale it to unit volume, then the rescaled body
    assert len(calls) == 2 and calls[0] != calls[1]


def test_cli_radius_check_of_vpoly_builds_one_hull_per_body(monkeypatch, capsys):
    spec = "vpoly{vertices=[[1,1],[1,-2],[-2,1]]}"
    unit = geometry.scale_to_unit_volume(geometry.BODIES.from_spec(spec))
    # The report as each body-level routine gives it, one hull apiece.
    mom = geometry.body_moments(unit)
    eig = np.linalg.eigvalsh(mom.second_moment)
    r, R, d = geometry.body_inradius(unit), geometry.body_circumradius(unit), unit.dim
    expected = geometry.RadiusReport(r, R, float(eig[0]), float(eig[-1]), (d + 1.0) * math.sqrt(eig[-1]) - R,
                                     r - math.sqrt((d + 2.0) / d) * math.sqrt(eig[0]))
    calls, reports = [], []
    facets, check = geometry.facets, geometry.radius_bounds_check
    monkeypatch.setattr(geometry, "facets", lambda V: calls.append(V) or facets(V))
    monkeypatch.setattr(geometry, "radius_bounds_check", lambda K: reports.append(check(K)) or reports[-1])
    assert run_cli("geom", "--body", spec, "--check", "radius") == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    # the body, to rescale it to unit volume, then the rescaled body
    assert len(calls) == 2
    assert [struct.pack("<d", x) for x in dataclasses.astuple(reports[0])] == [
        struct.pack("<d", x) for x in dataclasses.astuple(expected)
    ]


def test_cli_kls_check_of_square_hpoly_reads_one_third(capsys):
    assert run_cli("geom", "--body", "hpoly{A=[[1,0],[-1,0],[0,1],[0,-1]],b=[1,1,1,1]}", "--check", "kls") == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["mid"] - 1.0 / 3.0) <= 1e-12
    assert doc["chain_holds"] is True
    assert "mid_stderr" not in doc


def test_cli_closed_stdout_exits_141_without_traceback(tmp_path):
    # 99,999 witnesses print as about 1.8 MB of JSON, more than a pipe holds,
    # so the write fails once the reader has gone.
    vals = np.zeros(100_001)
    vals[[0, -1]] = 0.5
    save_pmf(LatticePmf(Box((0,), (100_000,)), vals), tmp_path / "gap.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "lce.cli", "check", "--pmf", str(tmp_path / "gap.json"), "--mode", "zconvex"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 141


# sigma=2 fails at the per-cell order cap; sigma=6 in d=2 has more cells to
# refine than the refinement cap
@pytest.mark.parametrize("family", ["gaussian{sigma=2}", "gaussian{sigma=6,dim=2}"])
def test_cli_numerical_failure_exits_3_with_error_line(family, tmp_path, capsys):
    pmf = tmp_path / "g.json"
    assert run_cli("gen", "--family", family, "--out", str(pmf)) == 0
    capsys.readouterr()
    assert run_cli("smooth-entropy", "--pmf", str(pmf), "--n", "2", "--tol", "1e-300") == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "body",
    [
        "simplex{d=2}",
        "simplex{d=3}",
        "vpoly{vertices=[[-1,-1,-1],[-1,-1,1],[-1,1,-1],[-1,1,1],[1,-1,-1],[1,-1,1],[1,1,-1],[1,1,1]]}",
    ],
    ids=["simplex2", "simplex3", "cube3_vpoly"],
)
def test_cli_geom_radius_on_polytopes(body, capsys):
    assert run_cli("geom", "--body", body, "--check", "radius") == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


@pytest.mark.parametrize("check, verdict", [("kls", "chain_holds"), ("radius", "holds")])
def test_cli_geom_on_a_4d_vpoly(check, verdict, capsys):
    body = "vpoly{vertices=[[-1,-1,-1,-1],[4,-1,-1,-1],[-1,4,-1,-1],[-1,-1,4,-1],[-1,-1,-1,4]]}"
    assert run_cli("geom", "--body", body, "--check", check) == 0
    assert json.loads(capsys.readouterr().out)[verdict] is True


def test_point_mass_family_is_flagged_not_failed():
    cfg = tiny_config(["epi_gap", "discrete_ub"])
    cfg.family = {"name": "point_mass", "params": {}}
    doc = harness.run_config(cfg)
    statuses = {r.status for r in doc.results if r.check_id in ("epi_gap", "discrete_ub")}
    assert statuses == {"flagged"}
    assert doc.summary["fail"] == 0


def chain_config(checks):
    return harness.ExperimentConfig(
        family={"name": "gaussian", "params": {}}, dims=[1], sigmas=[2.0, 3.0], n_values=[1, 2], checks=checks
    )


@pytest.mark.parametrize(
    "checks, per_point",
    [(["epi_gap", "diff_approx"], 2), (["diff_approx", "epi_gap"], 2), (["diff_approx"], 1), (["epi_gap"], 2)],
)
def test_each_chain_level_is_convolved_once_per_run(checks, per_point, monkeypatch):
    from lce.lattice import convolve

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(harness, "convolve", counted)
    harness.run_config(chain_config(checks))
    # max(n) levels past S_1 when epi_gap reads H(S_(max n + 1)), else max(n) - 1
    assert len(calls) == per_point * 2


def canonical_rows(doc):
    return [json.dumps({**dataclasses.asdict(r), "runtime_ms": 0.0}, sort_keys=True) for r in doc.results]


def test_shared_chains_give_the_rows_of_single_check_runs():
    cfg = chain_config([])
    cfg.sigmas = [2.0, 3.0, 4.0]  # three sigmas, so diff_approx_rate rows appear too
    alone = {}
    for check in ("epi_gap", "diff_approx"):
        cfg.checks = [check]
        alone[check] = canonical_rows(harness.run_config(cfg))
    for order in (["epi_gap", "diff_approx"], ["diff_approx", "epi_gap"]):
        cfg.checks = order
        assert canonical_rows(harness.run_config(cfg)) == alone[order[0]] + alone[order[1]]


def test_a_chain_is_shared_then_dropped_at_its_last_read():
    ctx = harness.RunContext(chain_config(["epi_gap", "diff_approx"]))
    first = ctx.chain(1, 2.0, 3)
    # H of S_3, but sigma_hat and p.m.f.s only up to S_(max n) = S_2
    assert (len(first.H), len(first.sigma_hat), len(first.sums)) == (3, 2, 2)
    for s, sig in zip(first.sums, first.sigma_hat):
        assert struct.pack("<d", sig) == struct.pack("<d", discrete_moments(s).sigma_hat)
    assert ctx.chain(1, 2.0, 2) is first
    assert ctx.chain(1, 2.0, 2) is not first


@pytest.mark.parametrize("steps", [[4], [2, 4], [1, 3, 4]])
def test_a_chain_takes_moments_of_the_levels_it_keeps_only(steps, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return discrete_moments(p)

    monkeypatch.setattr(harness, "discrete_moments", counted)
    base = harness.family_pmf(chain_config([]), 1, 2.0)
    chain = harness.EntropyChain(base, discrete_moments(base), 3)
    for levels in steps:
        chain.extend(levels)
    # the base comes with its summary
    assert (len(chain.H), len(calls)) == (4, 2)
    assert all(c is s for c, s in zip(calls, chain.sums[1:], strict=True))


@pytest.mark.parametrize("checks", [["epi_gap", "diff_approx"], ["diff_approx", "epi_gap"]])
def test_rows_carry_chain_builds_and_the_precheck(checks, monkeypatch):
    running = []
    pmf_calls = {c: 0 for c in checks}
    family_pmf = harness.family_pmf

    def slow_family_pmf(*args):
        pmf_calls[running[-1]] += 1
        time.sleep(0.05)
        return family_pmf(*args)

    def tracked(check_id, fn):
        def run(ctx):
            running.append(check_id)
            return fn(ctx)
        return run

    monkeypatch.setattr(harness, "family_pmf", slow_family_pmf)
    for c in checks:
        monkeypatch.setitem(harness.CHECKS, c, tracked(c, harness.CHECKS[c]))
    doc = harness.run_config(chain_config(checks))
    # the precheck reads one member per d, and the first reader builds each chain
    assert pmf_calls == {"epi_gap": 1 + 2 * (checks[0] == "epi_gap"), "diff_approx": 2 * (checks[0] == "diff_approx")}
    for c in checks:
        total_ms = sum(r.runtime_ms for r in doc.results if r.check_id.startswith(c))
        assert total_ms >= 50.0 * pmf_calls[c]


@pytest.mark.parametrize(
    "ok, flagged, status",
    [(True, False, "pass"), (False, False, "fail"), (True, True, "flagged"), (False, True, "flagged")],
)
def test_row_status_is_flagged_first_then_pass_by_ok(ok, flagged, status):
    ctx = harness.RunContext(tiny_config([]))
    row = ctx.row("max_pmf_1d", ("gaussian", 1, 2, 1), {"max_width_product": 0.5}, {"cap": 1.0}, ok, "a rule",
                  flagged=flagged)
    assert row.status == status
    assert row.inputs == {"family": "gaussian", "d": 1, "sigma": 2.0, "n": 1} and type(row.inputs["sigma"]) is float
    assert row.notes == {"rule": "a rule"}


def test_rows_add_up_to_the_wall_time_and_each_carries_what_it_waited_on(monkeypatch):
    family_pmf = harness.family_pmf

    def slow_family_pmf(*args):
        time.sleep(0.05)
        return family_pmf(*args)

    monkeypatch.setattr(harness, "family_pmf", slow_family_pmf)
    t0 = time.perf_counter()
    doc = harness.run_config(chain_config(["epi_gap", "diff_approx"]))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert 0.95 * wall_ms <= sum(r.runtime_ms for r in doc.results) <= wall_ms
    # the precheck and the sigma = 2 chain land on its n = 1 row, none on its n = 2 row
    first, second = [r for r in doc.results if r.check_id == "epi_gap"][:2]
    assert (first.inputs["n"], second.inputs["n"]) == (1, 2)
    assert first.runtime_ms >= 100.0 and second.runtime_ms < 50.0


def test_each_family_member_is_summarized_once_per_run(monkeypatch):
    from lce import moments

    running, builds, summaries = [], Counter(), Counter()
    family_pmf, summarize = harness.family_pmf, moments.discrete_moments

    def counted_family_pmf(*args):
        builds[running[-1]] += 1
        return family_pmf(*args)

    def counted_moments(p):
        summaries[running[-1]] += 1
        return summarize(p)

    monkeypatch.setattr(harness, "family_pmf", counted_family_pmf)
    monkeypatch.setattr(harness, "discrete_moments", counted_moments)
    monkeypatch.setattr(moments, "discrete_moments", counted_moments)
    cfg = chain_config(["epi_gap", "discrete_ub", "max_pmf_1d", "diff_approx"])
    cfg.dims = [1, 2]
    ctx = harness.RunContext(cfg)
    for check in cfg.checks:
        running.append(check)
        harness.CHECKS[check](ctx)
    # epi_gap builds a precheck member per d and a chain base per (d, sigma),
    # and summarizes each base and each kept level S_2; the other checks read
    # those summaries and chains and build or summarize nothing
    assert builds == {"epi_gap": 2 + 4} and summaries == {"epi_gap": 4 + 4}


def test_diff_approx_envelope_sigma8():
    # generous a-priori envelope: delta <= 5 log(sigma_hat)/sigma_hat
    import math

    from lce import families
    from lce.lattice import convolve
    from lce.moments import discrete_moments, shannon_entropy
    from lce.smoothing import smoothed_entropy_detail

    p = families.quantized_gaussian(8.0)
    s2 = convolve(p, p)
    delta = abs(smoothed_entropy_detail(s2, 2).value - shannon_entropy(s2))
    sig = discrete_moments(s2).sigma_hat
    assert delta <= 5.0 * math.log(sig) / sig


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["epi_rate_table.py", "--dims", "1", "--sigmas", "4", "--nmax", "1"],
        ["explore_self_convolution.py", "2", "1", "{tmp}"],
    ],
    ids=["epi_rate_table", "explore_self_convolution"],
)
def test_scripts_run_to_exit_0(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    args = [str(REPO / "scripts" / argv[0])] + [a.replace("{tmp}", str(tmp_path)) for a in argv[1:]]
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


# Public methods that only the benchmark calls.
TEST_ONLY_METHODS = {"harness.ReportDocument.canonical_bytes"}


def source_trees():
    """Parsed modules of src/lce and scripts, by path."""
    files = sorted((REPO / "src" / "lce").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


def lce_functions(trees):
    """(qualified name, def node, whether it is a method) for every function and
    method defined at the top level of a src/lce module or class."""
    for path, tree in trees.items():
        if path.parent.name != "lce":
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{m.name}", m, True


def test_every_public_function_is_reached():
    # A public function or method counts as reached when some name in
    # src/lce or scripts uses it; oracles and fixtures live in tests/oracles.py.
    trees = source_trees()
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = {(name, method) for name, node, method in lce_functions(trees)
                 if not node.name.startswith("_") and node.name not in named}
    assert {name for name, method in unreached if not method} == set()
    assert {name for name, method in unreached if method} == TEST_ONLY_METHODS


def test_oracles_stay_apart_from_the_routes_they_check():
    # The oracles check the integer hulls, so they must not reach lce.hull;
    # and the library must not reach the tests.
    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                yield base
                yield from (f"{base}.{a.name}" for a in node.names)

    oracle_imports = set(imported(ast.parse((REPO / "tests" / "oracles.py").read_text())))
    assert "lce.hull" not in oracle_imports
    for path, tree in source_trees().items():
        assert not {m for m in imported(tree) if m.split(".")[0] in ("oracles", "tests")}, path


# Defaulted parameters that no call in src/lce or scripts passes.
UNSET_KNOBS = {
    # spec keys, which Registry.make(**params) passes out of the scan's sight
    "families.product_gaussian(radius_multiplier)",
    "geometry.make_cube(side)",
    # knobs that only tests or the benchmark set
    "cli.main(argv)",
    "numerics.adaptive_quad(abs_tol)",
    "simplex.solve_lp(max_iter)",
}


def test_every_defaulted_parameter_is_passed_or_a_listed_knob():
    # A call passes a parameter by keyword, or by position when it has more
    # positional arguments than precede the parameter (self not counted).
    trees = source_trees()
    passed, most_positional = set(), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                passed.update((name, k.arg) for k in node.keywords)
                most_positional[name] = max(most_positional.get(name, 0), len(node.args))
    unset = set()
    for qualname, node, method in lce_functions(trees):
        a = node.args
        positional = (a.posonlyargs + a.args)[1 if method else 0:]
        first_defaulted = len(positional) - len(a.defaults)
        defaulted = [(i, arg) for i, arg in enumerate(positional) if i >= first_defaulted]
        defaulted += [(math.inf, arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        unset |= {f"{qualname}({arg.arg})" for i, arg in defaulted
                  if (node.name, arg.arg) not in passed and most_positional.get(node.name, 0) <= i}
    assert unset == UNSET_KNOBS


def test_rows_are_built_by_run_context_row_only():
    # a CheckResult method that calls cls(...) builds rows too
    trees = source_trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "CheckResult" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    builders = set()
    for qualname, node, method in lce_functions(trees):
        names = {"CheckResult", "cls"} if qualname.startswith("harness.CheckResult.") else {"CheckResult"}
        if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) in names for call in ast.walk(node)):
            builders.add(qualname)
    assert len(calls) == 1
    assert builders == {"harness.RunContext.row"}
