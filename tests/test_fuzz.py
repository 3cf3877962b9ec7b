"""Input fuzzing: the parsers and loaders of user input raise nothing but
``LceError``, so that bad input always ends in an exit code, never a traceback."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lce.densities import DENSITIES, parse_param_spec
from lce.families import SWEEP
from lce.errors import LceError
from lce.geometry import BODIES
from lce.harness import CHECKS, COUNT_TOLERANCES, DEFAULT_TOLERANCES, load_config
from lce.lattice import pmf_from_doc

FUZZ = settings(max_examples=200, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)

_NAMES = ["gaussian", "laplace_product", "sheared_gaussian", "asym_exponential",
          "cube", "box", "ball", "ellipsoid", "simplex", "hpoly", "vpoly", "bogus"]
_KEYS = ["sigma", "dim", "rate", "rho", "left_rate", "right_rate",
         "d", "side", "lo", "hi", "radius", "axes", "A", "b", "vertices", "foo", "name", "self"]


@st.composite
def specs(draw):
    """``name{key=value,...}`` with JSON values, or arbitrary text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    name = draw(st.sampled_from(_NAMES))
    params = draw(st.dictionaries(st.sampled_from(_KEYS), json_values, max_size=3))
    return name + "{" + ",".join(f"{k}={json.dumps(v)}" for k, v in params.items()) + "}"


def raises_only_lce_error(fn, arg):
    try:
        fn(arg)
    except LceError:
        pass


@FUZZ
@given(specs())
def test_parse_param_spec_raises_only_lce_error(text):
    raises_only_lce_error(parse_param_spec, text)


@FUZZ
@given(specs())
def test_density_from_spec_raises_only_lce_error(text):
    raises_only_lce_error(DENSITIES.from_spec, text)


@FUZZ
@given(specs())
def test_body_from_spec_raises_only_lce_error(text):
    raises_only_lce_error(BODIES.from_spec, text)


small_ints = st.lists(st.integers(-3, 3), min_size=1, max_size=2)
pmf_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "dim": st.integers(0, 3) | json_values,
            "lo": small_ints | json_values,
            "hi": small_ints | json_values,
            "values": st.lists(st.floats(), max_size=8) | json_values,
            "deficit": st.floats() | json_values,
            "meta": json_values,
        },
    ),
)


@FUZZ
@given(pmf_docs)
def test_pmf_from_doc_raises_only_lce_error(doc):
    raises_only_lce_error(pmf_from_doc, doc)


config_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "family": json_values,
            "dims": st.lists(st.integers(1, 3), max_size=2) | json_values,
            "sigmas": st.lists(st.floats(), max_size=2) | json_values,
            "n_values": st.lists(st.integers(1, 3), max_size=2) | json_values,
            "checks": st.lists(st.sampled_from(["max_pmf_1d", "geom_kls", "bogus"]), max_size=2) | json_values,
            "tolerances": json_values,
            "seed": st.integers() | st.floats() | json_values,
            "output": json_values,
        },
    ),
)


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_docs)
def test_load_config_raises_only_lce_error(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    raises_only_lce_error(load_config, path)


# A valid config document with one or two of its fields replaced by values
# of the wrong type, zero, negative, non-integer or non-finite (or valid ones).
VALID_CONFIG = {"family": {"name": "gaussian", "params": {}}, "dims": [1], "sigmas": [2.0], "n_values": [1],
                "checks": [], "tolerances": {}, "seed": 7, "output": None}
field_values = st.lists(st.integers(-2, 3) | st.floats() | st.booleans() | st.text(max_size=3), max_size=3)
config_fields = {
    "family": st.just({"name": "gaussian", "params": {}}) | json_values,
    "dims": field_values | json_values,
    "sigmas": field_values | json_values,
    "n_values": field_values | json_values,
    "checks": st.lists(st.sampled_from(["max_pmf_1d", "bogus"]), max_size=2)
    | st.sampled_from(["max_pmf_1d", "epi_gap"])
    | json_values,
    "tolerances": st.dictionaries(
        st.sampled_from(["max_width_cap", "explore_samples", "selfsum_nmax", "explore_sample"]),
        st.integers(-2, 3) | st.floats() | st.booleans() | json_values,
        max_size=3,
    ),
    "seed": st.integers(-3, 3) | st.floats(-3, 3) | st.booleans() | st.text(max_size=3),
    "output": st.none() | st.text(max_size=3) | json_values,
}
config_field_docs = st.lists(st.sampled_from(sorted(config_fields)), min_size=1, max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: config_fields[k] for k in keys}).map(lambda v: {**VALID_CONFIG, **v})
)


@settings(FUZZ, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_field_docs)
def test_load_config_accepts_only_valid_field_values(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = load_config(path)
    except LceError:
        return
    for values in (cfg.dims, cfg.n_values):
        assert values and all(type(v) is int and v > 0 for v in values)
    assert cfg.sigmas and all(type(v) in (int, float) and 0 < v < math.inf for v in cfg.sigmas)
    assert isinstance(cfg.checks, list) and set(cfg.checks) <= set(CHECKS)
    assert isinstance(cfg.family.get("name", ""), str) and isinstance(cfg.family.get("params", {}), dict)
    assert cfg.family_name in SWEEP.factories and set(cfg.family) <= {"name", "params"}
    assert set(cfg.tolerances) <= set(DEFAULT_TOLERANCES)
    assert all(type(v) in (int, float) for v in cfg.tolerances.values())
    for key in set(cfg.tolerances) & set(COUNT_TOLERANCES):
        assert type(cfg.tolerances[key]) is int and cfg.tolerances[key] >= (2 if key == "selfsum_nmax" else 0)
    assert type(cfg.seed) is int and cfg.seed >= 0 and cfg.seed == doc["seed"]
    assert cfg.output is None or isinstance(cfg.output, str)


def test_values_that_break_a_factory_or_loader_are_lce_errors(tmp_path):
    # sigma^2 underflows to 0, so does a rate's square, and so does l * r
    for text in ["gaussian{sigma=1e-200}", "laplace_product{rate=1e-200}",
                 "asym_exponential{left_rate=1e-300,right_rate=1e-300}"]:
        with pytest.raises(LceError):
            DENSITIES.from_spec(text)
    for text in ["simplex{d=100000}", "ball{d=0}", "cube{d=-1}"]:
        with pytest.raises(LceError):
            BODIES.from_spec(text)
    with pytest.raises(LceError):
        pmf_from_doc({"dim": 1, "lo": [float("inf")], "hi": [0], "values": [1.0]})
    path = tmp_path / "config.json"
    path.write_text('{"family": {}, "dims": [1], "sigmas": [1], "n_values": [1], "checks": [], "seed": Infinity}')
    with pytest.raises(LceError):
        load_config(path)
