"""Input fuzzing: the parsers and loaders of user input raise nothing but
``LceError``, so that bad input always ends in an exit code, never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lce.densities import density_from_spec, parse_param_spec
from lce.errors import LceError
from lce.geometry import body_from_spec
from lce.harness import load_config
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
         "d", "side", "lo", "hi", "radius", "axes", "A", "b", "vertices", "foo"]


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
    raises_only_lce_error(density_from_spec, text)


@FUZZ
@given(specs())
def test_body_from_spec_raises_only_lce_error(text):
    raises_only_lce_error(body_from_spec, text)


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


def test_values_that_break_a_factory_or_loader_are_lce_errors(tmp_path):
    # sigma^2 underflows to 0, so does a rate's square, and so does l * r
    for text in ["gaussian{sigma=1e-200}", "laplace_product{rate=1e-200}",
                 "asym_exponential{left_rate=1e-300,right_rate=1e-300}"]:
        with pytest.raises(LceError):
            density_from_spec(text)
    for text in ["simplex{d=100000}", "ball{d=0}", "cube{d=-1}"]:
        with pytest.raises(LceError):
            body_from_spec(text)
    with pytest.raises(LceError):
        pmf_from_doc({"dim": 1, "lo": [float("inf")], "hi": [0], "values": [1.0]})
    path = tmp_path / "config.json"
    path.write_text('{"family": {}, "dims": [1], "sigmas": [1], "n_values": [1], "checks": [], "seed": Infinity}')
    with pytest.raises(LceError):
        load_config(path)
