"""JSON model-file parsing and validation."""

import json
import math

import pytest

from seriesdyn.errors import ModelFileError
from seriesdyn.model import Logistic, Spiral, TwoSpecies
from seriesdyn.modelfile import (
    DEFAULT_GRID_COUNT,
    DEFAULT_GRID_END,
    DEFAULT_ORDER,
    MAX_ORDER,
    MAX_SAMPLES,
    load_model,
    loads_model,
    parse_model,
)

LOGISTIC_DOC = {
    "model": "logistic",
    "params": {"b": 1.0, "a": -3.0},
    "x0": [1.0],
    "order": 4,
    "grid": {"end": 1.0, "count": 11},
    "tolerances": {"rel": 1e-9, "abs": 1e-11},
}

LOGISTIC_TERMS_DOC = {
    "model": "terms",
    "terms": [[{"exponents": [1], "coeff": 1.0},
               {"exponents": [2], "coeff": -3.0}]],
    "x0": [1.0],
}


def err(doc):
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    return info.value


def test_logistic_preset_happy_path():
    mf = parse_model(LOGISTIC_DOC)
    assert mf.kind == "logistic"
    assert mf.preset == Logistic(b=1.0, a=-3.0)
    assert mf.ivp.x0.tolist() == [1.0]
    assert mf.order == 4
    assert mf.grid_end == 1.0
    assert mf.grid_count == 11
    assert mf.cfg.rel_tol == 1e-9
    assert mf.cfg.abs_tol == 1e-11


def test_defaults_applied():
    mf = parse_model({"model": "spiral", "params": {"a": -0.5},
                      "x0": [2.0, 2.0]})
    assert mf.order == DEFAULT_ORDER == 10
    assert mf.grid_end == DEFAULT_GRID_END == 1.0
    assert mf.grid_count == DEFAULT_GRID_COUNT == 11
    assert mf.cfg.rel_tol == 1e-10
    assert mf.cfg.abs_tol == 1e-12
    assert mf.preset == Spiral(a=-0.5)


def test_two_species_preset():
    mf = parse_model({
        "model": "two-species",
        "params": {"b1": 0.1, "b2": 0.08, "a11": -0.0014, "a12": -0.0012,
                   "a21": -0.0009, "a22": -0.001},
        "x0": [4.0, 10.0],
    })
    assert mf.preset == TwoSpecies.reference()
    assert mf.ivp.dimension == 2


def test_terms_model_equals_expanded_preset():
    mf = parse_model(LOGISTIC_TERMS_DOC)
    assert mf.kind == "terms"
    assert mf.preset is None
    assert mf.ivp.field == Logistic(1.0, -3.0).build_field()


def test_terms_duplicate_exponents_accumulate():
    mf = parse_model({
        "model": "terms",
        "terms": [[{"exponents": [2], "coeff": 1.0},
                   {"exponents": [2], "coeff": 2.0}]],
        "x0": [1.0],
    })
    (comp,) = mf.ivp.field.components
    assert list(comp.terms.values()) == [3.0]


def test_loads_model_and_load_model(tmp_path):
    text = json.dumps(LOGISTIC_DOC)
    mf = loads_model(text)
    assert mf.kind == "logistic"
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    mf2 = load_model(str(path))
    # a model file compares by identity, so the two loads are compared
    # field by field, the initial state by its values
    for name in ("kind", "preset", "order", "grid_end", "grid_count", "cfg"):
        assert getattr(mf2, name) == getattr(mf, name), name
    assert mf2.ivp.field == mf.ivp.field
    assert mf2.ivp.x0.tolist() == mf.ivp.x0.tolist()


def test_invalid_json_reports_position():
    with pytest.raises(ModelFileError) as info:
        loads_model('{"model": }')
    assert "line 1" in str(info.value)
    assert info.value.location.startswith("line 1, column")


def test_missing_file_reports_path():
    with pytest.raises(ModelFileError) as info:
        load_model("/nonexistent/model.json")
    assert "/nonexistent/model.json" in str(info.value)


def test_top_level_must_be_object():
    e = err([1, 2, 3])
    assert e.location == "document root"


def test_unknown_top_level_key():
    doc = dict(LOGISTIC_DOC, extra=1)
    e = err(doc)
    assert "extra" in str(e)
    assert e.location == "document root"


def test_missing_required_keys():
    assert "model" in str(err({"x0": [1.0]}))
    assert "x0" in str(err({"model": "logistic", "params": {"b": 1, "a": -3}}))


def test_unknown_model_name():
    e = err({"model": "pendulum", "x0": [1.0]})
    assert e.location == "key 'model'"


def test_x0_validation():
    base = {"model": "logistic", "params": {"b": 1.0, "a": -3.0}}
    assert err(dict(base, x0=[])).location == "key 'x0'"
    assert err(dict(base, x0="1.0")).location == "key 'x0'"
    assert err(dict(base, x0=[1.0, "a"])).location == "key 'x0'[1]"
    assert err(dict(base, x0=[True])).location == "key 'x0'[0]"
    # wrong length for the preset dimension
    assert err(dict(base, x0=[1.0, 2.0])).location == "key 'x0'"


def test_params_validation():
    assert err({"model": "logistic", "x0": [1.0]}).location == "key 'params'"
    assert err({"model": "logistic", "x0": [1.0],
                "params": {"b": 1.0}}).location == "key 'params'"
    assert err({"model": "logistic", "x0": [1.0],
                "params": {"b": 1.0, "a": -3.0, "c": 0.0}}).location == "key 'params'"
    assert err({"model": "logistic", "x0": [1.0],
                "params": {"b": 1.0, "a": None}}).location == "key 'params.a'"


def test_terms_validation():
    assert err({"model": "terms", "x0": [1.0],
                "params": {"b": 1.0}}).location == "key 'params'"
    assert err({"model": "terms", "x0": [1.0]}).location == "document root"
    assert err({"model": "terms", "x0": [1.0],
                "terms": []}).location == "key 'terms'"
    assert err({"model": "terms", "x0": [1.0],
                "terms": [{"exponents": [1], "coeff": 1.0}]}
               ).location == "key 'terms'[0]"
    assert err({"model": "terms", "x0": [1.0],
                "terms": [[{"exponents": [1]}]]}).location == "key 'terms'[0][0]"
    assert err({"model": "terms", "x0": [1.0],
                "terms": [[{"exponents": [1, 0], "coeff": 1.0}]]}
               ).location == "key 'terms'[0][0]"
    assert err({"model": "terms", "x0": [1.0],
                "terms": [[{"exponents": [-1], "coeff": 1.0}]]}
               ).location == "key 'terms'[0][0]"
    assert err({"model": "terms", "x0": [1.0],
                "terms": [[{"exponents": [1], "coeff": "x"}]]}
               ).location == "key 'terms'[0][0]"
    # preset model with a terms key
    assert err(dict(LOGISTIC_DOC, terms=[[]])).location == "key 'terms'"


def test_order_validation():
    assert err(dict(LOGISTIC_DOC, order=0)).location == "key 'order'"
    assert err(dict(LOGISTIC_DOC, order=2.5)).location == "key 'order'"
    assert err(dict(LOGISTIC_DOC, order=True)).location == "key 'order'"


def test_order_and_grid_count_are_capped():
    # parsing computes nothing, so the caps themselves are cheap to check
    assert parse_model(dict(LOGISTIC_DOC, order=MAX_ORDER)).order == MAX_ORDER
    mf = parse_model(dict(LOGISTIC_DOC, grid={"count": MAX_SAMPLES}))
    assert mf.grid_count == MAX_SAMPLES
    for order in (MAX_ORDER + 1, 10**30):
        e = err(dict(LOGISTIC_DOC, order=order))
        assert e.location == "key 'order'" and f"<= {MAX_ORDER}" in str(e)
    for count in (MAX_SAMPLES + 1, 10**30):
        e = err(dict(LOGISTIC_DOC, grid={"count": count}))
        assert e.location == "key 'grid.count'" and f"<= {MAX_SAMPLES}" in str(e)


def test_grid_validation():
    assert err(dict(LOGISTIC_DOC, grid=[1.0])).location == "key 'grid'"
    assert err(dict(LOGISTIC_DOC, grid={"stop": 1.0})).location == "key 'grid'"
    assert err(dict(LOGISTIC_DOC, grid={"end": 0.0})).location == "key 'grid.end'"
    assert err(dict(LOGISTIC_DOC, grid={"end": -1.0})).location == "key 'grid.end'"
    assert err(dict(LOGISTIC_DOC,
                    grid={"count": 1})).location == "key 'grid.count'"
    # partial grid keeps the other default
    mf = parse_model(dict(LOGISTIC_DOC, grid={"end": 2.0}))
    assert mf.grid_end == 2.0 and mf.grid_count == DEFAULT_GRID_COUNT


def test_tolerances_validation():
    assert err(dict(LOGISTIC_DOC,
                    tolerances={"rtol": 1e-9})).location == "key 'tolerances'"
    assert err(dict(LOGISTIC_DOC,
                    tolerances={"rel": 0.0})).location == "key 'tolerances'"
    assert err(dict(LOGISTIC_DOC,
                    tolerances={"abs": -1e-12})).location == "key 'tolerances'"
    mf = parse_model(dict(LOGISTIC_DOC, tolerances={"rel": 1e-8}))
    assert mf.cfg.rel_tol == 1e-8 and mf.cfg.abs_tol == 1e-12


@pytest.mark.parametrize("text, location", [
    ('"x0": [NaN]', "key 'x0'[0]"),
    ('"x0": [1.0], "grid": {"end": NaN}', "key 'grid.end'"),
    ('"x0": [1.0], "grid": {"end": Infinity}', "key 'grid.end'"),
    ('"x0": [1.0], "tolerances": {"rel": NaN}', "key 'tolerances.rel'"),
    ('"x0": [1.0], "tolerances": {"abs": Infinity}', "key 'tolerances.abs'"),
    ('"x0": [1' + '0' * 400 + ']', "key 'x0'[0]"),
], ids=["x0-nan", "grid-end-nan", "grid-end-inf", "rel-nan", "abs-inf",
        "x0-int-beyond-float"])
def test_non_finite_numbers_rejected(text, location):
    # Python's json reads NaN, Infinity and -Infinity; none is a valid value
    doc = '{"model": "logistic", "params": {"b": 1.0, "a": -3.0}, ' + text + '}'
    with pytest.raises(ModelFileError) as info:
        loads_model(doc)
    assert info.value.location == location
    assert "finite" in str(info.value)


def test_non_finite_params_and_coefficients_rejected():
    e = err({"model": "logistic", "params": {"b": math.inf, "a": -3.0},
             "x0": [1.0]})
    assert e.location == "key 'params.b'"
    e = err({"model": "terms", "x0": [1.0],
             "terms": [[{"exponents": [1], "coeff": -math.inf}]]})
    assert e.location == "key 'terms'[0][0]"
