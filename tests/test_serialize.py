import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from scmech import serialize
from scmech.errors import DomainError, SpecParseError


def test_floats_round_trip_bit_exactly():
    values = [0.1, 1 / 3, math.pi, 5e-324, 1.7976931348623157e308,
              0.2339159790, -0.0, 2.0, 1e16 + 2.0]
    for x in values:
        assert float(json.loads(serialize.dumps(x))) == x


def test_nested_structures_and_key_order():
    obj = {"b": [1, 2.5, None, True], "a": {"x": 0.1}}
    text = serialize.dumps(obj)
    assert text.index('"b"') < text.index('"a"')  # insertion order kept
    assert json.loads(text) == {"b": [1, 2.5, None, True], "a": {"x": 0.1}}


def test_infinity_serializes_as_null():
    assert serialize.dumps(math.inf) == "null"


def test_nan_rejected():
    with pytest.raises(ValueError):
        serialize.dumps(math.nan)


def test_dump_is_deterministic(tmp_path):
    obj = {"revenue": 0.25, "bundles": [[0.0, 0.0], [0.5, 1.0]]}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.dump_file(obj, str(p1))
    serialize.dump_file(obj, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_writer(tmp_path):
    rows = [{"kind": "IC", "truthful_r": 1.5, "deviant_r": 2.0, "gain": 7 / 12},
            {"kind": "IR", "truthful_r": 0.3, "deviant_r": None, "gain": 0.1}]
    path = tmp_path / "r.csv"
    serialize.write_csv(rows, str(path), ["kind", "truthful_r", "deviant_r", "gain"])
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,truthful_r,deviant_r,gain"
    assert lines[2].startswith("IR,") and ",," in lines[2]  # None -> empty


def test_compact_domain_specs():
    dom = serialize.parse_domain_spec("quasilinear:0.5,4")
    assert (dom.lo, dom.hi) == (0.5, 4.0)
    assert serialize.parse_domain_spec("risk_averse").restricted
    with pytest.raises(SpecParseError):
        serialize.parse_domain_spec("quasilinear:1")


def test_compact_dist_specs():
    assert serialize.parse_dist_spec("uniform:0,1").name == "uniform"
    assert serialize.parse_dist_spec("texp:2,0,1").name == "truncated_exponential"
    assert serialize.parse_dist_spec("beta:2,3").name == "beta"
    with pytest.raises(SpecParseError):
        serialize.parse_dist_spec("cauchy:0,1")
    with pytest.raises(SpecParseError):
        serialize.parse_dist_spec("uniform:0")


def test_spec_files_round_trip(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"name": "uniform", "params": {"lo": 0, "hi": 2}}))
    dist = serialize.parse_dist_spec(str(path))
    assert (dist.lo, dist.hi) == (0.0, 2.0)
    dpath = tmp_path / "dom.json"
    dpath.write_text(json.dumps({"family": "myerson",
                                 "params": {"lo": 0, "hi": 1},
                                 "kind": "restricted"}))
    dom = serialize.parse_domain_spec(str(dpath))
    assert dom.family.name == "myerson" and dom.hi == 1.0


# each compact spec and the JSON spec it is shorthand for
EQUIVALENT_SPECS = [
    ("uniform:0,1", {"name": "uniform", "params": {"lo": 0, "hi": 1}}),
    ("texp:2,0,1", {"name": "texp", "params": {"rate": 2, "lo": 0, "hi": 1}}),
    ("texp:2,0,1", {"name": "truncated_exponential",
                    "params": {"rate": 2, "lo": 0, "hi": 1}}),
    ("beta:2,3", {"name": "beta", "params": {"a": 2, "b": 3}}),
    ("quasilinear", {"family": "quasilinear"}),
    ("sqrt_quasilinear:0.2,1", {"family": "sqrt_quasilinear",
                                "params": {"lo": 0.2, "hi": 1}}),
]


@pytest.mark.parametrize("compact, spec", EQUIVALENT_SPECS,
                         ids=["uniform", "texp", "texp-long-name", "beta",
                              "quasilinear", "sqrt_quasilinear"])
def test_a_compact_spec_builds_its_json_spec(tmp_path, compact, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    parse = (serialize.parse_domain_spec if "family" in spec
             else serialize.parse_dist_spec)
    assert parse(compact).to_spec() == parse(str(path)).to_spec()


# (compact spec, its JSON spec, the error both raise)
BAD_SPECS = [
    ("uniform:0,inf", {"name": "uniform", "params": {"lo": 0, "hi": math.inf}},
     SpecParseError),
    ("uniform:1,0", {"name": "uniform", "params": {"lo": 1, "hi": 0}},
     SpecParseError),
    ("beta:nan,2", {"name": "beta", "params": {"a": math.nan, "b": 2}},
     SpecParseError),
    ("cauchy:0,1", {"name": "cauchy", "params": {"lo": 0, "hi": 1}},
     SpecParseError),
    ("nosuch", {"family": "nosuch"}, SpecParseError),
    ("nosuch:0,1", {"family": "nosuch", "params": {"lo": 0, "hi": 1}},
     SpecParseError),
    ("uniform:0", {"name": "uniform", "params": {"lo": 0}}, SpecParseError),
    ("uniform:0,1,2", {"name": "uniform",
                       "params": {"lo": 0, "hi": 1, "width": 2}},
     SpecParseError),
    ("texp:1e-310,0,1", {"name": "texp",
                         "params": {"rate": 1e-310, "lo": 0, "hi": 1}},
     SpecParseError),
    # bad domain bounds are a DomainError in both syntaxes
    ("quasilinear:1,0", {"family": "quasilinear",
                         "params": {"lo": 1, "hi": 0}}, DomainError),
    ("power_q:0,1", {"family": "power_q", "params": {"lo": 0, "hi": 1}},
     DomainError),
]


@pytest.mark.parametrize("compact, spec, error", BAD_SPECS,
                         ids=["uniform-inf", "uniform-reversed", "beta-nan",
                              "unknown-name", "unknown-family",
                              "unknown-family-bounds", "too-few", "too-many",
                              "texp-subnormal", "domain-reversed",
                              "domain-outside-family"])
def test_both_syntaxes_raise_the_same_error(tmp_path, compact, spec, error):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))  # Infinity and NaN as Python writes them
    parse = (serialize.parse_domain_spec if "family" in spec
             else serialize.parse_dist_spec)
    for text in (compact, str(path)):
        with pytest.raises(error) as info:
            parse(text)
        assert type(info.value) is error


# JSON specs holding a key that from_spec does not know; each once built,
# taking what it misspelled from the default or dropping what was extra
UNKNOWN_KEYS = [
    {"family": "quasilinear", "params": {"lo": 0.5, "high": 2}},
    {"family": "quasilinear", "parms": {"lo": 0.5, "hi": 2}},
    {"family": "quasilinear", "params": {"lo": 0, "hi": 1}, "extra": 1},
    {"name": "uniform", "params": {"lo": 0, "hi": 1}, "extra": 1},
    {"name": "uniform", "parms": {"lo": 0, "hi": 1}},
    {"table": [[0, 0], [1, 1]], "name": "table"},
    {"table": [[0, 0], [1, 1]], "params": {}},
]


@pytest.mark.parametrize("spec", UNKNOWN_KEYS,
                         ids=["domain-param", "domain-params", "domain-extra",
                              "dist-extra", "dist-params", "table-name",
                              "table-params"])
def test_a_spec_with_an_unknown_key_is_spec_error(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    parse = (serialize.parse_domain_spec if "family" in spec
             else serialize.parse_dist_spec)
    with pytest.raises(SpecParseError) as info:
        parse(str(path))
    assert type(info.value) is SpecParseError


def test_a_spec_takes_every_key_it_knows(tmp_path):
    path = tmp_path / "spec.json"
    for spec in ({"family": "myerson", "params": {"lo": 0, "hi": 1},
                  "kind": "restricted"},
                 {"family": "myerson", "params": {"hi": 1}},
                 {"name": "uniform", "params": {"lo": 0, "hi": 1}},
                 {"name": "table", "params": {"points": [[0, 0], [1, 1]]}},
                 {"table": [[0, 0], [1, 1]]}):
        path.write_text(json.dumps(spec))
        parse = (serialize.parse_domain_spec if "family" in spec
                 else serialize.parse_dist_spec)
        assert parse(str(path)).hi == 1.0


JSON_TREES = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.integers()
    | st.text() | st.booleans(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=40)


def _bits(obj):
    """``obj`` with every leaf tagged by its type and every float replaced
    by its exact hex form, so -0.0 and 0.0, or 1 and 1.0, stay apart."""
    if isinstance(obj, list):
        return [_bits(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    return type(obj).__name__, obj.hex() if isinstance(obj, float) else obj


@settings(max_examples=300, deadline=None)
@given(obj=JSON_TREES)
def test_dumps_round_trips_bit_exactly(obj):
    text = serialize.dumps(obj)
    back = json.loads(text)
    assert _bits(back) == _bits(obj)
    assert serialize.dumps(back) == text
