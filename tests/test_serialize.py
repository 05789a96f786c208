import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from scmech import serialize
from scmech.errors import SpecParseError


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
