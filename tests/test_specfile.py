from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    Cyclic,
    Direct,
    Frobenius,
    Perm,
    Semidirect,
    SpecFileError,
    evaluate,
    parse_spec_text,
    serialize_spec,
)
from classgraph.specfile import expr_to_node, json_text, node_to_expr

ROOT = Path(__file__).resolve().parent.parent


def test_parse_frobenius():
    name, expr = parse_spec_text(
        '{"name": "f21", "construct": {"op": "frobenius", "kernel": [7], "complement": 3}}'
    )
    assert name == "f21"
    assert expr == Frobenius((7,), 3)


def test_parse_nested_direct():
    text = """
    {
      "name": "g",
      "construct": {
        "op": "direct",
        "factors": [
          {"op": "frobenius", "kernel": [7], "complement": 3},
          {"op": "cyclic", "n": 5}
        ]
      }
    }
    """
    _, expr = parse_spec_text(text)
    assert expr == Direct((Frobenius((7,), 3), Cyclic(5)))
    assert evaluate(expr).order == 105


def test_parse_perm_and_semidirect():
    _, expr = parse_spec_text(
        '{"name": "s3", "construct": {"op": "perm", "degree": 3, "generators": [[1,2,0],[1,0,2]]}}'
    )
    assert expr == Perm(3, ((1, 2, 0), (1, 0, 2)))
    _, expr = parse_spec_text(
        '{"name": "g63", "construct": {"op": "semidirect", "kernel": [7], "top": [9], "multipliers": [[2]]}}'
    )
    assert expr == Semidirect((7,), (9,), ((2,),))


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"name": "x"}',
        '{"name": "x", "construct": {"op": "nope"}}',
        '{"name": "x", "construct": {"op": "cyclic", "n": 6, "extra": 1}}',
        '{"name": "x", "construct": {"op": "cyclic", "n": "6"}}',
        '{"name": "x", "construct": {"op": "frobenius", "kernel": [7]}}',
        '{"name": "", "construct": {"op": "cyclic", "n": 6}}',
        '{"name": "x", "construct": {"op": "direct", "factors": []}}',
        '{"name": "x", "construct": {"op": "cyclic", "n": true}}',
    ],
)
def test_parse_rejects(text):
    with pytest.raises(SpecFileError):
        parse_spec_text(text)


def test_round_trip_byte_identical():
    exprs = [
        Cyclic(6),
        Frobenius((7, 13), 3),
        Frobenius((7,), 3, multipliers=(2,)),
        Semidirect((7,), (9,), ((2,),)),
        Direct((Frobenius((7,), 3), Cyclic(5))),
        Perm(3, ((1, 2, 0), (1, 0, 2))),
    ]
    for expr in exprs:
        text = serialize_spec("g", expr)
        name, parsed = parse_spec_text(text)
        assert parsed == expr
        assert serialize_spec(name, parsed) == text


def test_multipliers_only_serialized_when_explicit():
    auto = expr_to_node(Frobenius((7,), 3))
    assert "multipliers" not in auto
    explicit = expr_to_node(Frobenius((7,), 3, multipliers=(2,)))
    assert explicit["multipliers"] == [2]


def test_node_round_trip():
    node = {
        "op": "direct",
        "factors": [
            {"op": "frobenius", "kernel": [7], "complement": 3},
            {"op": "abelian", "orders": [4]},
        ],
    }
    assert expr_to_node(node_to_expr(node)) == node


# -- json_text -------------------------------------------------------------


def test_json_text_writes_the_golden_reports_and_specs_as_json_dumps_does():
    specs = sorted((ROOT / "specs").glob("*.json"))
    paths = sorted((ROOT / "tests" / "golden").glob("*.json")) + specs
    assert len(paths) > 40
    for path in paths:
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert json_text(obj) == json.dumps(obj, indent=2), path
    for path in specs:
        name, expr = parse_spec_text(path.read_text(encoding="utf-8"))
        assert serialize_spec(name, expr) == path.read_text(encoding="utf-8"), path


@pytest.mark.parametrize(
    "obj",
    [
        {"name": "Δ(G) für \"A × B\" \\ 𝔽₇ \u2028", "ctrl": "\x00\x01\x1f\n\t\r\x7f"},
        [], {}, [[]], [{}], {"a": {}}, {"a": []}, [[], {}, [[]], {"b": [{}]}],
        None, True, False, 0, -7, 10**40, "", [True, False, None, 1, "1"],
        # Keys written directly next to keys that need escapes.
        {'a "q"': 1, "back\\slash": 2, "bell\x07": 3, "Δ(G)": 4, "del\x7f": 5, "": 6, " ~": 7},
        # Values written directly next to values that need escapes.
        'a "q"', "back\\slash", "bell\x07", "del\x7f", "Δ(G)",
        ["", " ~", 'a "q"', "back\\slash", "bell\x07", "del\x7f", "Δ(G)"],
        {"a": 'a "q"', "b": "back\\slash", "c": "bell\x07", "d": "del\x7f", "e": "Δ(G)", "f": ""},
        # Scalars and empty containers written without json.dumps, at top
        # level and nested as list items and dict values.
        -1, 1, 2**63, -(2**63) - 1, -(10**40), [0, -1, 10**40], [[], {}, None, True, False],
        {"t": True, "f": False, "n": None, "z": 0, "neg": -3, "big": -(10**40), "l": [], "d": {}},
        {"a": [{"b": [[], {}, 0]}, None], "c": {"d": {"e": {}}, "f": [False]}},
    ],
)
def test_json_text_matches_json_dumps_on_edge_cases(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_JSON)
def test_json_text_matches_json_dumps_on_generated_values(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, [0.0], {1: "a"}, {"a": {None: 1}}, (1, 2), {"a": {3}}])
def test_json_text_rejects_what_it_does_not_write(obj):
    with pytest.raises(TypeError):
        json_text(obj)
