"""Group spec files: a small JSON format for construction trees.

A spec file is a single JSON object ``{"name": ..., "construct": ...}``
whose construct node is one of::

    {"op": "cyclic", "n": 6}
    {"op": "abelian", "orders": [2, 3]}
    {"op": "frobenius", "kernel": [7], "complement": 3}          # multipliers optional
    {"op": "semidirect", "kernel": [7], "top": [9], "multipliers": [[2]]}
    {"op": "direct", "factors": [node, ...]}
    {"op": "perm", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}

Parsing is strict: unknown keys are rejected, and construct nodes may nest
at most :data:`MAX_NESTING` deep.  Serialization is canonical (fixed key
order, two-space indent by :func:`json_text`), so a canonically written
file parses and re-serializes byte-identically.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .construction import Abelian, Cyclic, Direct, Frobenius, GroupExpr, Perm, Semidirect
from .errors import SpecFileError

# Deepest construct-node nesting a spec may use; deeper specs are rejected
# before any recursive evaluation could exhaust the interpreter stack.
MAX_NESTING = 100


def _expect_keys(obj: dict, required: set[str], optional: set[str] = frozenset()) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SpecFileError(f"missing keys {sorted(missing)} in {obj!r}")
    if unknown:
        raise SpecFileError(f"unknown keys {sorted(unknown)} in {obj!r}")


def _int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFileError(f"{what} must be an integer, got {value!r}")
    return value


def _int_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise SpecFileError(f"{what} must be a list, got {value!r}")
    return tuple(_int(v, what) for v in value)


def node_to_expr(obj, _depth: int = 1) -> GroupExpr:
    if _depth > MAX_NESTING:
        raise SpecFileError(f"construct nodes nest deeper than {MAX_NESTING} levels")
    if not isinstance(obj, dict):
        raise SpecFileError(f"construct node must be an object, got {obj!r}")
    op = obj.get("op")
    if op == "cyclic":
        _expect_keys(obj, {"op", "n"})
        return Cyclic(_int(obj["n"], "n"))
    if op == "abelian":
        _expect_keys(obj, {"op", "orders"})
        return Abelian(_int_list(obj["orders"], "orders"))
    if op == "frobenius":
        _expect_keys(obj, {"op", "kernel", "complement"}, {"multipliers"})
        multipliers = None
        if "multipliers" in obj:
            multipliers = _int_list(obj["multipliers"], "multipliers")
        return Frobenius(
            kernel=_int_list(obj["kernel"], "kernel"),
            complement=_int(obj["complement"], "complement"),
            multipliers=multipliers,
        )
    if op == "semidirect":
        _expect_keys(obj, {"op", "kernel", "top", "multipliers"})
        rows = obj["multipliers"]
        if not isinstance(rows, list):
            raise SpecFileError("multipliers must be a list of rows")
        return Semidirect(
            kernel=_int_list(obj["kernel"], "kernel"),
            top=_int_list(obj["top"], "top"),
            multipliers=tuple(_int_list(row, "multiplier row") for row in rows),
        )
    if op == "direct":
        _expect_keys(obj, {"op", "factors"})
        factors = obj["factors"]
        if not isinstance(factors, list) or not factors:
            raise SpecFileError("factors must be a nonempty list")
        return Direct(tuple(node_to_expr(f, _depth + 1) for f in factors))
    if op == "perm":
        _expect_keys(obj, {"op", "degree", "generators"})
        gens = obj["generators"]
        if not isinstance(gens, list) or not gens:
            raise SpecFileError("generators must be a nonempty list")
        return Perm(
            degree=_int(obj["degree"], "degree"),
            generators=tuple(_int_list(g, "generator") for g in gens),
        )
    raise SpecFileError(f"unknown op {op!r}")


def expr_to_node(expr: GroupExpr) -> dict:
    if isinstance(expr, Cyclic):
        return {"op": "cyclic", "n": expr.n}
    if isinstance(expr, Abelian):
        return {"op": "abelian", "orders": list(expr.orders)}
    if isinstance(expr, Frobenius):
        node = {"op": "frobenius", "kernel": list(expr.kernel), "complement": expr.complement}
        if expr.multipliers is not None:
            node["multipliers"] = list(expr.multipliers)
        return node
    if isinstance(expr, Semidirect):
        return {
            "op": "semidirect",
            "kernel": list(expr.kernel),
            "top": list(expr.top),
            "multipliers": [list(row) for row in expr.multipliers],
        }
    if isinstance(expr, Direct):
        return {"op": "direct", "factors": [expr_to_node(f) for f in expr.factors]}
    if isinstance(expr, Perm):
        return {
            "op": "perm",
            "degree": expr.degree,
            "generators": [list(g) for g in expr.generators],
        }
    raise SpecFileError(f"cannot serialize {expr!r}")


def parse_spec_text(text: str) -> tuple[str, GroupExpr]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFileError("invalid JSON: nested too deeply to parse") from exc
    if not isinstance(obj, dict):
        raise SpecFileError("spec file must contain a JSON object")
    _expect_keys(obj, {"name", "construct"})
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise SpecFileError(f"name must be a nonempty string, got {name!r}")
    return name, node_to_expr(obj["construct"])


def parse_spec_file(path: str | Path) -> tuple[str, GroupExpr]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"spec file is not UTF-8: {exc}") from exc
    return parse_spec_text(text)


def json_text(obj, _indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``; dict (str keys), list, str, int, bool, None, or TypeError."""
    kind = type(obj)
    inner = _indent + "  "
    if kind is list and obj:
        items = [str(x) if type(x) is int else json_text(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + _indent + "]"
    if kind is dict and obj:
        if any(type(key) is not str for key in obj):
            raise TypeError(f"JSON object keys must be str, got {list(obj)!r}")
        items = [
            encode_basestring_ascii(key) + ": " + json_text(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + _indent + "}"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is list:
        return "[]"
    if kind is dict:
        return "{}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def serialize_spec(name: str, expr: GroupExpr) -> str:
    obj = {"name": name, "construct": expr_to_node(expr)}
    return json_text(obj) + "\n"


def write_spec_file(path: str | Path, name: str, expr: GroupExpr) -> None:
    Path(path).write_text(serialize_spec(name, expr), encoding="utf-8")
