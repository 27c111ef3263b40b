"""Checks on the source tree itself, not on its behaviour."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "classgraph"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_sibling_imports(source: str) -> list[str]:
    """`module.name` for each `_`-prefixed name imported from a sibling module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.module or "").startswith("classgraph.")
        if not sibling or node.module is None:
            continue
        module = node.module.removeprefix("classgraph.")
        out += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return out


def test_private_sibling_imports_are_found():
    source = "from .perm import PermGroup, _compose\nfrom classgraph.graph import _x\n"
    assert private_sibling_imports(source) == ["perm._compose", "graph._x"]
    assert private_sibling_imports("from __future__ import annotations\n") == []
    assert private_sibling_imports("from . import perm\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert private_sibling_imports(path.read_text()) == []
