"""Checks on the source tree itself, not on its behaviour."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "classgraph"
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


def readme_library_example() -> str:
    """The Python block under README's "Library example" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README's Library example has no python block"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(readme_library_example(), "README.md", "exec"), {})


def exit_code_sentence_codes(text: str) -> set[int]:
    """The codes listed in the first "Exit codes: ..." sentence of `text`."""
    match = re.search(r"Exit codes: (.*?)\.(?:\s|$)", " ".join(text.split()))
    assert match is not None, "no 'Exit codes:' sentence"
    return {int(code) for code in re.findall(r"(?:^|, )(\d+) ", match.group(1))}


def test_exit_code_sentence_codes_are_found():
    text = "Exit\ncodes: 0 success, 2 parse error, 3 cap\nexceeded.  Later 7 things."
    assert exit_code_sentence_codes(text) == {0, 2, 3}


def test_documented_exit_codes_are_the_error_classes_codes():
    import classgraph
    from classgraph import cli

    classes = [
        c
        for c in vars(classgraph).values()
        if isinstance(c, type) and issubclass(c, classgraph.ClassGraphError)
    ]
    codes = {0} | {c.exit_code for c in classes}
    assert exit_code_sentence_codes((ROOT / "README.md").read_text(encoding="utf-8")) == codes
    assert exit_code_sentence_codes(cli.__doc__) == codes
