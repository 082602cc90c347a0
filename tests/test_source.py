"""Checks on the package source itself."""

import ast
from pathlib import Path

import polycert

SRC = Path(polycert.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a check written as one would vanish
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/polycert: {found}"
