"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

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


def _imported_modules(path):
    """The polycert modules and names a package module imports, dotted in full."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["polycert" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module, banned", [("monomial", "counters"), ("textio", "geobucket")])
def test_module_imports_nothing_from(module, banned):
    banned = f"polycert.{banned}"
    found = [
        name for name in _imported_modules(SRC / f"{module}.py")
        if name == banned or name.startswith(banned + ".")
    ]
    assert not found, f"polycert.{module} imports {found}"


def test_every_entry_point_the_benchmark_calls_exists():
    # perfbench calls the package as `pc.<name>`, with pc = polycert
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    used = {
        node.attr
        for name in ("execute.py", "run.py")
        for node in ast.walk(ast.parse((perfbench / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and (
            isinstance(node.value, ast.Name) and node.value.id == "pc"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "pc"
        )
    }
    assert {"mul_heap_gb", "GbRoute", "Geobucket", "verify", "add"} <= used
    missing = sorted(name for name in used if not hasattr(polycert, name))
    assert not missing, f"perfbench calls polycert.{missing}, which do not exist"
