"""Checks on the package source itself."""

import ast
import sys
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


@pytest.mark.parametrize("module, banned", [
    ("monomial", "counters"), ("textio", "geobucket"), ("poly", "monomial.ev_compare"),
    ("geobucket", "monomial.ev_compare"), ("heapmul", "monomial.ev_compare"),
    ("verifier", "monomial.ev_compare"), ("heapmul", "geobucket"), ("textio", "verifier"),
    ("textio", "monomial.pack_columns"), ("textio", "monomial.evs_unchecked"),
    ("textio", "poly.poly_from_terms"),
])
def test_module_imports_nothing_from(module, banned):
    banned = f"polycert.{banned}"
    found = [
        name for name in _imported_modules(SRC / f"{module}.py")
        if name == banned or name.startswith(banned + ".")
    ]
    assert not found, f"polycert.{module} imports {found}"


@pytest.mark.parametrize("module, allowed", [
    ("heapmul", {"counters", "monomial", "poly"}), ("textio", {"errors", "monomial", "poly"}),
])
def test_module_imports_only(module, allowed):
    # none of these reaches back up: the merge engine does not know the
    # geobucket, and the text layer knows neither the engine nor the verifier
    found = {
        name.split(".")[1] for name in _imported_modules(SRC / f"{module}.py")
        if name.startswith("polycert.") and (SRC / f"{name.split('.')[1]}.py").exists()
    }
    assert found == allowed


def test_only_poly_packs_monomial_keys():
    # the packed key format is monomial's, and poly alone builds keys from it
    packers = {f"polycert.monomial.{name}" for name in
               ("key_packer", "pack_columns", "evs_unchecked")}
    users = {path.stem for path in SRC.glob("*.py") if packers & set(_imported_modules(path))}
    assert users == {"poly"}


def _names(path):
    """Every identifier, attribute and string constant a package module names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_poly_names_the_kept_keys():
    # a parsed polynomial's keys are poly's business: no other module hands them on
    users = {path.stem for path in SRC.glob("*.py") if "_keys" in set(_names(path))}
    assert users == {"poly"}
    assert not [path.stem for path in SRC.glob("*.py") if "_packed" in set(_names(path))]


def test_only_poly_names_the_held_columns():
    # a product held as columns is poly's business: the others read them through poly.columns
    users = {path.stem for path in SRC.glob("*.py") if "_columns" in set(_names(path))}
    assert users == {"poly"}


def test_textio_builds_no_fraction():
    # the parser keeps numerators and denominators: only poly makes a parsed section's Fractions
    assert "Fraction" not in set(_names(SRC / "textio.py"))
    assert not [name for name in _imported_modules(SRC / "textio.py") if "fractions" in name]


def test_the_public_names_stay_the_same():
    # a name moved between modules stays exported from the package
    assert sorted(polycert.__all__) == [
        "Certificate", "Const", "ExponentVector", "GbRoute", "Geobucket", "MonomialOrder",
        "Node", "OpCounters", "Polynomial", "RecursionMode", "ScanDirection", "Term",
        "VariableSet", "VerifyResult", "add", "combine", "count_ops", "ev_add",
        "ev_compare", "ev_make", "find_witness", "format_certificate", "format_recursive",
        "gb_new", "leading_term", "mul_heap", "mul_heap_gb", "mul_naive", "negate",
        "parse_certificate", "parse_poly", "poly_from_terms", "print_poly", "read_naive",
        "read_sorted", "scale", "term_count", "to_distributed", "to_recursive",
        "univ_divide", "univ_pseudo_divide", "verify", "verify_naive", "zero",
    ]
    assert all(hasattr(polycert, name) for name in polycert.__all__)


def test_the_package_imports_only_the_standard_library():
    # polycert has no runtime dependencies
    found = {
        name.split(".")[0]
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(path)
    }
    outside = sorted(found - set(sys.stdlib_module_names) - {"polycert"})
    assert not outside, f"src/polycert imports {outside}"


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
