"""Checks on the package's source text.

Every module-level import of ``src/toughlab`` is read somewhere in its
module, except the names ``perfbench/traced.py`` patches there, which a
module imports only so the tracer can time them; the package ``__init__``
imports nothing, so callers import from the submodules.  Every public top-level function and class is
read by name elsewhere in the package, or is one of the few primitives in
``READ_BY_TESTS``, each named with the tier-1 test that reads it.  Every
source and test file parses as Python 3.10, the oldest version
``pyproject.toml`` accepts.
"""
import ast
from pathlib import Path

import pytest

from test_perfbench_names import _traced

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toughlab"


def _unused_imports(tree: ast.Module, keep: set[str]) -> list[str]:
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | keep]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_module_imports(path):
    keep = set(_traced()._CALLS.get(path[:-3], ()))
    assert _unused_imports(ast.parse((PACKAGE / path).read_text()), keep) == []


def test_unused_import_scan_finds_one():
    tree = ast.parse("from os import path, sep\nimport sys\n\ndef f():\n    return sep\n")
    assert _unused_imports(tree, set()) == ["path (line 1)", "sys (line 2)"]
    assert _unused_imports(tree, {"path"}) == ["sys (line 2)"]


#: public names no other module reads, each with the tier-1 test that reads it
READ_BY_TESTS = {
    "are_isomorphic": "test_canon.py::test_are_isomorphic_positive",
    "components": "test_classes.py::test_cograph_partition_properties",
    "cond2_candidates": "test_acceptance.py::test_criterion_07_structural_suites",
    "delete_vertex": "test_graphs.py::test_delete_vertex_matches_induced",
    "diameter": "test_connectivity.py::test_diameter_matches_reference",
    "identify_family": "test_verify.py::test_identify_family_round_trip",
    "iter_graph6": "test_graph6.py::test_iter_graph6_skips_blank_lines",
    "iterate_separators": "test_acceptance.py::test_criterion_07_structural_suites",
    "simplicial_pair_decomposition": "test_acceptance.py::test_criterion_07_structural_suites",
    "tough_separators": "test_toughness.py::test_tough_separators_attain_the_minimum",
    "toughness_complete_multipartite": "test_acceptance.py::test_criterion_02_multipartite_formula",
    "universal_vertices": "test_acceptance.py::test_criterion_07_structural_suites",
    "uv_extension": "test_acceptance.py::test_criterion_07_structural_suites",
}


def _unread_public(trees: dict[str, ast.Module]) -> list[str]:
    """The public top-level functions and classes of ``trees`` (module name
    -> parsed source) that no top-level statement but their own reads by name."""
    defined, read = set(), set()
    for tree in trees.values():
        for node in tree.body:
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.add(node.name)
            read |= names
    return sorted(defined - read)


def test_every_public_name_has_a_reader():
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert _unread_public(trees) == sorted(READ_BY_TESTS)
    for name, test in READ_BY_TESTS.items():
        path, func = test.split("::")
        body = next(node for node in ast.parse((ROOT / "tests" / path).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == func)
        assert name in {sub.id for sub in ast.walk(body) if isinstance(sub, ast.Name)}, test


def test_unread_public_scan_finds_one():
    trees = {
        "a": ast.parse("def f():\n    return f()\n\ndef g():\n    return 1\n\nclass _H:\n    pass\n"),
        "b": ast.parse("from a import g\n\nclass K:\n    x = g()\n"),
    }
    assert _unread_public(trees) == ["K", "f"]


@pytest.mark.parametrize("path", sorted(str(p.relative_to(ROOT)) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")))
def test_parses_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(), filename=path, feature_version=(3, 10))
