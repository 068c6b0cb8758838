"""Checks on the package's source text.

Every module-level import of ``src/toughlab`` (``__init__`` aside, whose
imports are the public names) is read somewhere in its module, except the
names ``perfbench/traced.py`` patches there, which a module imports only
so the tracer can time them.  Every source and test file parses as
Python 3.10, the oldest version ``pyproject.toml`` accepts.
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


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_imports(path):
    keep = set(_traced()._CALLS.get(path[:-3], ()))
    assert _unused_imports(ast.parse((PACKAGE / path).read_text()), keep) == []


def test_unused_import_scan_finds_one():
    tree = ast.parse("from os import path, sep\nimport sys\n\ndef f():\n    return sep\n")
    assert _unused_imports(tree, set()) == ["path (line 1)", "sys (line 2)"]
    assert _unused_imports(tree, {"path"}) == ["sys (line 2)"]


@pytest.mark.parametrize("path", sorted(str(p.relative_to(ROOT)) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")))
def test_parses_as_python_3_10(path):
    ast.parse((ROOT / path).read_text(), filename=path, feature_version=(3, 10))
