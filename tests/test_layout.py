"""Static checks on the package source: no rational arithmetic, no dead imports.

Every verdict is computed in integer arithmetic, so no module of the package
imports ``fractions``; the Fraction references live in tests/oracles.py.  A
top-level import that nothing in its module uses is dead code.  The package
``__init__`` only re-exports, so its imports are exempt from the second check.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "togliatti"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def unused_top_level_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "linalg.py", "classify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_fractions_import(path):
    tree = ast.parse(path.read_text())
    assert "fractions" not in set(imported_modules(tree))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_no_unused_top_level_import(path):
    assert unused_top_level_imports(ast.parse(path.read_text())) == []
