"""Static checks on the package source: no rational arithmetic, no dead code.

Every verdict is computed in integer arithmetic, so no module of the package
imports ``fractions``; the Fraction references live in tests/oracles.py.
The package has no dependencies and imports only the standard-library
modules in STDLIB_ALLOWED, so a new import (``multiprocessing``, say) is a
decision made here, with its start-up time and memory in view.  A
top-level import that nothing in its module uses is dead code, and so is a
public top-level function or class, or a public method of such a class, that
nothing in the package (outside its own definition) or the benchmark refers
to: what only the tests need lives in tests/.  The package ``__init__`` only
re-exports, so its imports are exempt from the import check and its names do
not count as references.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "togliatti"
MODULES = sorted(PACKAGE.glob("*.py"))


STDLIB_ALLOWED = {
    "__future__", "argparse", "collections", "dataclasses", "functools", "itertools", "json",
    "math", "re", "sys", "time", "typing",
}


def external_imports(tree):
    """Top-level names of the modules tree imports from outside its package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


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


def referenced_names(tree, skip=None):
    """Names and attribute names used in tree, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def public_definitions(tree):
    """(qualified name, node) of each public top-level function or class and
    of each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_public_definitions(package_trees, bench_trees):
    """(module, name) of each public definition that no package module
    outside its own definition and no bench script refers to."""
    outside = set().union(*(referenced_names(tree) for tree in bench_trees))
    unreferenced = []
    for module, tree in package_trees.items():
        for qualname, node in public_definitions(tree):
            used = outside.union(
                *(referenced_names(other, skip=node) for other in package_trees.values())
            )
            if node.name not in used:
                unreferenced.append((module, qualname))
    return unreferenced


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "linalg.py", "classify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_fractions_import(path):
    tree = ast.parse(path.read_text())
    assert "fractions" not in set(imported_modules(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_allowed_stdlib_modules(path):
    assert set(external_imports(ast.parse(path.read_text()))) <= STDLIB_ALLOWED


def test_import_outside_allowlist_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import itertools, multiprocessing.pool\n"
        "from . import linalg\n"
        "from .errors import ParseError\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def f():\n    import numpy as np\n    from math import comb\n"
    )
    assert set(external_imports(tree)) - STDLIB_ALLOWED == {"multiprocessing", "concurrent", "numpy"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_no_unused_top_level_import(path):
    assert unused_top_level_imports(ast.parse(path.read_text())) == []


def test_every_public_definition_is_referenced():
    package = {p.stem: ast.parse(p.read_text()) for p in MODULES if p.name != "__init__.py"}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    assert bench
    assert unreferenced_public_definitions(package, bench) == []


def test_unreferenced_definition_is_reported():
    package = {
        "a": ast.parse("def used():\n    return 1\n\ndef lonely():\n    return lonely()\n"),
        "b": ast.parse("from a import used, lonely\nx = used()\n"),
    }
    bench = [ast.parse("import a\n")]
    assert unreferenced_public_definitions(package, bench) == [("a", "lonely")]


def test_unreferenced_method_is_reported():
    package = {
        "a": ast.parse(
            "class K:\n"
            "    def used(self):\n        return self._private()\n"
            "    def lonely(self):\n        return self.lonely()\n"
            "    def _private(self):\n        return 1\n"
            "    def __str__(self):\n        return ''\n"
        ),
        "b": ast.parse("from a import K\nx = K().used()\n"),
    }
    bench = [ast.parse("import a\n")]
    assert unreferenced_public_definitions(package, bench) == [("a", "K.lonely")]
