"""Static hygiene of the package source, checked with the standard ``ast``
module: no unused module-level import (in the tests too), no ``__all__``
entry its module does not define, and every name ``conjtoep`` exports
listed in its module's ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "conjtoep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Module-level import bindings: bound name -> imported name."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: a.name for a in node.names})
    return bound


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_module_level_import(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all(tree))
    assert set(_imported(tree)) - used == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _tree(path)
    defined = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    assert set(_all(tree)) - defined == set()


def test_package_exports_are_in_their_modules_all():
    exported = {}
    for node in _tree(SRC / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert exported
    for module, names in exported.items():
        assert names - set(_all(_tree(SRC / f"{module}.py"))) == set(), module
