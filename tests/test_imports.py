"""No dead imports in the package: every name a module of ``sigmaflow``
(other than ``__init__``, which re-exports) imports is used in that module.
A string annotation such as ``"ex.Expr"`` counts as a use."""

import ast
from pathlib import Path

import sigmaflow

PACKAGE = Path(sigmaflow.__file__).parent


def imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def used_names(tree: ast.Module) -> set:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree]
    for ann in filter(None, annotations):
        trees += [ast.parse(c.value, mode="eval") for c in ast.walk(ann)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


def dead_imports(source: str) -> set:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


def test_every_import_is_used():
    dead = {path.name: sorted(names) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"
            and (names := dead_imports(path.read_text()))}
    assert dead == {}


def test_the_guard_sees_string_annotations_and_dead_names():
    source = ("from . import expr as ex\nfrom .curvature import values, _d\n"
              "def f(e: 'ex.Expr'):\n    return _d(e)\n")
    assert dead_imports(source) == {"values"}
