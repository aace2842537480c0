"""No dead imports in the package: every name a module of ``sigmaflow``
(other than ``__init__``, which re-exports) imports is used in that module.
A string annotation such as ``"ex.Expr"`` counts as a use.  No dead private
names either: every module-level ``_name`` is read, taken as an attribute or
imported somewhere in the package.  No dead public names: every module-level
def or class of the package is referenced in ``src`` or ``bench`` (a dotted
string such as the tracer's ``"TaylorContext.mul"`` included) or called or
taken as an attribute in README's code; what only tests call lives in
``tests/oracles.py``.  No dead members: every method and dataclass field of
a package class, dunders aside, is referenced in ``src``, ``tests`` or
``bench``, as an attribute, a name or a string such as the field names a
test reads through ``getattr``."""

import ast
import os
import re
import subprocess
import sys
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


def private_definitions(tree: ast.Module) -> set:
    """The ``_name`` bound at module level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def referenced_names(tree: ast.Module) -> set:
    """Names read, attributes taken and names imported anywhere in ``tree``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def dead_privates(sources: dict) -> dict:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = set().union(*map(referenced_names, trees.values()))
    return {name: sorted(dead) for name, tree in trees.items()
            if (dead := private_definitions(tree) - refs)}


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_privates(sources) == {}


def test_the_guard_sees_dead_private_names():
    sources = {"a.py": "_used = 1\n_dead = 2\ndef _gone(): pass\nclass _Kept: pass\n",
               "b.py": "from .a import _used\nimport a\nprint(a._Kept)\n"}
    assert dead_privates(sources) == {"a.py": ["_dead", "_gone"]}


def public_definitions(tree: ast.Module) -> set:
    """The public names bound at module level by a def or a class."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def code_names(markdown: str) -> set:
    """The names that the code spans and blocks of ``markdown`` take as an
    attribute or call, ``module.name`` or ``name(``; a bare word, such as
    one of a command line, names nothing."""
    return {name for span in re.findall(r"`+([^`]+)`+", markdown)
            for name in re.findall(r"(?<=\.)[A-Za-z_]\w*|\b[A-Za-z_]\w*(?=\()", span)}


def dead_publics(sources: dict, readers: list, tracers: list, docs: str) -> dict:
    """The public defs of ``sources`` that no tree of ``readers`` references,
    no tree of ``tracers`` references or names in a string, and ``docs``
    does not name in its code."""
    trees = [ast.parse(text) for text in tracers]
    refs = set().union(*(referenced_names(ast.parse(text)) for text in readers),
                       *map(referenced_names, trees), *map(string_names, trees),
                       code_names(docs))
    return {name: sorted(dead) for name, text in sources.items()
            if (dead := public_definitions(ast.parse(text)) - refs)}


def test_every_public_name_is_referenced():
    root = PACKAGE.parents[1]
    readers, tracers = ([path.read_text() for path in sorted((root / folder).rglob("*.py"))]
                        for folder in ("src", "bench"))
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    docs = (root / "README.md").read_text()
    assert dead_publics(sources, readers, tracers, docs) == {}


def test_the_guard_sees_dead_public_names():
    sources = {"a.py": ("def used(): pass\ndef gone(): pass\nclass Alias: pass\n"
                        "def traced(): pass\ndef told(): pass\ndef tested(): pass\n"
                        "def called(): pass\ndef run(): pass\n")}
    readers = [*sources.values(), "from a import used\nprint('traced', 'tested')\n"]
    tracers = ["TARGETS = [('a', 'traced')]\n"]
    docs = "`a.told(x)` and tested, `called()`, `sigmaflow run --file a.py`"
    dead = {"a.py": ["Alias", "gone", "run", "tested"]}
    assert dead_publics(sources, readers, tracers, docs) == dead


def member_definitions(tree: ast.Module) -> set:
    """The methods and annotated (dataclass) fields of the module-level
    classes, dunders aside."""
    names = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def string_names(tree: ast.Module) -> set:
    """The parts of every string constant that is a dotted name, such as
    ``"ricci"`` or ``"TaylorContext.mul"``."""
    parts = (c.value.split(".") for c in ast.walk(tree)
             if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return {p for ps in parts if all(p.isidentifier() for p in ps) for p in ps}


def dead_members(sources: dict, readers: list) -> dict:
    """The members of the classes of ``sources`` that no tree of ``readers``
    references."""
    trees = [ast.parse(text) for text in readers]
    refs = set().union(*map(referenced_names, trees), *map(string_names, trees))
    return {name: sorted(dead) for name, text in sources.items()
            if (dead := member_definitions(ast.parse(text)) - refs)}


def test_every_method_and_field_is_referenced():
    root = PACKAGE.parents[1]
    readers = [path.read_text() for folder in ("src", "tests", "bench")
               for path in sorted((root / folder).rglob("*.py"))]
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_members(sources, readers) == {}


def test_the_guard_sees_dead_methods_and_fields():
    sources = {"a.py": ("@dataclass\nclass R:\n    kept: int\n    read: int\n"
                        "    gone: int\n    def __len__(self): pass\n"
                        "    def used(self): pass\n    def take(self): pass\n")}
    readers = [*sources.values(), "r.used()\nprint(getattr(r, 'kept'), r.read)\n"]
    assert dead_members(sources, readers) == {"a.py": ["gone", "take"]}


def test_the_package_and_a_flow_run_import_no_scipy():
    # the package depends on numpy alone: scipy would add to every command's
    # import time and memory, so the flow forms its exponentials with numpy
    code = ("import sys, numpy as np, sigmaflow\n"
            "from sigmaflow.flow import FlowState, run\n"
            "_, diag = run(FlowState(4, 2, 1, 0.05 * np.cos(np.linspace(0, np.pi, 33))), 0.01)\n"
            "assert diag.aborted is None and len(diag.steps) > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
