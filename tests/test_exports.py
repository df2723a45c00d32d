import ast
import importlib
import pathlib

import pytest

import fpt

MODULES = ["forcefield", "oupcf", "hseries", "decay", "cumulants",
           "density", "oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    """Every public name of a module is importable from fpt itself."""
    module = importlib.import_module(f"fpt.{name}")
    missing = [n for n in module.__all__ if getattr(fpt, n, None) is not getattr(module, n)]
    assert not missing


ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_FILES = sorted(
    [p for p in (ROOT / "src" / "fpt").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py")))
# the paper's closed-form OU mean asymptotics: documented in the README and
# pinned against quadrature by their tests; a CLI column for them would be
# a new feature
UNCALLED_KEEP = {"ou_mean_regime"}


def _references(tree):
    """(name, enclosing def/class names) for every Name and Attribute."""
    refs = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_every_export_has_a_caller():
    """Each name in a module's __all__ is used by the library, the scripts
    or the benchmark somewhere outside its own def or class; tests do not
    count as callers."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLER_FILES}
    refs = {p: _references(t) for p, t in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        for name in _exports(tree):
            used = any(ref == name and not (where == path and name in enclosing)
                       for where, found in refs.items()
                       for ref, enclosing in found)
            if not used and name not in UNCALLED_KEEP:
                uncalled.append(f"{path.stem}.{name}")
    assert not uncalled
