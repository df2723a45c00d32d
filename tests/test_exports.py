import ast
import importlib
import pathlib

import pytest

import fpt

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fpt").glob("*.py"))
CALLER_FILES = sorted(
    [p for p in SOURCES if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "perfbench").glob("*.py")))


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


EXPORTING = [p.stem for p in SOURCES if _exports(ast.parse(p.read_text()))]


@pytest.mark.parametrize("name", EXPORTING)
def test_module_exports_reach_the_package(name):
    """Every public name of a module is importable from fpt itself."""
    module = importlib.import_module(f"fpt.{name}")
    missing = [n for n in module.__all__ if getattr(fpt, n, None) is not getattr(module, n)]
    assert not missing


@pytest.mark.parametrize("stem", [p.stem for p in SOURCES if p.stem != "__init__"])
def test_no_package_name_shadows_a_module(stem):
    """fpt.<stem> is the module itself: no function or class exported to
    the package under a module's name hides that module."""
    module = importlib.import_module(f"fpt.{stem}")
    assert getattr(fpt, stem) is module


# the paper's closed-form OU mean asymptotics: documented in the README and
# pinned against quadrature by their tests; a CLI column for them would be
# a new feature
UNCALLED_KEEP = {"ou_mean_regime"}


def _references(tree, attributes_only=False):
    """(name, enclosing def/class names) for every Name and Attribute, or
    for every Attribute alone."""
    refs = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and not attributes_only:
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return refs


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


# no reader yet: the health fields of a result include the calibration's
# rho sensitivity, which the planned in-library trace is to report, and
# calibrate_rho computes it for its warning anyway
UNREAD_KEEP = {"DensityModel.rho_sensitivity"}


def _members(cls):
    """The annotated fields and public methods and properties of a class."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")):
            yield node.name


def test_every_result_member_has_a_reader():
    """Each field, method and property of a public class of the library is
    read, as an attribute of that name, by the library, the scripts or the
    benchmark somewhere outside its own def; tests do not count as readers.

    The match is by name alone, so a read of the same name on another
    object counts too: `args.seed` in the CLI would hide an unread
    `McResult.seed`, and `model.y0` an unread `CumulantSet.y0` or
    `.y_plus`.  Those three were checked by hand and deleted; a new field
    whose name is read elsewhere needs the same look."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLER_FILES}
    reads = {p: _references(t, attributes_only=True) for p, t in trees.items()}
    unread = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in _members(cls):
                read = any(attr == member
                           and not (where == path and {cls.name, member} <= enclosing)
                           for where, found in reads.items()
                           for attr, enclosing in found)
                if not read and f"{cls.name}.{member}" not in UNREAD_KEEP:
                    unread.append(f"{cls.name}.{member}")
    assert not unread


# the Dirichlet truncation of the PDE oracle: its domain-doubling test
# moves it, and the scaling-bound InputError tells the user to move it
UNPASSED_KEEP = {"solve_pde.y_min"}


def _calls(tree):
    """(function name, positional args, keywords, enclosing def/class
    names) for every call.  `from ... import f as g` aliases are resolved,
    and the benchmark's `rec.call(span, f, *args, **kw)` counts as a call
    of f."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}

    def name_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id, node.id)
        return node.attr if isinstance(node, ast.Attribute) else None

    calls = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            callee, args = name_of(node.func), node.args
            if (isinstance(node.func, ast.Attribute) and node.func.attr == "call"
                    and len(args) >= 2):
                callee, args = name_of(args[1]), args[2:]
            calls.append((callee, args, node.keywords, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return calls


def _passed(fn, args, keywords):
    """The parameters of def `fn` that a call with these positional args
    and keywords passes.  A `*` spread counts as passing every positional
    parameter from its place on, and a `**` spread every parameter."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    passed = set()
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred):
            passed.update(positional[i:])
            break
        passed.update(positional[i:i + 1])
    for kw in keywords:
        if kw.arg is None:
            passed.update(positional + [a.arg for a in fn.args.kwonlyargs])
        else:
            passed.add(kw.arg)
    return passed


def _defaulted(fn):
    """The parameters of def `fn` that have a default."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return (positional[len(positional) - len(fn.args.defaults):]
            + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def test_every_public_parameter_has_a_caller():
    """Each parameter with a default of a function in a module's __all__ is
    passed, by position or by keyword, in some call by the library, the
    scripts or the benchmark outside the function's own def; tests do not
    count as callers.  Calls are matched by the function's name."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in CALLER_FILES}
    calls = {p: _calls(t) for p, t in trees.items()}
    unpassed = []
    for path, tree in trees.items():
        exports = set(_exports(tree)) - UNCALLED_KEEP
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in exports:
                continue
            passed = set()
            for where, found in calls.items():
                for callee, args, keywords, enclosing in found:
                    if callee == fn.name and not (where == path and fn.name in enclosing):
                        passed |= _passed(fn, args, keywords)
            unpassed += [f"{fn.name}.{p}" for p in _defaulted(fn)
                         if p not in passed and f"{fn.name}.{p}" not in UNPASSED_KEEP]
    assert not unpassed
