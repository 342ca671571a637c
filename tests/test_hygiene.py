"""Source hygiene: every name a module of the package imports is read in
it, and every module-level function and class is used by the package.

An edit that deletes the last use of an import leaves the import behind;
this check names each such leftover. `__init__.py` is skipped, since it
imports names to re-export them. A function or class that only tests
call is an API the package does not need; one that `__init__.py`
re-exports is public and passes.
"""

import ast
import collections
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sllresub"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loads(tree):
    """Each name the tree loads, once per load, string annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield from _loads(ast.parse(ann.value, mode="eval"))


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"netlist.py", "windows.py", "equiv.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = set(_loads(tree))
    unused = ["%s (line %d)" % (name, line) for name, line in _imported_names(tree)
              if name not in read]
    assert not unused, "%s imports names it never reads: %s" % (path.name, ", ".join(unused))


def _uses(tree):
    """Each name and attribute the tree loads, once per load."""
    uses = collections.Counter(_loads(tree))
    uses.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))
    return uses


def test_every_function_and_class_is_used_by_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in PACKAGE.glob("*.py")}
    uses = sum((_uses(tree) for tree in trees.values()), collections.Counter())
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for name in sorted(trees):
        for node in trees[name].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in exported
                    # loads inside its own body (recursion) do not count
                    and uses[node.name] <= _uses(node)[node.name]):
                unused.append("%s:%d %s" % (name, node.lineno, node.name))
    assert not unused, "defined but never used by the package: %s" % ", ".join(unused)
