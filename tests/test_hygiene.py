"""Source hygiene: every name a module of the package imports is read in
it, every local a function binds is read, and every module-level
function and class is used by the package.

An edit that deletes the last use of an import or a local leaves it
behind; these checks name each such leftover. `__init__.py` is skipped,
since it imports names to re-export them. A function or class that only
tests call is an API the package does not need, and a re-export from
`__init__.py` is no use: it must be used elsewhere in the package too.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function):
    """The nodes of `function`'s body outside the functions and classes
    nested in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(function):
    """(line, name) for each local `function` binds but never reads.

    Parameters and names declared `global` or `nonlocal` are not checked,
    and neither are names that start with an underscore. A read in a
    nested function counts.
    """
    own = list(_own_nodes(function))
    declared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                for name in node.names}
    bound = {}
    for node in own:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, node.lineno)
    read = {node.id for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in declared and not name.startswith("_"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_local_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = ["%s in %s (line %d)" % (name, node.name, line) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for line, name in _unread_locals(node)]
    assert not unread, "%s binds locals it never reads: %s" % (path.name, ", ".join(unread))


def test_unread_local_check_finds_a_leftover():
    tree = ast.parse("def f(a):\n    x, _y = a\n    z = 1\n"
                     "    def g():\n        return z\n    return g\n")
    assert _unread_locals(tree.body[0]) == [(2, "x")]


def _uses(tree):
    """Each name and attribute the tree loads, once per load."""
    uses = collections.Counter(_loads(tree))
    uses.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store))
    return uses


def test_every_function_and_class_is_used_by_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in PACKAGE.glob("*.py")}
    # a re-export in `__init__.py` is an import, not a load, so it does not count
    uses = sum((_uses(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for name in sorted(trees):
        for node in trees[name].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    # loads inside its own body (recursion) do not count
                    and uses[node.name] <= _uses(node)[node.name]):
                unused.append("%s:%d %s" % (name, node.lineno, node.name))
    assert not unused, "defined but never used by the package: %s" % ", ".join(unused)
