"""Every name the package and the tests import is used where it is imported,
and every private name the package defines is read in its own module.

A name that no code of its module reads is dead weight, and one left behind
by a deletion hides that the deletion is complete.  The checks read the
source with ast and resolve each read as Python does: a read finds the
binding of its own scope or of the nearest enclosing function, and the
module's otherwise, so a parameter or local that shares a module-level
name does not read it, and an import made in a function must be read in
that function.  An attribute chain's root is a read; an assignment's own
target is not.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "relbell").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


#: The nodes that open a scope of their own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parts(scope) -> tuple[list, list]:
    """The children of a scope node that the enclosing scope evaluates, and
    those the scope evaluates itself.  A comprehension's first iterable is
    evaluated outside it; a function's decorators, defaults and annotations
    are too."""
    if isinstance(scope, ast.Module):
        return [], scope.body
    if isinstance(scope, ast.ClassDef):
        return [*scope.decorator_list, *scope.bases, *scope.keywords], scope.body
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        first, *rest = scope.generators
        elements = [getattr(scope, field) for field in ("elt", "key", "value")
                    if hasattr(scope, field)]
        return [first.iter], [*elements, first.target, *first.ifs, *rest]
    args = scope.args
    params = [arg for arg in (*args.posonlyargs, *args.args, args.vararg,
                              *args.kwonlyargs, args.kwarg) if arg]
    outer = [*args.defaults, *args.kw_defaults, *(arg.annotation for arg in params)]
    if isinstance(scope, ast.Lambda):
        return outer, [*params, scope.body]
    return [*scope.decorator_list, *outer, scope.returns], [*params, *scope.body]


def _own(nodes):
    """The nodes under nodes that their scope evaluates, in source order: a
    nested scope yields itself and its outer parts, not its inner ones."""
    for node in nodes:
        if node is None:
            continue
        yield node
        if isinstance(node, SCOPES):
            yield from _own(_parts(node)[0])
        elif not isinstance(node, ast.arg):  # an annotation is an outer part
            yield from _own(ast.iter_child_nodes(node))


def _binds(node) -> list[str]:
    """The names node binds in its scope; the __future__ features are not
    names."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.ExceptHandler) and node.name:
        return [node.name]
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def scopes(tree):
    """(scope, its own nodes, where) for the module and every nested scope,
    outermost first: where maps each name bound in the scope or a function
    enclosing it to the scope whose binding a read there finds.  A class
    body's names are not seen from the scopes nested in it."""
    def visit(scope, enclosing):
        own = list(_own(_parts(scope)[1]))
        where = {**enclosing, **{name: scope for node in own for name in _binds(node)}}
        for node in own:
            if isinstance(node, ast.Global):
                where.update(dict.fromkeys(node.names, tree))
            elif isinstance(node, ast.Nonlocal):
                where.update({name: enclosing[name] for name in node.names})
        yield scope, own, where
        for node in own:
            if isinstance(node, SCOPES):
                yield from visit(node, enclosing if isinstance(scope, ast.ClassDef) else where)
    return visit(tree, {})


def reads(tree, found) -> set:
    """(scope, name) for each name read in the scopes found, scope being the
    one whose binding the read finds: the module for a name that no
    enclosing function binds.  An attribute chain's root is a read; an
    assignment's own target is not."""
    return {(where.get(node.id, tree), node.id) for _, own, where in found for node in own
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads in the scope that imports
    them, or one nested in it; the module's first, in import order, then
    each function's."""
    tree = ast.parse(source)
    found = list(scopes(tree))
    read = reads(tree, found)
    return [name for scope, own, _ in found for node in own
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _binds(node) if (scope, name) not in read]


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os.path\nfrom a import b, c as d\n"
              "from __future__ import annotations\nprint(os.path.sep, d)\n")
    assert unused_imports(source) == ["math", "b"]


def test_the_check_sees_an_unused_import_in_a_function():
    # A function's import is read only where that function can see it: a
    # read of the same name in another function, or at module level, finds
    # another binding.
    source = ("import csv\n"
              "def dumps(x):\n    import json\n    return repr(x)\n"
              "def loads(text):\n    import json\n    return json.loads(text)\n"
              "def nested():\n    import io\n    return lambda: io.StringIO()\n"
              "def shadowed(csv):\n    import math\n    return csv\n"
              "class Reader:\n    import re\n    def read(self):\n        return re\n"
              "print(json, math)\n")
    assert unused_imports(source) == ["csv", "json", "math", "re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """The module-level private functions, classes and constants (one leading
    underscore) that source defines and never reads, in definition order; a
    read of a parameter or local of the same name does not count."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    read = reads(tree, scopes(tree))
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and (tree, name) not in read]


def test_the_check_sees_an_unread_private_name():
    source = ("_LIMIT = 3\n_used, public = 1, 2\n__all__ = []\n"
              "def _dead():\n    return _used\n"
              "class _Gone:\n    pass\n"
              "def _live(_arg):\n    return public\n"
              "def _shadow(_LIMIT):\n    _dead = [_Gone for _Gone in _LIMIT]\n"
              "    return _dead\n"
              "print(_live(0), _shadow(()))\n")
    assert unread_private_names(source) == ["_LIMIT", "_dead", "_Gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
