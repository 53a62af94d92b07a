"""Every name the package and the tests import is used where it is imported,
and every private name the package defines is read in its own module.

A name that no code of its module reads is dead weight, and one left behind
by a deletion hides that the deletion is complete.  The checks read the
source with ast: a name counts as used when it appears as a bare name
anywhere in the module, an attribute chain's root included; an assignment's
own target does not read it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "relbell").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order; the
    __future__ features are not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = ("import math\nimport os.path\nfrom a import b, c as d\n"
              "from __future__ import annotations\nprint(os.path.sep, d)\n")
    assert unused_imports(source) == ["math", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source: str) -> list[str]:
    """The module-level private functions, classes and constants (one leading
    underscore) that source defines and never reads, in definition order."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_sees_an_unread_private_name():
    source = ("_LIMIT = 3\n_used, public = 1, 2\n__all__ = []\n"
              "def _dead():\n    return _used\n"
              "class _Gone:\n    pass\n"
              "def _live(_arg):\n    return public\n"
              "print(_live(0))\n")
    assert unread_private_names(source) == ["_LIMIT", "_dead", "_Gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []
