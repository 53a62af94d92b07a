"""Every name the package and the tests import is used where it is imported.

A name that no code of its module reads is dead weight, and one left behind
by a deletion hides that the deletion is complete.  The check reads the
source with ast: a name counts as used when it appears as a bare name
anywhere in the module, an attribute chain's root included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "relbell").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
