"""Start-up guard: what importing the command line loads.

Every relbell command runs in a process of its own, so what ``import
relbell.cli`` loads is paid by every command.  It must not load dataclasses
or json, which no default (CSV) command uses, nor numpy.random, which only
the sample and verify handlers need and import themselves.
"""

import ast
from pathlib import Path

from helpers import run_python

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "relbell").glob("*.py"))
#: Modules that importing numpy and relbell.cli must leave unloaded.
NOT_AT_START_UP = ("dataclasses", "json", "numpy.random")


def test_importing_the_command_line_skips_unused_modules():
    code = ("import sys, numpy, relbell.cli\n"
            f"print(*[name for name in {NOT_AT_START_UP!r} if name in sys.modules])\n")
    child = run_python("-c", code)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().split() == []


def _imported_modules(path: Path) -> set[str]:
    """The top-level modules that path imports, anywhere in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module and not node.level]
    return {name.split(".")[0] for name in names}


def test_no_package_module_imports_dataclasses():
    # A dataclass generates and compiles its methods each time its module is
    # imported; the package's records are NamedTuples and errors.Frozen
    # subclasses instead.
    assert [path.name for path in PACKAGE if "dataclasses" in _imported_modules(path)] == []
