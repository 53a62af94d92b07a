"""The benchmark harness reaches into relbell by name: every name that
perfbench/layers.py imports from relbell, and every (module, function) pair
in its TRACED table, must resolve.  The file is parsed, never run.  The
names that only the harness still uses have no caller in the package, so
deleting them once the harness drops them touches no program code."""

import ast
import importlib
from pathlib import Path

import relbell

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
PACKAGE = Path(relbell.__file__).resolve().parent
#: Names kept for the harness alone.
HARNESS_ONLY = {"kron3", "chsh_operator", "mermin_operator", "ChshSettings",
                "MerminSettings", "mermin_terms", "scenario_curve", "Scenario"}


def _references():
    """(module, name) pairs from layers.py's relbell imports, and from TRACED."""
    imported, traced = set(), []
    for node in ast.walk(ast.parse(LAYERS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relbell":
            imported.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            traced = [(f"relbell.{module}", name)
                      for module, name in ast.literal_eval(node.value)]
    return sorted(imported), traced


def _resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # ``from relbell import cli`` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_names_resolve():
    imported, traced = _references()
    assert imported and traced
    missing = [pair for pair in imported + traced if not _resolves(*pair)]
    assert missing == []


def _calls(tree, names):
    """(line, name) of each call of one of names, by plain or attribute
    name, outside the definition of that name."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names and name not in enclosing:
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_package_does_not_call_harness_only_names():
    calls = {path.name: _calls(ast.parse(path.read_text(encoding="utf-8")), HARNESS_ONLY)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {}
