"""The benchmark harness reaches into relbell by name: every name that
perfbench/layers.py imports from relbell, and every (module, function) pair
in its TRACED table, must resolve.  The file is parsed, never run."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
