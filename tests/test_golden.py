"""Golden-file guard: CLI output must stay byte-identical.

Each case runs ``relbell.cli.main`` in this process with ``--no-meta-time``
and compares its stdout, its stderr and its exit code with the files under
``tests/golden/``.  The corpus pins the exact bits of the current numerics on
this platform and numpy build, so a refactor that claims unchanged behaviour
is checked byte for byte.

To write the corpus afresh, for a change that alters output on purpose::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from relbell.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SETTINGS = {name: str(GOLDEN / f"{name}.json") for name in (
    "settings2_inplane", "settings2_free", "settings3_inplane", "settings3_free")}
SCENARIOS = ("chsh-collinear", "mermin-collinear", "mermin-com")


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, before the format and --no-meta-time are added."""
    cases = {"verify": ["verify"]}
    for scenario in SCENARIOS:
        for swap in ([], ["--prime-swap"]):
            tag = f"{scenario}{'-swap' if swap else ''}"
            cases[f"sweep-{tag}"] = ["sweep", "--scenario", scenario,
                                     "--beta-step", "0.02", *swap]
            cases[f"sample-{tag}"] = ["sample", "--scenario", scenario,
                                      "--beta", "0.5", "--shots", "10000",
                                      "--seed", "9", *swap]
    for name, path in SETTINGS.items():
        scenario = "chsh-collinear" if name.startswith("settings2") else "mermin-com"
        cases[f"sweep-{name}"] = ["sweep", "--scenario", scenario,
                                  "--beta-step", "0.1", "--settings", path]
        cases[f"sample-{name}"] = ["sample", "--scenario", scenario,
                                   "--shots", "10000", "--seed", "4",
                                   "--prime-swap", "--settings", path]
    # More than one Philox shot block; the swapped collinear Mermin scenario
    # has zero-probability outcomes.
    cases["sample-multiblock-chsh-collinear"] = [
        "sample", "--scenario", "chsh-collinear", "--beta", "0.9",
        "--shots", "65537", "--seed", "7"]
    cases["sample-multiblock-mermin-com"] = [
        "sample", "--scenario", "mermin-com", "--beta", "0.37",
        "--shots", "200003", "--seed", "12"]
    cases["sample-multiblock-mermin-collinear"] = [
        "sample", "--scenario", "mermin-collinear", "--shots", "131073", "--seed", "3"]
    cases["sample-multiblock-mermin-collinear-swap"] = [
        "sample", "--scenario", "mermin-collinear", "--prime-swap",
        "--shots", "131073", "--seed", "3"]
    small = ["--restarts", "2", "--grid-points", "8", "--seed", "5"]
    cases["optimize-2-xy"] = ["optimize", "--beta", "0.5", "--constraint", "xy", *small]
    cases["optimize-2-free"] = ["optimize", "--beta", "0.5", "--constraint", "free", *small]
    cases["optimize-2-state"] = ["optimize", "--beta", "0.3", "--objective", "state",
                                 *small]
    cases["optimize-3-collinear"] = ["optimize", "--three", "--beta", "0.6",
                                     "--constraint", "xy", *small]
    cases["optimize-3-com"] = ["optimize", "--three", "--beta", "0.6", "--boost", "com",
                               "--constraint", "free", *small]
    cases["optimize-3-state"] = ["optimize", "--three", "--beta", "0.4",
                                 "--objective", "state", *small]
    expanded = {f"{name}.{fmt}": argv + ["--format", fmt, "--no-meta-time"]
                for name, argv in cases.items() for fmt in ("csv", "json")}
    expanded["error-sweep-step.txt"] = ["sweep", "--scenario", "chsh-collinear",
                                        "--beta-step", "0"]
    expanded["error-optimize-com.txt"] = ["optimize", "--boost", "com"]
    expanded["error-sample-shots.txt"] = ["sample", "--shots", "0"]
    return expanded


CASES = _cases()


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, out, err = _run(CASES[name])
    assert code == _expected_codes()[name]
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
    err_path = GOLDEN / f"{name}.stderr"
    assert err.encode("utf-8") == (err_path.read_bytes() if err_path.exists() else b"")


def _write_corpus() -> None:
    codes = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        codes[name] = code
        (GOLDEN / name).write_bytes(out.encode("utf-8"))
        if err:
            (GOLDEN / f"{name}.stderr").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True)
                                            + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_corpus()
    sys.exit(0)
