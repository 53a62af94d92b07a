"""Golden-file guard: CLI output must stay byte-identical.

Each case runs ``relbell.cli.main`` in this process with ``--no-meta-time``
and compares its stdout, its stderr and its exit code with the files under
``tests/golden/``; one case of each command also runs as
``python -m relbell.cli`` in a child process, and one again at numpy's
baseline SIMD level.  The corpus pins the exact bits of the current numerics
for this numpy build, so a refactor that claims unchanged behaviour is
checked byte for byte.

To write the corpus afresh, for a change that alters output on purpose::

    PYTHONPATH=src python tests/test_golden.py

and to audit such a change, with OLD_DIR a copy of the corpus before it::

    PYTHONPATH=src python tests/test_golden.py --report OLD_DIR

which prints, per file that differs, its moved numeric cells, the largest
move (absolute, and in units of eps * max(|old|, 1)), its changed text
cells and its changed meta keys.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

from helpers import run_python
from relbell.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# Every case runs from the repository root, and the settings files are named
# relative to it, so the paths that sample records in its meta are the same
# in every checkout.
ROOT = GOLDEN.parents[1]
SETTINGS = {name: f"tests/golden/{name}.json" for name in (
    "settings2_inplane", "settings2_free", "settings3_inplane", "settings3_free")}
SCENARIOS = ("chsh-collinear", "mermin-collinear", "mermin-com")


def _cases() -> dict[str, list[str]]:
    """Case name -> argv, before the format and --no-meta-time are added."""
    cases = {"verify": ["verify"]}
    # Other seeds, the largest included, so every randomized check's draws
    # are pinned beyond the default stream.
    for name, seed in (("verify-seed3", 3), ("verify-seed17", 17),
                       ("verify-seed-max", 2 ** 64 - 1)):
        cases[name] = ["verify", "--seed", str(seed)]
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
    # Sweeps over several blocks of grid rows, some starting above 0 or
    # ending below 1, so block edges fall inside the grid.
    cases["sweep-blocks-mermin-com-swap"] = [
        "sweep", "--scenario", "mermin-com", "--prime-swap", "--beta-step", "0.003"]
    cases["sweep-blocks-chsh-collinear-interior"] = [
        "sweep", "--scenario", "chsh-collinear", "--beta-min", "0.05",
        "--beta-max", "0.95", "--beta-step", "0.007"]
    cases["sweep-blocks-settings3_free"] = [
        "sweep", "--scenario", "mermin-com", "--beta-min", "0.2",
        "--beta-step", "0.004", "--settings", SETTINGS["settings3_free"]]
    cases["sweep-blocks-settings2_inplane-swap"] = [
        "sweep", "--scenario", "chsh-collinear", "--beta-max", "0.9",
        "--beta-step", "0.006", "--prime-swap", "--settings", SETTINGS["settings2_inplane"]]
    # Grids whose only block, or whose last block, holds nothing but
    # beta = 1, where no operator is built: 65 rows at step 1/64 leave the
    # 65th row alone in the second block.
    cases["sweep-beta1-mermin-com"] = ["sweep", "--scenario", "mermin-com",
                                       "--beta-min", "1"]
    cases["sweep-beta1-settings2_free"] = [
        "sweep", "--scenario", "chsh-collinear", "--beta-min", "1",
        "--settings", SETTINGS["settings2_free"]]
    cases["sweep-blocks-chsh-collinear-last-row"] = [
        "sweep", "--scenario", "chsh-collinear", "--beta-step", "0.015625"]
    # More shots, at other speeds and seeds; the swapped collinear Mermin
    # scenario has zero-probability outcomes.
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
    small = ["--restarts", "2", "--seed", "5"]
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
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
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


@pytest.mark.parametrize("name", ["sweep-mermin-com.csv", "verify.csv",
                                  "optimize-2-xy.csv", "sample-chsh-collinear.csv"])
def test_golden_entry_point(name):
    # The command as a user runs it, in a process of its own: module imports,
    # stdout encoding and the exit status of the real entry point.
    child = run_python("-m", "relbell.cli", *CASES[name])
    assert child.returncode == _expected_codes()[name]
    assert child.stdout == (GOLDEN / name).read_bytes()
    assert child.stderr == b""


#: numpy's baseline SIMD level on x86-64, X86_V2: no AVX2 and no fused
#: multiply-add.  numpy skips a name the CPU lacks with an ImportWarning,
#: which the default warning filters hide, so this runs on any machine.
BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


@pytest.mark.parametrize("name", ["verify.csv", "sweep-settings3_free.csv",
                                  "sample-settings3_inplane.csv", "optimize-3-com.csv"])
def test_golden_at_numpy_baseline_simd(name):
    # The corpus is written at whatever SIMD level numpy picks for the CPU;
    # complex arithmetic in real ufuncs gives the same bytes without FMA.
    child = run_python("-m", "relbell.cli", *CASES[name], env=BASELINE_SIMD)
    assert child.returncode == _expected_codes()[name]
    assert child.stdout == (GOLDEN / name).read_bytes()


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


def _cells(path: Path) -> tuple[dict, dict]:
    """The (row, column) -> value cells of a golden file, and its meta: a
    CSV's rows, a JSON file's rows and meta (a JSON file without rows is one
    row), any other file one "text" cell."""
    text = path.read_text(encoding="utf-8")
    rows, meta = [{"text": text}], {}
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    elif path.suffix == ".json":
        doc = json.loads(text)
        rows, meta = (doc["rows"], doc["meta"]) if "rows" in doc else ([doc], {})
    return {(i, key): value for i, row in enumerate(rows) for key, value in row.items()}, meta


def _number(value) -> float | None:
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _report(old_dir: Path) -> None:
    """Print, per file that differs between old_dir and the corpus, what
    moved; then one total line."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in GOLDEN.iterdir()})
    changed = moved_total = 0
    for name in names:
        old_path, new_path = old_dir / name, GOLDEN / name
        if not (old_path.exists() and new_path.exists()):
            print(f"{name}: {'added' if new_path.exists() else 'removed'}")
            changed += 1
            continue
        if old_path.read_bytes() == new_path.read_bytes():
            continue
        changed += 1
        (old_cells, old_meta), (new_cells, new_meta) = _cells(old_path), _cells(new_path)
        moves, texts = {}, []
        for cell in sorted(old_cells.keys() | new_cells.keys(), key=str):
            old, new = old_cells.get(cell), new_cells.get(cell)
            if old == new:
                continue
            x, y = _number(old), _number(new)
            if x is None or y is None:
                texts.append(f"row {cell[0]} {cell[1]}: {old!r} -> {new!r}")
            else:
                moves[cell] = (abs(y - x), abs(y - x) / (sys.float_info.epsilon * max(abs(x), 1.0)))
        meta = sorted(k for k in old_meta.keys() | new_meta.keys()
                      if old_meta.get(k) != new_meta.get(k))
        line = f"{name}: {len(moves)} cells moved"
        if moves:
            columns = sorted({column for _, column in moves})
            (row, column), (largest, eps) = max(moves.items(), key=lambda item: item[1][0])
            line += (f" in {', '.join(columns)}; largest {largest:.2g} = {eps:.3g} eps"
                     f" (row {row} {column})")
        print(line + f"; meta keys: {', '.join(meta) or 'none'}")
        for text in texts:
            print(f"  text {text}")
        moved_total += len(moves)
    print(f"{changed} of {len(names)} files changed, {moved_total} numeric cells moved")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden corpus afresh, "
                                     "or report how it differs from an old copy.")
    parser.add_argument("--report", metavar="OLD_DIR", type=Path)
    args = parser.parse_args()
    if args.report is None:
        _write_corpus()
    else:
        _report(args.report)
    sys.exit(0)
