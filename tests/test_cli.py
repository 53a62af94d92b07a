"""End-to-end CLI tests: formats, determinism, exit codes."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

import relbell.bell
from relbell.cli import main
from relbell.errors import NoConvergence
from relbell.scenarios import epsilon2, epsilon3_com

ROOT8 = 2.0 * math.sqrt(2.0)


def _read(path):
    return path.read_bytes()


def _rows_from_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", "chsh-collinear", "--beta-min", "0",
                 "--beta-max", "1", "--beta-step", "0.25",
                 "--output", str(out), "--no-meta-time"])
    assert code == 0
    rows = _rows_from_csv(out)
    assert len(rows) == 5
    assert rows[0]["scenario"] == "chsh-collinear"
    assert float(rows[0]["closed_form"]) == pytest.approx(ROOT8, abs=1e-15)
    assert float(rows[0]["residual"]) < 1e-10
    for row in rows[:-1]:
        beta = float(row["beta"])
        assert float(row["closed_form"]) == pytest.approx(epsilon2(beta), abs=1e-15)
        assert abs(float(row["numeric_max"]) - epsilon2(beta)) < 1e-10
    # beta = 1: closed form only, numeric columns empty
    last = rows[-1]
    assert float(last["beta"]) == 1.0
    assert float(last["closed_form"]) == 2.0
    assert last["numeric_max"] == "" and last["state_expectation"] == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("beta,scenario,closed_form,numeric_max,"
                           "state_expectation,residual\n")
    assert "\r" not in text


def test_sweep_json_meta_and_nulls(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--scenario", "mermin-com", "--beta-min", "0",
                 "--beta-max", "1", "--beta-step", "0.5", "--format", "json",
                 "--output", str(out), "--no-meta-time"])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["meta"]["command"] == "sweep"
    assert payload["meta"]["seed"] == 0
    assert "generated_at" not in payload["meta"]
    rows = payload["rows"]
    assert rows[0]["closed_form"] == pytest.approx(4.0, abs=1e-12)
    assert rows[1]["closed_form"] == pytest.approx(epsilon3_com(0.5), abs=1e-15)
    assert rows[2]["numeric_max"] is None
    assert rows[2]["closed_form"] == pytest.approx(2.0, abs=1e-12)


def test_sweep_meta_time_present_by_default(tmp_path):
    out = tmp_path / "sweep.json"
    main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5",
          "--format", "json", "--output", str(out)])
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert "generated_at" in payload["meta"]


def test_sweep_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["sweep", "--scenario", "mermin-collinear", "--beta-min", "0",
            "--beta-max", "0.9", "--beta-step", "0.1", "--prime-swap",
            "--format", "json", "--no-meta-time"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert _read(first) == _read(second)


def test_sweep_argument_validation(tmp_path):
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-min", "0.5",
                 "--beta-max", "0.2"]) == 2
    assert main(["sweep", "--scenario", "chsh-collinear",
                 "--beta-step", "0"]) == 2
    assert main(["sweep", "--scenario", "chsh-collinear",
                 "--beta-step", "nan"]) == 2
    assert main(["sweep", "--scenario", "chsh-collinear",
                 "--beta-step", "inf"]) == 2
    assert main(["sweep", "--scenario", "chsh-collinear",
                 "--beta-step", "5e-324"]) == 2
    assert main(["sweep", "--scenario", "unknown"]) == 2


def test_eigensolver_failure_is_internal_error(monkeypatch, capsys):
    def no_convergence(matrix):
        raise NoConvergence("sweep budget exhausted")

    monkeypatch.setattr(relbell.bell, "hermitian_eigensystem", no_convergence)
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"]) == 4
    assert "sweep budget exhausted" in capsys.readouterr().err


def test_unwritable_output_is_io_error(tmp_path):
    code = main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5",
                 "--output", str(tmp_path / "missing-dir" / "out.csv")])
    assert code == 3


def test_verify_json(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--format", "json", "--output", str(out),
                 "--no-meta-time"])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    rows = payload["rows"]
    statuses = {row["check"]: row["status"] for row in rows}
    erratum_checks = {check for check, status in statuses.items()
                      if status == "ERRATUM"}
    assert erratum_checks == {
        "pair-correlator-z-term",
        "ghz-diagonal-element",
        "ghz-collinear-settings-expectation",
        "mermin-square-leg-placement",
        "com-primed-coefficient",
    }
    for row in rows:
        if row["status"] != "ERRATUM":
            assert row["status"] == "PASS"
            assert row["residual"] <= row["tolerance"]


def test_verify_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["verify", "--format", "json", "--seed", "5", "--no-meta-time"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert _read(first) == _read(second)


def test_verify_fails_at_absurd_tolerance(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--tolerance", "1e-18", "--output", str(out),
                 "--no-meta-time"])
    assert code == 1
    rows = _rows_from_csv(out)
    assert any(row["status"] == "FAIL" for row in rows)
    assert main(["verify", "--tolerance", "0"]) == 2
    assert main(["verify", "--tolerance", "nan"]) == 2
    assert main(["verify", "--tolerance", "inf"]) == 2


def test_optimize_chsh(tmp_path):
    out = tmp_path / "opt.json"
    code = main(["optimize", "--beta", "0", "--constraint", "free",
                 "--restarts", "2", "--grid-points", "8", "--seed", "3",
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
    assert row["mode"] == "chsh"
    assert abs(row["value"] - ROOT8) < 1e-5
    direction = np.array([row["a_x"], row["a_y"], row["a_z"]])
    assert abs(float(direction @ direction) - 1.0) < 1e-12


def test_optimize_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["optimize", "--beta", "0.5", "--constraint", "xy", "--restarts",
            "2", "--grid-points", "8", "--seed", "11", "--no-meta-time"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert _read(first) == _read(second)


def test_optimize_three_qubit(tmp_path):
    out = tmp_path / "opt3.json"
    code = main(["optimize", "--three", "--beta", "0", "--constraint", "xy",
                 "--restarts", "2", "--grid-points", "8", "--seed", "1",
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
    assert row["mode"] == "mermin"
    assert abs(row["value"] - 4.0) < 1e-5
    assert "c_prime_z" in row


def test_optimize_usage_errors():
    assert main(["optimize", "--boost", "com"]) == 2
    assert main(["optimize", "--beta", "1.0"]) == 2
    assert main(["optimize", "--restarts", "0"]) == 2


def test_sample_csv(tmp_path):
    out = tmp_path / "sample.csv"
    code = main(["sample", "--scenario", "chsh-collinear", "--beta", "0",
                 "--shots", "2000", "--seed", "6", "--output", str(out),
                 "--no-meta-time"])
    assert code == 0
    rows = _rows_from_csv(out)
    assert len(rows) == 5
    assert rows[-1]["setting"] == "bell_estimate"
    estimate = float(rows[-1]["correlator"])
    standard_error = float(rows[-1]["standard_error"])
    assert abs(estimate - ROOT8) < 5.0 * standard_error
    assert float(rows[-1]["exact"]) == pytest.approx(ROOT8, abs=1e-12)
    for row in rows[:-1]:
        counts = [int(row[key]) for key in row if key.startswith("n_")]
        assert sum(counts) == 2000


def test_sample_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["sample", "--scenario", "mermin-collinear", "--prime-swap",
            "--beta", "0.4", "--shots", "3000", "--seed", "12",
            "--no-meta-time"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert _read(first) == _read(second)
    # x/y settings make every per-setting outcome product deterministic
    rows = _rows_from_csv(first)
    assert float(rows[-1]["correlator"]) == -4.0
    assert float(rows[-1]["standard_error"]) == 0.0


def test_sweep_row_cap():
    assert main(["sweep", "--scenario", "chsh-collinear",
                 "--beta-step", "1e-7"]) == 2


def test_sample_usage_errors():
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "0"]) == 2
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10",
                 "--beta", "1.0"]) == 2
    assert main(["sample", "--shots", "10", "--seed", "-1"]) == 2


def test_sample_adjacent_seeds_above_2_63(tmp_path):
    counts = []
    for seed in (2 ** 63, 2 ** 63 + 1):
        out = tmp_path / f"{seed}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--scenario", "chsh-collinear", "--shots", "1000",
                         "--seed", str(seed), "--output", str(out),
                         "--no-meta-time"]) == 0
        counts.append([[row[key] for key in row if key.startswith("n_")]
                       for row in _rows_from_csv(out)])
    assert counts[0] != counts[1]


def test_sample_with_settings_file(tmp_path):
    # The pair correlator at rest is cos(phi_a + phi_b), so these angles
    # (0, pi/2 and -pi/4, pi/4) attain the quantum maximum.
    config = {
        "a": [1.0, 0.0, 0.0],
        "a_prime": [0.0, 1.0, 0.0],
        "b": [1.0, -1.0, 0.0],
        "b_prime": [1.0, 1.0, 0.0],
        "boosts": [
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
        ],
    }
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "sample.json"
    code = main(["sample", "--scenario", "chsh-collinear", "--shots", "4000",
                 "--seed", "2", "--settings", str(settings_path),
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    # standard rest-frame optimum reached with these directions
    assert rows[-1]["exact"] == pytest.approx(ROOT8, abs=1e-12)


def test_sample_with_bad_settings_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": [1, 0, 0]}), encoding="utf-8")
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10",
                 "--settings", str(bad)]) == 2
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10",
                 "--settings", str(malformed)]) == 2
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10",
                 "--settings", str(tmp_path / "missing.json")]) == 2


def test_sweep_with_settings_file(tmp_path):
    config = {
        "a": [1.0, -1.0, 0.0],
        "a_prime": [-1.0, -1.0, 0.0],
        "b": [0.0, 1.0, 0.0],
        "b_prime": [1.0, 0.0, 0.0],
        "boosts": [
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
        ],
    }
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--scenario", "chsh-collinear", "--beta-min", "0",
                 "--beta-max", "0.6", "--beta-step", "0.3",
                 "--settings", str(settings_path), "--format", "json",
                 "--output", str(out), "--no-meta-time"])
    assert code == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    # the file holds the canonical directions, so the curve is reproduced
    for row in rows:
        assert row["closed_form"] == pytest.approx(epsilon2(row["beta"]),
                                                   abs=1e-12)
        assert abs(row["closed_form"] - row["numeric_max"]) < 1e-10


@pytest.mark.parametrize("command", [
    ["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"],
    ["sample", "--scenario", "chsh-collinear", "--shots", "10"],
])
@pytest.mark.parametrize("field", ["direction", "boost"])
def test_non_finite_settings_file_is_usage_error(tmp_path, capsys, command,
                                                 field):
    config = {
        "a": [1.0, 0.0, 0.0],
        "a_prime": [0.0, 1.0, 0.0],
        "b": [1.0, -1.0, 0.0],
        "b_prime": [1.0, 1.0, 0.0],
        "boosts": [
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
        ],
    }
    if field == "direction":
        config["a"] = [math.nan, 0.0, 0.0]
    else:
        config["boosts"][1]["direction"] = [math.inf, 0.0, 0.0]
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(command + ["--settings", str(settings_path)]) == 2
    assert "invalid settings file" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main([]) == 2
