"""End-to-end CLI tests: formats, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from helpers import run_python
import relbell.bell
import relbell.cli
import relbell.observables
import relbell.sampling
import relbell.scenarios
from relbell.cli import MAX_SWEEP_ROWS, main
from relbell.errors import DegenerateObservable, DimensionMismatch, InvalidObservable, \
    MissingSetting, NoConvergence, NotHermitian
from relbell.scenarios import SCENARIO_KINDS, epsilon2, epsilon3_com

ROOT8 = 2.0 * math.sqrt(2.0)


def _read(path):
    return path.read_bytes()


def _rows_from_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


SETTINGS_COMMANDS = (
    ["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"],
    ["sample", "--scenario", "chsh-collinear", "--shots", "10"],
    ["sample", "--scenario", "chsh-collinear", "--shots", "10", "--beta", "0.3"],
)


def _pair_settings():
    return {
        "a": [1.0, 0.0, 0.0],
        "a_prime": [0.0, 1.0, 0.0],
        "b": [1.0, -1.0, 0.0],
        "b_prime": [1.0, 1.0, 0.0],
        "boosts": [
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
            {"direction": [1.0, 0.0, 0.0], "beta": 0.0},
        ],
    }


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
    # only verify gates on a tolerance
    assert main(["sweep", "--scenario", "chsh-collinear", "--tolerance", "1e-6"]) == 2


def test_eigensolver_failure_is_internal_error(monkeypatch, capsys):
    def no_convergence(matrix):
        raise NoConvergence("sweep budget exhausted")

    monkeypatch.setattr(relbell.bell, "hermitian_eigenvalues", no_convergence)
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"]) == 4
    assert "sweep budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize("error", [NotHermitian, DimensionMismatch],
                         ids=lambda error: error.__name__)
def test_non_hermitian_operator_is_internal_error(monkeypatch, capsys, error):
    message = f"{error.__name__} in the eigensolver"

    def fail(matrix):
        raise error(message)

    monkeypatch.setattr(relbell.bell, "hermitian_eigenvalues", fail)
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"]) == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_invalid_observable_is_internal_error(monkeypatch, capsys):
    def invalid(observable):
        raise InvalidObservable("observable spectrum is not {-1, +1}")

    monkeypatch.setattr(relbell.sampling, "_check_observable", invalid)
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10"]) == 4
    assert capsys.readouterr().err.startswith("internal error: observable spectrum")
    monkeypatch.undo()

    # The shot records are the command's own too.
    def missing(records, signs):
        raise MissingSetting("3 records for 4 setting combinations")

    monkeypatch.setattr(relbell.sampling, "estimate_bell", missing)
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10"]) == 4
    assert capsys.readouterr().err.startswith("internal error: 3 records for 4")


def test_degenerate_observable_stays_usage_error(monkeypatch, capsys):
    # The floor refuses a requested speed, not an internal invariant.
    def degenerate(along, beta):
        raise DegenerateObservable("normalization denominator at or below 1e-09")

    monkeypatch.setattr(relbell.observables, "boost_denominator_sq", degenerate)
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: normalization denominator")


@pytest.mark.parametrize("scenario", ["chsh-collinear", "mermin-com"])
def test_sweep_builds_operators_per_block(monkeypatch, scenario):
    # A sweep builds its effective directions, and from them its operators, a
    # block of rows at a time, solves each block's spectra in one stacked
    # eigensolve and takes its named peaks in one call; a per-row operator
    # build would call bell_operator once per row, and a per-row eigensolve
    # would call hermitian_eigenvalues once per row.  The beta = 1 row takes
    # its named peak alone.
    calls = Counter()

    def wrap(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("bell_operator", "hermitian_eigenvalues"):
        monkeypatch.setattr(relbell.bell, name, wrap(name, getattr(relbell.bell, name)))
    monkeypatch.setattr(relbell.scenarios, "effective_directions_grid", wrap(
        "effective_directions_grid", relbell.scenarios.effective_directions_grid))
    build_settings, peak = relbell.scenarios.SCENARIOS[scenario]
    monkeypatch.setitem(relbell.scenarios.SCENARIOS, scenario,
                        (build_settings, wrap("peak", peak)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--scenario", scenario, "--beta-step", "0.001"]) == 0
    blocks = math.ceil(1001 / relbell.scenarios.SWEEP_BLOCK_ROWS)
    assert calls == {"hermitian_eigenvalues": blocks, "effective_directions_grid": blocks,
                     "peak": blocks + 1}


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
                 "--restarts", "2", "--seed", "3",
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
            "2", "--seed", "11", "--no-meta-time"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert _read(first) == _read(second)


def test_optimize_three_qubit(tmp_path):
    out = tmp_path / "opt3.json"
    code = main(["optimize", "--three", "--beta", "0", "--constraint", "xy",
                 "--restarts", "2", "--seed", "1",
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    row = json.loads(out.read_text(encoding="utf-8"))["rows"][0]
    assert row["mode"] == "mermin"
    assert abs(row["value"] - 4.0) < 1e-5
    assert "c_prime_z" in row


@pytest.mark.parametrize("geometry", [[], ["--three", "--boost", "com"]],
                         ids=["two-collinear", "three-com"])
def test_optimize_at_the_fastest_speed_reaches_the_bound(tmp_path, geometry):
    # A coordinate-ascent search with one restart stopped at
    # 2.0000330120418606 (two qubits) and 2.0002199452525011 (three, com
    # boosts) here; the constructed optimum is exact to a few ulps.
    out = tmp_path / "opt.json"
    code = main(["optimize", *geometry, "--beta", "0.9999999999999999",
                 "--restarts", "1",
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    bound = 4.0 if geometry else ROOT8
    value = json.loads(out.read_text(encoding="utf-8"))["rows"][0]["value"]
    assert abs(value - bound) <= 4 * math.ulp(bound)


def test_optimize_near_light_speed_stays_within_bound(tmp_path):
    # Near beta = 1 the constructed directions sit almost perpendicular to
    # the boost; their effective directions must stay unit vectors, or the
    # closed-form value climbs past the bound of 4.
    out = tmp_path / "opt3.json"
    code = main(["optimize", "--three", "--constraint", "free", "--beta", "0.9999999999",
                 "--restarts", "1",
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["rows"][0]["value"] <= 4.0


def test_optimize_usage_errors(capsys):
    assert main(["optimize", "--boost", "com"]) == 2
    assert main(["optimize", "--beta", "1.0"]) == 2
    assert main(["optimize", "--restarts", "0"]) == 2
    # Two qubits are the default; the flag that restated it is retired.
    assert main(["optimize", "--two"]) == 2


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


@pytest.mark.parametrize("step", ["1e-300", "5e-324", "1e-7"])
def test_sweep_row_cap_message_names_the_limit(capsys, step):
    # The row count of a tiny step can have hundreds of digits; the message
    # reports the limit instead, whether the count is finite or not.
    assert main(["sweep", "--scenario", "chsh-collinear", "--beta-step", step]) == 2
    err = capsys.readouterr().err
    assert f"limit of {MAX_SWEEP_ROWS}" in err
    assert len(err) < 100


def test_sweep_row_cap_counts_the_beta_max_row(tmp_path, capsys):
    # 100,001 grid points stop short of beta-max at this step, so appending
    # beta-max would make 100,002 rows.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", "chsh-collinear", "--output", str(out)]
    assert main(argv + ["--beta-step", "9.99991e-06"]) == 2
    assert capsys.readouterr().err == ("error: beta-step 9.99991e-06 produces more rows "
                                       f"than the limit of {MAX_SWEEP_ROWS}\n")
    assert not out.exists()
    assert main(argv + ["--beta-step", "1e-5"]) == 0
    assert len(_read(out).splitlines()) == MAX_SWEEP_ROWS + 1


def test_sample_usage_errors():
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "0"]) == 2
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", "10",
                 "--beta", "1.0"]) == 2
    assert main(["sample", "--shots", "10", "--seed", "-1"]) == 2


@pytest.mark.parametrize("shots", [str(2 ** 63), "10000000000000000000"])
def test_sample_refuses_shots_above_2_63_minus_1(capsys, shots):
    # numpy's multinomial counts in int64; these used to run until killed.
    assert main(["sample", "--scenario", "chsh-collinear", "--shots", shots]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: shots must be in [1, {2 ** 63 - 1}], got {shots}\n"


def test_sample_takes_2_63_minus_1_shots(tmp_path):
    out = tmp_path / "sample.csv"
    shots = 2 ** 63 - 1
    assert main(["sample", "--scenario", "mermin-com", "--beta", "0.2",
                 "--shots", str(shots), "--output", str(out)]) == 0
    rows = _rows_from_csv(out)
    for row in rows[:-1]:
        assert sum(int(row[key]) for key in row if key.startswith("n_")) == shots
    assert int(rows[-1]["shots"]) == 4 * shots


@pytest.mark.parametrize("beta, settings", [(None, False), ("0.25", False),
                                            (None, True), ("0.25", True)])
def test_sample_meta_names_beta_and_settings(tmp_path, beta, settings):
    argv = ["sample", "--scenario", "chsh-collinear", "--shots", "10",
            "--format", "json", "--no-meta-time"]
    settings_path = None
    if beta is not None:
        argv += ["--beta", beta]
    if settings:
        settings_file = tmp_path / "settings.json"
        settings_file.write_text(json.dumps(_pair_settings()), encoding="utf-8")
        settings_path = str(settings_file)
        argv += ["--settings", settings_path]
    out = tmp_path / "sample.json"
    assert main(argv + ["--output", str(out)]) == 0
    meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
    assert meta["beta"] == (None if beta is None else float(beta))
    assert meta["settings"] == settings_path


@pytest.mark.parametrize("settings", [False, True])
def test_sweep_meta_names_settings(tmp_path, settings):
    argv = ["sweep", "--scenario", "chsh-collinear", "--beta-step", "0.5",
            "--format", "json", "--no-meta-time"]
    settings_path = None
    if settings:
        settings_file = tmp_path / "settings.json"
        settings_file.write_text(json.dumps(_pair_settings()), encoding="utf-8")
        settings_path = str(settings_file)
        argv += ["--settings", settings_path]
    out = tmp_path / "sweep.json"
    assert main(argv + ["--output", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["meta"]["settings"] == settings_path


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
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(_pair_settings()), encoding="utf-8")
    out = tmp_path / "sample.json"
    code = main(["sample", "--scenario", "chsh-collinear", "--shots", "4000",
                 "--seed", "2", "--settings", str(settings_path),
                 "--format", "json", "--output", str(out), "--no-meta-time"])
    assert code == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    # standard rest-frame optimum reached with these directions
    assert rows[-1]["exact"] == pytest.approx(ROOT8, abs=1e-12)


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


def test_scenario_names_map_onto_kinds_in_order():
    # perfbench picks scenario kinds by index, so their order is pinned; the
    # kinds are the names --scenario takes.
    assert SCENARIO_KINDS == ("chsh-collinear", "mermin-collinear", "mermin-com")


@pytest.mark.parametrize("swap", [[], ["--prime-swap"]])
def test_settings_file_sweep_matches_named_scenario(tmp_path, swap):
    # A file holding mermin-collinear's own settings (y unprimed, x primed,
    # x boosts) must give the named scenario's rows below beta = 1.
    config = {name: [0.0, 1.0, 0.0] for name in ("a", "b", "c")}
    config.update({f"{name}_prime": [1.0, 0.0, 0.0] for name in "abc"})
    config["boosts"] = [{"direction": [1.0, 0.0, 0.0], "beta": 0.0}] * 3
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["sweep", "--scenario", "mermin-collinear", "--beta-step", "0.001",
            "--no-meta-time", *swap]
    named_out, file_out = tmp_path / "named.csv", tmp_path / "file.csv"
    assert main(argv + ["--output", str(named_out)]) == 0
    assert main(argv + ["--settings", str(settings_path),
                        "--output", str(file_out)]) == 0
    named, from_file = _rows_from_csv(named_out), _rows_from_csv(file_out)
    assert len(named) == len(from_file) == 1001
    values = ("closed_form", "numeric_max", "state_expectation", "residual")
    for named_row, file_row in zip(named[:-1], from_file[:-1]):
        assert float(named_row["beta"]) < 1.0
        assert named_row == file_row
        assert all(named_row[col] for col in values)
    # beta = 1: the named row keeps its closed form only; a file has none
    assert named[-1]["beta"] == from_file[-1]["beta"] == "1"
    assert [named[-1][col] for col in values] == ["4", "", "", ""]
    assert [from_file[-1][col] for col in values] == ["", "", "", ""]


@pytest.mark.parametrize("command", SETTINGS_COMMANDS)
@pytest.mark.parametrize("field", ["direction", "boost", "speed", "overflow"])
def test_non_finite_settings_file_is_usage_error(tmp_path, capsys, command,
                                                 field):
    # A file speed is checked in the loader even when --beta replaces it, and
    # a finite direction whose norm overflows is refused without a warning.
    config = _pair_settings()
    if field == "direction":
        config["a"] = [math.nan, 0.0, 0.0]
    elif field == "boost":
        config["boosts"][1]["direction"] = [math.inf, 0.0, 0.0]
    elif field == "speed":
        config["boosts"][0]["beta"] = math.nan
    else:
        config["b"] = [1e308, 1e308, 0.0]
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(command + ["--settings", str(settings_path)]) == 2
    assert "invalid settings file" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-key", "malformed-json", "missing-path",
                                  "three-boosts", "nan-direction", "nan-speed",
                                  "overflow-direction", "deep-nesting", "huge-integer",
                                  "huge-integer-speed"])
def test_bad_settings_file_is_one_usage_error_under_every_command(tmp_path, capsys,
                                                                  case):
    # sweep and sample read a settings file through one path, so each bad
    # file exits 2 with the same message under every command.
    config = _pair_settings()
    if case == "missing-key":
        del config["b_prime"]
    elif case == "three-boosts":
        config["boosts"].append(config["boosts"][0])
    elif case == "nan-direction":
        config["a"] = [math.nan, 0.0, 0.0]
    elif case == "nan-speed":
        config["boosts"][1]["beta"] = math.nan
    elif case == "overflow-direction":
        config["b"] = [1e308, 1e308, 0.0]
    elif case == "huge-integer":
        # valid JSON whose integer no float holds
        config["a"] = [10 ** 400, 0, 0]
    elif case == "huge-integer-speed":
        config["boosts"][0]["beta"] = 10 ** 400
    settings_path = tmp_path / "settings.json"
    if case == "malformed-json":
        settings_path.write_text("{not json", encoding="utf-8")
    elif case == "deep-nesting":
        settings_path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    elif case != "missing-path":
        settings_path.write_text(json.dumps(config), encoding="utf-8")
    errors = []
    for command in SETTINGS_COMMANDS:
        assert main(command + ["--settings", str(settings_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith(f"error: invalid settings file {settings_path}: ")
    assert errors[0].count("\n") == 1
    assert errors == [errors[0]] * len(SETTINGS_COMMANDS)


@pytest.mark.parametrize("settings", [False, True], ids=["named", "settings-file"])
@pytest.mark.parametrize("beta", ["1.0", "nan", "-0.5"])
def test_sample_beta_out_of_range_is_one_usage_error(tmp_path, capsys, beta,
                                                     settings):
    # sample checks --beta once, before it picks the scenario or the file.
    argv = ["sample", "--scenario", "chsh-collinear", "--shots", "10",
            "--beta", beta]
    if settings:
        settings_path = tmp_path / "settings.json"
        settings_path.write_text(json.dumps(_pair_settings()), encoding="utf-8")
        argv += ["--settings", str(settings_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: sampling requires 0 <= beta < 1, got {float(beta)}\n"


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main([]) == 2


def test_cli_import_leaves_handler_layers_unloaded():
    # verify, search and sampling (which pulls in numpy.random) are start-up
    # cost that only their own command pays.
    lazy = ("relbell.verify", "relbell.search", "relbell.sampling", "numpy.random")
    child = run_python("-c", "import sys, relbell.cli; "
                             f"print([m for m in {lazy!r} if m in sys.modules])")
    assert child.returncode == 0, child.stderr
    assert child.stdout.decode().strip() == "[]"
