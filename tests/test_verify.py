"""Verify-battery tests: the CHECKS table, its one reducer, and the
benchmark's constants that count its rows."""

import dataclasses
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import pytest

import relbell.bell as bell
import relbell.observables as observables
import relbell.verify as verify
from relbell.cli import VERIFY_COLUMNS

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _run_row(monkeypatch, name):
    """run_all_checks over the one CHECKS row called name."""
    monkeypatch.setattr(verify, "CHECKS", [row for row in verify.CHECKS if row[0] == name])
    return verify.run_all_checks(seed=0)


@pytest.mark.parametrize("name", ["mermin-square-closed-form", "mermin-square-leg-placement"])
def test_verify_square_checks_build_observables_once(monkeypatch, name):
    # Each 3-qubit square check builds its stacked observables once and
    # takes the operators and every square form from them.
    calls = []

    def counted(*args):
        calls.append(args)
        return observables.boost_map(*args)

    monkeypatch.setattr(bell, "boost_map", counted)
    assert [result.check for result in _run_row(monkeypatch, name)] == [name]
    assert len(calls) == 1


def _nan_at_half(function):
    return lambda beta: math.nan if beta == 0.5 else function(beta)


def _nan_once(function, at=7):
    calls = itertools.count()
    return lambda *args: complex(math.nan) if next(calls) == at else function(*args)


def _nan_coefficient(function):
    def patched(settings):
        in_plane = function(settings)
        return None if in_plane is None else (math.nan,) + in_plane[1:]
    return patched


#: Per row: the module and name of a function the row calls, and a wrapper
#: that puts a NaN into what it returns.
NAN_INJECTIONS = {
    "com-curve-spectral": (verify, "epsilon3_com", _nan_at_half),
    "com-curve-square-consistency": (verify, "epsilon3_com", _nan_at_half),
    "com-ghz-expectation": (verify, "epsilon3_com", _nan_at_half),
    "ghz-offdiagonal-closed-form": (verify, "ghz_offdiagonal_closed_form", _nan_once),
    "chsh-square-inplane-identity": (verify, "_chsh_in_plane", _nan_coefficient),
}


@pytest.mark.parametrize("name", NAN_INJECTIONS)
def test_nan_residual_fails(monkeypatch, name):
    # One NaN among a row's residuals makes the row's residual NaN, and a
    # NaN never PASSes.
    module, function, inject = NAN_INJECTIONS[name]
    monkeypatch.setattr(module, function, inject(getattr(module, function)))
    [result] = _run_row(monkeypatch, name)
    assert result.status == verify.FAIL
    assert math.isnan(result.residual)


def test_verify_columns_are_check_result_fields():
    # The verify command writes each CheckResult as one row of these columns.
    assert VERIFY_COLUMNS == tuple(f.name for f in dataclasses.fields(verify.CheckResult))


def test_verify_table_matches_benchmark_constants(monkeypatch):
    # The benchmark counts verify's rows and knows its ERRATUM rows by name.
    # A row added to or renamed in CHECKS must move those constants too.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    names = [name for name, _, _ in verify.CHECKS]
    assert len(names) == len(set(names))
    assert len(verify.CHECKS) == workloads.VERIFY_ROWS
    assert {name for name, gated, _ in verify.CHECKS if not gated} == workloads.VERIFY_ERRATA
