"""Verify-battery tests: the CHECKS table, its one reducer, its array draws
against the sample-by-sample stream, its per-row budgets, and the
benchmark's constants that count its rows."""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relbell.observables as observables
import relbell.scenarios as scenarios
import relbell.verify as verify
from helpers import (
    BOUND,
    random_chsh,
    random_chsh_xy_grid,
    random_contracts,
    random_mermin,
    random_roundtrip,
    random_xy_rows,
    same_bits,
    settings_arrays,
)
from relbell.cli import VERIFY_COLUMNS

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _run_row(monkeypatch, name):
    """run_all_checks over the one CHECKS row called name."""
    monkeypatch.setattr(verify, "CHECKS", [row for row in verify.CHECKS if row[0] == name])
    return verify.run_all_checks(seed=0)


@pytest.mark.parametrize("name", ["mermin-square-closed-form", "mermin-square-leg-placement"])
def test_verify_square_checks_build_observables_once(monkeypatch, name):
    # Each 3-qubit square check builds its stacked effective directions with
    # one boost_map and takes the operators and every square form from them.
    calls = []

    def counted(*args):
        calls.append(args)
        return observables.boost_map(*args)

    monkeypatch.setattr(verify, "boost_map", counted)
    assert [result.check for result in _run_row(monkeypatch, name)] == [name]
    assert len(calls) == 1


def test_verify_builds_the_com_candidates_in_one_call_per_row(monkeypatch):
    # The two rows that compare the center-of-mass effective directions with
    # their closed-form candidates each take them from one
    # com_closed_form_directions call over the whole grid: two calls a run.
    calls = []

    def counted(beta):
        calls.append(beta)
        return scenarios.com_closed_form_directions(beta)

    monkeypatch.setattr(verify, "com_closed_form_directions", counted)
    for runs in (1, 2):
        verify.run_all_checks(seed=0)
        assert len(calls) == 2 * runs
    for beta in calls:
        assert same_bits(beta, np.array(verify.BETA_GRID))


def _nan_at_half(function):
    return lambda beta: np.where(np.asarray(beta) == 0.5, math.nan, function(beta))


def _nan_at_row(function, at=7):
    def patched(*args):
        values = function(*args).copy()
        values[at] = math.nan
        return values
    return patched


def _nan_coefficient(function, at=7):
    def patched(*args):
        shrink_sq, *rest = function(*args)
        return (_nan_at_row(lambda: shrink_sq, at)(), *rest)
    return patched


#: Per row: the module and name of a function the row calls, and a wrapper
#: that puts a NaN into what it returns.
NAN_INJECTIONS = {
    "com-curve-spectral": (verify, "epsilon3_com", _nan_at_half),
    "com-curve-square-consistency": (verify, "epsilon3_com", _nan_at_half),
    "com-ghz-expectation": (verify, "epsilon3_com", _nan_at_half),
    "ghz-offdiagonal-closed-form": (verify, "ghz_offdiagonal_closed_form", _nan_at_row),
    "chsh-square-inplane-identity": (verify, "chsh_in_plane_terms", _nan_coefficient),
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
    assert VERIFY_COLUMNS == verify.CheckResult._fields


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


def _samples(build, count):
    """settings_arrays of count Settings that build draws from one generator."""
    return lambda rng: settings_arrays([build(rng) for _ in range(count)])


#: Per randomized row: the draw function it calls, and the sample-by-sample
#: oracle of what that draw returns from the row's generator.
STREAM_ORACLES = {
    "chsh-square-generic-identity":
        ("_draw_free", _samples(lambda rng: random_chsh(rng, in_plane=False), 150)),
    "chsh-square-inplane-identity":
        ("_draw_x_boosted", _samples(lambda rng: random_chsh(rng, in_plane=True), 150)),
    "chsh-square-peak-closed-form":
        ("_draw_x_boosted", lambda rng: settings_arrays(random_chsh_xy_grid(rng))),
    "chsh-square-peak-eigenstates":
        ("_draw_x_boosted", lambda rng: settings_arrays(random_chsh_xy_grid(rng))),
    "pair-correlator-closed-form": ("_draw_x_boosted", lambda rng: random_xy_rows(rng, 2)),
    "ghz-offdiagonal-closed-form": ("_draw_x_boosted", lambda rng: random_xy_rows(rng, 3)),
    "ghz-correlator-closed-form": ("_draw_x_boosted", lambda rng: random_xy_rows(rng, 3)),
    "mermin-square-closed-form":
        ("_draw_free", _samples(lambda rng: random_mermin(rng, in_plane=False), 150)),
    "mermin-square-leg-placement":
        ("_draw_mermin_in_plane", _samples(lambda rng: random_mermin(rng, in_plane=True), 50)),
    "mermin-square-peak-closed-form":
        ("_draw_mermin_in_plane", _samples(lambda rng: random_mermin(rng, in_plane=True), 60)),
    "observable-contracts": ("_draw_contracts", random_contracts),
    "effective-direction-roundtrip": ("_draw_roundtrip", random_roundtrip),
}
DRAWS = ("_draw_free", "_draw_x_boosted", "_draw_mermin_in_plane", "_draw_contracts",
         "_draw_roundtrip")


def _assert_same_draws(drawn, oracle):
    # Bit for bit, with the draw's stacks broadcast as boost_map broadcasts
    # them (an x-boosted draw gives one axis and one speed per sample).
    if isinstance(oracle, tuple):
        assert len(drawn) >= len(oracle)
        for got, want in zip(drawn, oracle):
            _assert_same_draws(got, want)
    else:
        assert same_bits(np.broadcast_to(drawn, np.shape(oracle)), oracle)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_array_draws_keep_the_sample_by_sample_stream(seed):
    # Every row runs as verify runs it, with its draws recorded together with
    # the generator state they start from.  A randomized row makes exactly
    # one draw, equal to its oracle's from that state; no other row draws.
    for name, _, check in verify.CHECKS:
        draws = []
        with pytest.MonkeyPatch.context() as patch:
            for draw in DRAWS:
                def recorded(rng, *args, _draw=getattr(verify, draw), _name=draw):
                    state = rng.bit_generator.state
                    draws.append((_name, state, _draw(rng, *args)))
                    return draws[-1][2]
                patch.setattr(verify, draw, recorded)
            check(seed)
        if name not in STREAM_ORACLES:
            assert draws == []
            continue
        [(draw, state, drawn)] = draws
        oracle_draw, oracle = STREAM_ORACLES[name]
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        assert draw == oracle_draw
        _assert_same_draws(drawn, oracle(rng))


EPS = np.finfo(float).eps
#: Per gated row: (K, scale), its budget K * EPS * scale.  scale is the
#: largest magnitude the row compares (8 and 16 for the squared two- and
#: three-qubit operators, the Bell bound for curves, 1 for correlators and
#: directions).  K is twice the worst residual over BUDGET_SEEDS in units
#: of EPS * scale, rounded up (at least 1); the measured worst, in EPS, is
#: in each comment.
BUDGETS = {
    "chsh-square-generic-identity": (5, 8.0),  # 20
    "chsh-square-inplane-identity": (7, 8.0),  # 28
    "chsh-square-peak-closed-form": (6, 8.0),  # 24
    "chsh-square-peak-eigenstates": (8, 8.0),  # 32
    "chsh-collinear-curve": (5, BOUND[2]),  # 6
    "pair-correlator-closed-form": (6, 1.0),  # 3
    "ghz-offdiagonal-closed-form": (7, 1.0),  # 3.01
    "ghz-correlator-closed-form": (7, 1.0),  # 3.5
    "mermin-square-closed-form": (4, 16.0),  # 32
    "mermin-square-peak-closed-form": (4, 16.0),  # 32
    "mermin-square-zero-eigenvector": (1, 16.0),  # 1.1e-16
    "mermin-collinear-invariance": (1, 16.0),  # 0
    "com-curve-spectral": (3, BOUND[3]),  # 6
    "com-curve-square-consistency": (2, 16.0),  # 16
    "com-unprimed-closed-form": (2, 1.0),  # 1
    "com-ghz-expectation": (4, BOUND[3]),  # 8
    "observable-contracts": (8, 1.0),  # 4
    "effective-direction-roundtrip": (10, 1.0),  # 5
}
BUDGET_SEEDS = (*range(64), 2 ** 64 - 1)


def test_gated_rows_stay_within_their_budgets():
    # The CLI's default gate of 1e-9 is millions of times these residuals;
    # the budgets see a regression of a few ulps.  They only tighten.
    assert set(BUDGETS) == {name for name, gated, _ in verify.CHECKS if gated}
    worst = dict.fromkeys(BUDGETS, 0.0)
    for seed in BUDGET_SEEDS:
        for result in verify.run_all_checks(seed=seed):
            if result.check in BUDGETS:
                assert not math.isnan(result.residual), (result.check, seed)
                worst[result.check] = max(worst[result.check], result.residual)
    over = {name: worst[name] / EPS for name, (k, scale) in BUDGETS.items()
            if worst[name] > k * EPS * scale}
    assert over == {}


#: Real and imaginary parts at the edges of complex abs: signed zeros,
#: subnormals, the smallest normal, 1e+-300, infinities and NaN.
_EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, 1e-300, -1e-300,
               1.0, -2.5, 1e300, -1e300, math.inf, -math.inf, math.nan)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                      max_size=16))
def test_magnitudes_have_the_bits_of_pythons_abs(drawn):
    # The ghz-offdiagonal-closed-form and observable-contracts rows take
    # complex magnitudes as np.hypot of the parts, on whole arrays, with the
    # bits of Python's abs of each complex scalar.  Only a NaN's sign bit may
    # differ: np.hypot's NaN carries it here, and the row reports nan and
    # FAILs either way.
    pairs = list(itertools.product(_EDGE_PARTS, repeat=2)) + drawn
    z = np.array([complex(x, y) for x, y in pairs])
    got = np.hypot(z.real, z.imag)
    for value, (x, y) in zip(got, pairs):
        want = abs(complex(x, y))
        if math.isnan(want):
            assert math.isnan(value), (x, y)
        else:
            assert value.view(np.uint64) == np.float64(want).view(np.uint64), (x, y)
