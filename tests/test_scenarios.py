"""Scenario catalog tests: curves, center-of-mass geometry, sweep samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs, unit_vectors
from relbell import scenarios
from relbell.errors import DomainError
from relbell.linalg import expectation, hermitian_eigensystem
from relbell.bell import Settings, bell_operator, max_violation, operator_norm
from relbell.observables import Boost
from relbell.scenarios import (
    SCENARIOS,
    SWEEP_BLOCK_ROWS,
    chsh_collinear_settings,
    com_boosts,
    com_closed_form_directions,
    epsilon2,
    epsilon3_com,
    lambda_com,
    mermin_collinear_settings,
    mermin_com_settings,
    sweep,
)
from relbell.states import ghz_plus, phi_plus

ROOT8 = 2.0 * math.sqrt(2.0)


def test_epsilon2_endpoints():
    assert abs(epsilon2(0.0) - ROOT8) < 1e-12
    assert abs(epsilon2(1.0) - 2.0) < 1e-12


def test_epsilon2_value():
    assert abs(epsilon2(0.6) - 3.6 / math.sqrt(1.64)) < 1e-15


def test_epsilon2_domain():
    with pytest.raises(DomainError):
        epsilon2(-0.01)
    with pytest.raises(DomainError):
        epsilon2(1.01)


def test_epsilon3_endpoints():
    assert abs(epsilon3_com(0.0) - 4.0) < 1e-12
    assert abs(epsilon3_com(1.0) - 2.0) < 1e-12


def test_epsilon3_value():
    expected = 2.0 * (1.0 + 3.2 / math.sqrt(10.6288))
    assert abs(epsilon3_com(0.6) - expected) < 1e-12


def test_curves_strictly_decreasing():
    grid = np.arange(0.001, 1.0, 0.001)
    eps2 = np.array([epsilon2(b) for b in grid])
    eps3 = np.array([epsilon3_com(b) for b in grid])
    assert np.all(np.diff(eps2) < 0.0)
    assert np.all(np.diff(eps3) < 0.0)


def test_epsilon3_squared_equals_lambda():
    for beta in np.arange(0.0, 1.0001, 0.001):
        beta = min(float(beta), 1.0)
        assert abs(epsilon3_com(beta) ** 2 - lambda_com(beta)) < 1e-12


def test_com_boosts_geometry():
    e1, e2, e3 = com_boosts()
    for u, v in ((e1, e2), (e1, e3), (e2, e3)):
        assert abs(float(u @ v) + 0.5) < 1e-15
    assert max_abs(e1 + e2 + e3) < 1e-15
    assert np.allclose(e2, [0.5, math.sqrt(3.0) / 2.0, 0.0], atol=1e-15)


def test_com_setting_observables_rest_frame():
    a, a_prime, b, b_prime, c, c_prime = mermin_com_settings(0.0).effective_directions()
    y = np.array([0.0, 1.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    for unprimed in (a, b, c):
        assert max_abs(unprimed - y) < 1e-15
    for primed in (a_prime, b_prime, c_prime):
        assert max_abs(primed - x) < 1e-15


def test_com_setting_observables_boosted():
    a, a_prime, b, b_prime, c, c_prime = mermin_com_settings(0.8).effective_directions()
    # particle 1 settings are fixed points
    assert np.array_equal(a, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(a_prime, np.array([1.0, 0.0, 0.0]))
    # frozen hand evaluations at g = 0.6
    expected_b = np.array([math.sqrt(3.0) * 0.4, 3.6, 0.0]) / (2.0 * math.sqrt(3.36))
    assert max_abs(b - expected_b) < 1e-12
    expected_b_prime = np.array([2.8, math.sqrt(3.0) * 0.4, 0.0]) / (2.0 * math.sqrt(2.08))
    assert max_abs(b_prime - expected_b_prime) < 1e-12
    # mirror symmetry in y
    assert max_abs(c - expected_b * np.array([-1.0, 1.0, 1.0])) < 1e-12


def test_com_setting_observables_domain():
    with pytest.raises(DomainError):
        mermin_com_settings(1.0).effective_directions()


def test_com_closed_form_directions():
    for beta in (0.0, 0.3, 0.8, 0.99):
        effective = mermin_com_settings(beta).effective_directions()
        closed = com_closed_form_directions(beta)
        assert max_abs(effective[2] - closed["b"]) < 1e-12
        assert max_abs(effective[4] - closed["c"]) < 1e-12
        assert max_abs(effective[3] - closed["b_prime_derived"]) < 1e-12
        assert max_abs(effective[5] - closed["c_prime_derived"]) < 1e-12
        alt_norm = float(np.linalg.norm(closed["b_prime_alt"]))
        if beta == 0.0:
            assert abs(alt_norm - 1.0) < 1e-12
        else:
            assert alt_norm > 1.0 + 1e-4


def test_scenario_closed_forms():
    def closed_form(kind, beta):
        _, peak = SCENARIOS[kind]
        return peak(beta)

    assert closed_form("chsh-collinear", 0.25) == epsilon2(0.25)
    assert closed_form("mermin-collinear", 0.7) == 4.0
    assert closed_form("mermin-com", 0.7) == epsilon3_com(0.7)


def _row(kind, beta):
    """The sweep row of the named scenario at speed beta."""
    build_settings, peak = SCENARIOS[kind]
    return next(sweep(build_settings(0.0), [beta], peak))


def test_scenario_curve_chsh_rest():
    result = _row("chsh-collinear", 0.0)
    assert abs(result.closed_form - ROOT8) < 1e-12
    assert abs(result.numeric_max - ROOT8) < 1e-10
    assert result.residual_closed_numeric < 1e-10
    assert abs(result.state_expectation - ROOT8) < 1e-10


def test_scenario_curve_mermin_prime_swap():
    peak = SCENARIOS["mermin-collinear"][1]
    result = next(sweep(mermin_collinear_settings(0.0).prime_swapped(), [0.7], peak))
    assert abs(abs(result.state_expectation) - 4.0) < 1e-10
    assert abs(result.closed_form - abs(result.state_expectation)) < 1e-10
    as_given = _row("mermin-collinear", 0.7)
    assert abs(as_given.state_expectation) < 1e-12
    residual_closed_state = abs(as_given.closed_form - abs(as_given.state_expectation))
    assert abs(residual_closed_state - 4.0) < 1e-10


def test_scenario_curve_center_of_mass():
    result = _row("mermin-com", 0.6)
    assert abs(result.numeric_max - epsilon3_com(0.6)) < 1e-10
    operator = bell_operator(mermin_com_settings(0.6))
    top = hermitian_eigensystem(operator @ operator)[0][-1]
    assert abs(math.sqrt(top) - epsilon3_com(0.6)) < 1e-10


def test_scenario_curve_at_beta_one():
    result = _row("chsh-collinear", 1.0)
    assert result.closed_form == 2.0
    assert result.numeric_max is None
    assert result.state_expectation is None
    assert result.residual_closed_numeric is None


def test_scenario_validation():
    # A speed past 1 has no sweep row; the named closed form refuses it.
    with pytest.raises(DomainError):
        _row("chsh-collinear", 1.5)


def test_collinear_settings_constructors():
    settings_ = chsh_collinear_settings(0.4)
    assert settings_.boosts[0].beta == 0.4
    assert np.array_equal(settings_.boosts[0].direction, np.array([1.0, 0.0, 0.0]))
    swapped = mermin_collinear_settings(0.4).prime_swapped()
    assert np.array_equal(swapped.directions[0], np.array([1.0, 0.0, 0.0]))
    assert np.array_equal(swapped.directions[1], np.array([0.0, 1.0, 0.0]))


def test_com_ghz_expectation_tracks_curve():
    state = ghz_plus()
    for beta in (0.0, 0.4, 0.8):
        swapped = expectation(state, bell_operator(
            mermin_com_settings(beta).prime_swapped()))
        assert abs(abs(swapped) - epsilon3_com(beta)) < 1e-10


def test_collinear_numeric_max_constant():
    for beta in (0.0, 0.5, 0.95):
        operator = bell_operator(mermin_collinear_settings(beta))
        assert abs(max_violation(operator) - 4.0) < 1e-10


def test_sweep_takes_one_expectation_per_block(monkeypatch):
    # Each block's rows below beta = 1 get their expectations from one
    # stacked call, each the value of a lone call on the row's own operator.
    calls = []

    def counting(state, matrices):
        calls.append(len(matrices))
        return expectation(state, matrices)

    monkeypatch.setattr(scenarios, "expectation", counting)
    betas = [i / 140 for i in range(141)]
    rows = list(sweep(chsh_collinear_settings(0.0), betas))
    assert calls == [SWEEP_BLOCK_ROWS, SWEEP_BLOCK_ROWS, 141 - 2 * SWEEP_BLOCK_ROWS - 1]
    assert rows[-1].state_expectation is None
    for beta, row in zip(betas[:-1], rows):
        want = expectation(phi_plus(), bell_operator(chsh_collinear_settings(beta)))
        assert row.state_expectation == want


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sweep_closed_form_is_each_rows_operator_norm(n_particles, data):
    # Free settings have no named curve: each row below beta = 1 is checked
    # against its own operator_norm, bit for bit, and the beta = 1 row of a
    # grid that runs past a block boundary has no closed form.
    directions = data.draw(st.lists(unit_vectors, min_size=2 * n_particles,
                                    max_size=2 * n_particles))
    axes = data.draw(st.lists(unit_vectors, min_size=n_particles, max_size=n_particles))
    steps = data.draw(st.integers(SWEEP_BLOCK_ROWS, 2 * SWEEP_BLOCK_ROWS))
    betas = [i / steps for i in range(steps + 1)]
    rows = list(sweep(Settings(directions, [Boost(e, 0.0) for e in axes]), betas))
    for beta, row in zip(betas[:-1], rows):
        at_beta = Settings(directions, [Boost(e, beta) for e in axes])
        assert row.closed_form == operator_norm(at_beta)
        assert row.residual_closed_numeric <= 1e-12
    assert rows[-1] == (None, None, None, None)
