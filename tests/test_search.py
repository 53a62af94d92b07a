"""Optimizer tests: determinism, bounds, convergence to known peaks."""

import math

import numpy as np
import pytest

from relbell.bell import chsh_operator, max_violation, mermin_operator
from relbell.errors import DomainError
from relbell.scenarios import (
    X_AXIS,
    com_boosts,
    epsilon2,
    epsilon3_com,
)
from relbell.search import SearchConfig, optimize_chsh, optimize_mermin

ROOT8 = 2.0 * math.sqrt(2.0)

FAST_XY = SearchConfig(constraint="xy_plane", restarts=2,
                       grid_points_per_angle=8, seed=404,
                       refinement_tolerance=1e-7)
FAST_FREE = SearchConfig(constraint="free_sphere", restarts=2,
                         grid_points_per_angle=8, seed=404,
                         refinement_tolerance=1e-7)


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(constraint="banana")
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    with pytest.raises(DomainError):
        SearchConfig(refinement_tolerance=0.0)
    with pytest.raises(DomainError):
        SearchConfig(objective="nonsense")


def test_beta_domain():
    with pytest.raises(DomainError):
        optimize_chsh((X_AXIS, X_AXIS), 1.0, FAST_XY)
    with pytest.raises(DomainError):
        optimize_mermin(com_boosts(), -0.1, FAST_XY)


def test_seeded_determinism():
    first_settings, first_value = optimize_chsh((X_AXIS, X_AXIS), 0.3, FAST_XY)
    second_settings, second_value = optimize_chsh((X_AXIS, X_AXIS), 0.3, FAST_XY)
    assert first_value == second_value
    for first, second in zip(first_settings.directions, second_settings.directions):
        assert np.array_equal(first, second)


def test_monotone_in_restarts():
    values = []
    for restarts in (1, 2, 4):
        config = SearchConfig(constraint="xy_plane", restarts=restarts,
                              grid_points_per_angle=8, seed=11,
                              refinement_tolerance=1e-7)
        values.append(optimize_chsh((X_AXIS, X_AXIS), 0.5, config)[1])
    assert values[0] <= values[1] <= values[2]


def test_chsh_free_sphere_is_boost_invariant():
    # The direction map is onto the sphere for beta < 1, so the free-sphere
    # optimum cannot depend on the speed.
    _, rest_value = optimize_chsh((X_AXIS, X_AXIS), 0.0, FAST_FREE)
    assert abs(rest_value - ROOT8) < 1e-5
    assert rest_value <= ROOT8 + 1e-9
    for beta in (0.3, 0.6, 0.9):
        _, value = optimize_chsh((X_AXIS, X_AXIS), beta, FAST_FREE)
        assert abs(value - rest_value) < 1e-5
        assert value <= ROOT8 + 1e-9


def test_chsh_xy_beats_collinear_curve():
    _, value = optimize_chsh((X_AXIS, X_AXIS), 0.8, FAST_XY)
    assert value >= epsilon2(0.8) - 1e-6
    assert value <= ROOT8 + 1e-9


def test_mermin_free_sphere_rest_frame():
    config = SearchConfig(constraint="free_sphere", restarts=1,
                          grid_points_per_angle=8, seed=7,
                          refinement_tolerance=1e-6)
    _, value = optimize_mermin((X_AXIS,) * 3, 0.0, config)
    assert abs(value - 4.0) < 1e-5
    assert value <= 4.0 + 1e-9


def test_mermin_xy_center_of_mass():
    config = SearchConfig(constraint="xy_plane", restarts=2,
                          grid_points_per_angle=8, seed=5,
                          refinement_tolerance=1e-7)
    _, value = optimize_mermin(com_boosts(), 0.6, config)
    assert value >= epsilon3_com(0.6) - 1e-6
    assert value <= 4.0 + 1e-9


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_chsh_value_is_brute_force_norm(config, beta):
    # The objective is scored in closed form; the returned value must still
    # be the Jacobi spectrum of the returned settings.
    tilted = np.array([0.6, 0.0, 0.8])
    settings, value = optimize_chsh((X_AXIS, tilted), beta, config)
    assert abs(value - max_violation(chsh_operator(settings))) <= 1e-12


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("boosts", ["collinear", "com"])
def test_mermin_value_is_brute_force_norm(config, boosts):
    directions = (X_AXIS,) * 3 if boosts == "collinear" else com_boosts()
    settings, value = optimize_mermin(directions, 0.6, config)
    assert abs(value - max_violation(mermin_operator(settings))) <= 1e-12


def test_state_expectation_objective():
    config = SearchConfig(constraint="xy_plane", restarts=2,
                          grid_points_per_angle=8, seed=2,
                          refinement_tolerance=1e-7,
                          objective="state_expectation")
    _, value = optimize_chsh((X_AXIS, X_AXIS), 0.0, config)
    assert abs(value - ROOT8) < 1e-4
