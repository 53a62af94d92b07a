"""Optimizer tests: determinism, bounds, convergence to known peaks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unit_vectors
from relbell.bell import Settings, bell_operator, chsh_operator, max_violation, \
    mermin_operator, operator_norm
from relbell.errors import DomainError
from relbell.linalg import expectation
from relbell.observables import Boost
from relbell.scenarios import (
    X_AXIS,
    com_boosts,
    epsilon2,
    epsilon3_com,
)
from relbell.search import (
    CONSTRAINTS,
    MAX_GRID_POINTS,
    OBJECTIVES,
    REFINEMENT_TOLERANCE,
    SearchConfig,
    _directions_from_angles,
    _objective,
    optimize_chsh,
    optimize_mermin,
)

ROOT8 = 2.0 * math.sqrt(2.0)

FAST_XY = SearchConfig(constraint="xy_plane", restarts=2,
                       grid_points_per_angle=8, seed=404)
FAST_FREE = SearchConfig(constraint="free_sphere", restarts=2,
                         grid_points_per_angle=8, seed=404)


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(constraint="banana")
    with pytest.raises(DomainError):
        SearchConfig(restarts=0)
    with pytest.raises(DomainError):
        SearchConfig(objective="nonsense")


def test_config_refuses_grid_finer_than_refinement():
    # Past MAX_GRID_POINTS the coarse grid spacing is finer than the
    # golden-section tolerance; far past it the grid would not fit in memory.
    xtol = math.sqrt(REFINEMENT_TOLERANCE)
    assert MAX_GRID_POINTS == 62831
    assert 2.0 * math.pi / MAX_GRID_POINTS >= xtol > 2.0 * math.pi / (MAX_GRID_POINTS + 1)
    assert SearchConfig(grid_points_per_angle=MAX_GRID_POINTS).grid_points_per_angle \
        == MAX_GRID_POINTS
    for points in (1, MAX_GRID_POINTS + 1, 10 ** 13):
        with pytest.raises(DomainError):
            SearchConfig(grid_points_per_angle=points)


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
                              grid_points_per_angle=8, seed=11)
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
                          grid_points_per_angle=8, seed=7)
    _, value = optimize_mermin((X_AXIS,) * 3, 0.0, config)
    assert abs(value - 4.0) < 1e-5
    assert value <= 4.0 + 1e-9


def test_mermin_xy_center_of_mass():
    config = SearchConfig(constraint="xy_plane", restarts=2,
                          grid_points_per_angle=8, seed=5)
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
                          objective="state_expectation")
    _, value = optimize_chsh((X_AXIS, X_AXIS), 0.0, config)
    assert abs(value - ROOT8) < 1e-4


_angles = st.floats(-2.0 * math.pi, 4.0 * math.pi)


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_objective_cache_is_bit_identical(objective, n_particles, constraint, data):
    # Along a walk of single-coordinate moves, as coordinate ascent makes,
    # the per-particle cache must give exactly what the objective scores on
    # the settings the angles build: the optimizer's returned value is one
    # of these.
    boosts = tuple(data.draw(st.lists(st.builds(Boost, unit_vectors, st.floats(0.0, 0.99)),
                                      min_size=n_particles, max_size=n_particles)))
    width = n_particles * (2 if constraint == "xy_plane" else 4)
    angles = np.array(data.draw(st.lists(_angles, min_size=width, max_size=width)))
    moves = data.draw(st.lists(st.tuples(st.integers(0, width - 1), _angles),
                               min_size=1, max_size=30))
    evaluate = _objective(boosts, constraint, objective)
    for k, t in [(0, angles[0])] + moves:
        angles[k] = t
        built = Settings(_directions_from_angles(angles, constraint), boosts)
        if objective == "operator_norm":
            want = operator_norm(built)
        else:
            want = abs(expectation(built.family.state(), bell_operator(built)))
        assert evaluate(angles) == want
