"""Optimizer tests: the constructed optimum, and the coordinate-ascent
search's determinism, bounds and convergence to known peaks.

Every test of the search calls _coordinate_ascent directly, or goes through
optimize_chsh with a boost off the xy-plane under the xy_plane constraint,
where the construction leaves the plane and the search runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BETA_MAX, BOUND, boost_axes
from relbell.bell import bell_operator, chsh_operator, max_violation, mermin_operator, \
    operator_norm
from relbell.errors import DomainError
from relbell.linalg import expectation
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
    PEAK_TARGETS,
    REFINEMENT_TOLERANCE,
    SearchConfig,
    _coordinate_ascent,
    _value,
    optimal_settings,
    optimize_chsh,
    optimize_mermin,
)

ROOT8 = 2.0 * math.sqrt(2.0)
EPS = np.finfo(float).eps
#: A boost axis off the xy-plane: under the xy_plane constraint at beta > 0
#: the construction's preimage of the x target leaves the plane.
TILTED = np.array([0.6, 0.0, 0.8])

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
    with pytest.raises(DomainError):
        optimize_chsh((X_AXIS, TILTED), 1.0, FAST_XY)
    with pytest.raises(DomainError):
        optimal_settings(2, (X_AXIS, X_AXIS), 0.5, "banana")
    with pytest.raises(DomainError):
        optimal_settings(3, (X_AXIS, X_AXIS), 0.5, "free_sphere")


def test_seeded_determinism():
    assert optimal_settings(2, (X_AXIS, TILTED), 0.3, "xy_plane") is None
    first_settings, first_value = optimize_chsh((X_AXIS, TILTED), 0.3, FAST_XY)
    second_settings, second_value = optimize_chsh((X_AXIS, TILTED), 0.3, FAST_XY)
    assert first_value == second_value
    for first, second in zip(first_settings.directions, second_settings.directions):
        assert np.array_equal(first, second)


def test_monotone_in_restarts():
    assert optimal_settings(2, (X_AXIS, TILTED), 0.5, "xy_plane") is None
    values = []
    for restarts in (1, 2, 4):
        config = SearchConfig(constraint="xy_plane", restarts=restarts,
                              grid_points_per_angle=8, seed=11)
        values.append(optimize_chsh((X_AXIS, TILTED), 0.5, config)[1])
    assert values[0] <= values[1] <= values[2]


def test_chsh_free_sphere_is_boost_invariant():
    # The direction map is onto the sphere for beta < 1, so the free-sphere
    # optimum cannot depend on the speed.
    _, rest_value = _coordinate_ascent(2, (X_AXIS, X_AXIS), 0.0, FAST_FREE)
    assert abs(rest_value - ROOT8) < 1e-5
    assert rest_value <= ROOT8 + 1e-9
    for beta in (0.3, 0.6, 0.9):
        _, value = _coordinate_ascent(2, (X_AXIS, X_AXIS), beta, FAST_FREE)
        assert abs(value - rest_value) < 1e-5
        assert value <= ROOT8 + 1e-9


def test_chsh_xy_beats_collinear_curve():
    _, value = _coordinate_ascent(2, (X_AXIS, X_AXIS), 0.8, FAST_XY)
    assert value >= epsilon2(0.8) - 1e-6
    assert value <= ROOT8 + 1e-9


def test_mermin_free_sphere_rest_frame():
    config = SearchConfig(constraint="free_sphere", restarts=1,
                          grid_points_per_angle=8, seed=7)
    _, value = _coordinate_ascent(3, (X_AXIS,) * 3, 0.0, config)
    assert abs(value - 4.0) < 1e-5
    assert value <= 4.0 + 1e-9


def test_mermin_xy_center_of_mass():
    config = SearchConfig(constraint="xy_plane", restarts=2,
                          grid_points_per_angle=8, seed=5)
    _, value = _coordinate_ascent(3, com_boosts(), 0.6, config)
    assert value >= epsilon3_com(0.6) - 1e-6
    assert value <= 4.0 + 1e-9


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_chsh_value_is_brute_force_norm(config, beta):
    # The objective is scored in closed form; the returned value must still
    # be the Jacobi spectrum of the returned settings.
    settings, value = _coordinate_ascent(2, (X_AXIS, TILTED), beta, config)
    assert abs(value - max_violation(chsh_operator(settings))) <= 1e-12


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("boosts", ["collinear", "com"])
def test_mermin_value_is_brute_force_norm(config, boosts):
    directions = (X_AXIS,) * 3 if boosts == "collinear" else com_boosts()
    settings, value = _coordinate_ascent(3, directions, 0.6, config)
    assert abs(value - max_violation(mermin_operator(settings))) <= 1e-12


def test_state_expectation_objective():
    config = SearchConfig(constraint="xy_plane", restarts=2,
                          grid_points_per_angle=8, seed=2,
                          objective="state_expectation")
    _, value = _coordinate_ascent(2, (X_AXIS, X_AXIS), 0.0, config)
    assert abs(value - ROOT8) < 1e-4


def _in_plane_or_along_z(axis) -> bool:
    return axis[2] == 0.0 or axis[0] == axis[1] == 0.0


def _objective_value(settings_, objective) -> float:
    if objective == "operator_norm":
        return operator_norm(settings_)
    return abs(expectation(settings_.family.state(), bell_operator(settings_)))


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_construction_reaches_the_bound(objective, constraint, n_particles, data):
    # Boosts in the xy-plane, along +/-z and anywhere, at speeds up to the
    # largest double below 1.
    axes = data.draw(st.lists(boost_axes, min_size=n_particles, max_size=n_particles))
    beta = data.draw(st.one_of(st.floats(0.0, BETA_MAX),
                               st.sampled_from([0.0, 0.99999999, BETA_MAX])))
    built = optimal_settings(n_particles, axes, beta, constraint)
    if constraint == "free_sphere" or all(_in_plane_or_along_z(e) for e in axes):
        assert built is not None
    if built is None:
        return
    if constraint == "xy_plane":
        assert not any(d[2] for d in built.directions)
    # The inverse map divides by sqrt(1 - beta^2), which scales its rounding.
    miss = np.abs(built.effective_directions() - PEAK_TARGETS[n_particles]).max()
    assert miss <= 8 * EPS / math.sqrt((1.0 - beta) * (1.0 + beta))
    optimize = optimize_chsh if n_particles == 2 else optimize_mermin
    found, value = optimize(axes, beta, SearchConfig(constraint=constraint,
                                                     objective=objective))
    assert all(np.array_equal(d, e) for d, e in zip(found.directions, built.directions))
    assert value == _objective_value(built, objective)
    assert abs(value - BOUND[n_particles]) <= 4 * math.ulp(BOUND[n_particles])


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ascent_finds_nothing_above_the_construction(objective, constraint, n_particles):
    # The search is the oracle: from its own starts it reaches the
    # construction's value and never passes it by more than rounding.
    axes = (X_AXIS, X_AXIS) if n_particles == 2 else com_boosts()
    config = SearchConfig(constraint=constraint, restarts=1, grid_points_per_angle=6,
                          seed=3, objective=objective)
    _, value = _coordinate_ascent(n_particles, axes, 0.6, config)
    built = optimal_settings(n_particles, axes, 0.6, constraint)
    peak = _objective_value(built, objective)
    assert peak - 1e-6 <= value <= peak + 4 * math.ulp(peak)


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ascent_value_is_the_value_of_its_settings(objective, constraint, n_particles):
    # Every evaluation scores the Settings its angles build, so the returned
    # value is exactly _value of the returned settings.  A TILTED boost takes
    # the xy_plane construction off the plane, so there optimize runs this
    # very search.
    axes = (X_AXIS, TILTED, X_AXIS)[:n_particles]
    assert (optimal_settings(n_particles, axes, 0.6, constraint) is None) \
        == (constraint == "xy_plane")
    config = SearchConfig(constraint=constraint, restarts=1, grid_points_per_angle=4,
                          seed=9, objective=objective)
    found, value = _coordinate_ascent(n_particles, axes, 0.6, config)
    assert value == _value(found, objective)
