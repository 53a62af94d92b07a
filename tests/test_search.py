"""Optimizer tests: the constructed optimum, its refusal where it leaves
the constraint, and the coordinate-ascent oracle of helpers, which must
reach the known peaks and find nothing above the construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BETA_MAX, BOUND, boost_axes, coordinate_ascent
from relbell.bell import bell_operator, max_violation, operator_norm
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
    OBJECTIVES,
    PEAK_TARGETS,
    _value,
    optimal_settings,
    optimize,
)

ROOT8 = 2.0 * math.sqrt(2.0)
EPS = np.finfo(float).eps
#: A boost axis off the xy-plane: under the xy_plane constraint at beta > 0
#: the construction's preimage of the x target leaves the plane.
TILTED = np.array([0.6, 0.0, 0.8])

FAST_XY = dict(constraint="xy_plane", objective="operator_norm", restarts=2,
               grid_points=8, seed=404)
FAST_FREE = dict(FAST_XY, constraint="free_sphere")


def test_config_validation():
    with pytest.raises(DomainError):
        optimize(2, (X_AXIS, X_AXIS), 0.5, constraint="banana")
    with pytest.raises(DomainError):
        optimize(3, com_boosts(), 0.5, objective="nonsense")
    for n_particles in (1, 4):
        with pytest.raises(DomainError, match=f"n_particles must be 2 or 3, got {n_particles}"):
            optimize(n_particles, (X_AXIS,) * n_particles, 0.5)


def test_beta_domain():
    with pytest.raises(DomainError):
        optimize(2, (X_AXIS, X_AXIS), 1.0)
    with pytest.raises(DomainError):
        optimize(3, com_boosts(), -0.1)
    with pytest.raises(DomainError):
        optimize(2, (X_AXIS, TILTED), 1.0)
    with pytest.raises(DomainError):
        optimal_settings(2, (X_AXIS, X_AXIS), 0.5, "banana")
    with pytest.raises(DomainError):
        optimal_settings(3, (X_AXIS, X_AXIS), 0.5, "free_sphere")


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("n_particles", [2, 3])
def test_off_plane_boost_has_no_xy_plane_optimum(n_particles, objective):
    # The construction's preimages leave the plane; optimize refuses rather
    # than return settings outside the constraint or short of the peak.
    axes = (X_AXIS, TILTED, X_AXIS)[:n_particles]
    with pytest.raises(DomainError, match=r"xy_plane .* \[0\.6, 0\.0, 0\.8\] of particle 2"):
        optimize(n_particles, axes, 0.5, constraint="xy_plane", objective=objective)
    _, value = optimize(n_particles, axes, 0.5, constraint="free_sphere", objective=objective)
    assert abs(value - BOUND[n_particles]) <= 4 * math.ulp(BOUND[n_particles])


def test_chsh_free_sphere_is_boost_invariant():
    # The direction map is onto the sphere for beta < 1, so the free-sphere
    # optimum cannot depend on the speed.
    _, rest_value = coordinate_ascent((X_AXIS, X_AXIS), 0.0, **FAST_FREE)
    assert abs(rest_value - ROOT8) < 1e-5
    assert rest_value <= ROOT8 + 1e-9
    for beta in (0.3, 0.6, 0.9):
        _, value = coordinate_ascent((X_AXIS, X_AXIS), beta, **FAST_FREE)
        assert abs(value - rest_value) < 1e-5
        assert value <= ROOT8 + 1e-9


def test_chsh_xy_beats_collinear_curve():
    _, value = coordinate_ascent((X_AXIS, X_AXIS), 0.8, **FAST_XY)
    assert value >= epsilon2(0.8) - 1e-6
    assert value <= ROOT8 + 1e-9


def test_mermin_free_sphere_rest_frame():
    _, value = coordinate_ascent((X_AXIS,) * 3, 0.0, constraint="free_sphere",
                                 objective="operator_norm", restarts=1,
                                 grid_points=8, seed=7)
    assert abs(value - 4.0) < 1e-5
    assert value <= 4.0 + 1e-9


def test_mermin_xy_center_of_mass():
    _, value = coordinate_ascent(com_boosts(), 0.6, constraint="xy_plane",
                                 objective="operator_norm", restarts=2,
                                 grid_points=8, seed=5)
    assert value >= epsilon3_com(0.6) - 1e-6
    assert value <= 4.0 + 1e-9


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_chsh_value_is_brute_force_norm(config, beta):
    # The objective is scored in closed form; the returned value must still
    # be the Jacobi spectrum of the returned settings.
    settings, value = coordinate_ascent((X_AXIS, TILTED), beta, **config)
    assert abs(value - max_violation(bell_operator(settings))) <= 1e-12


@pytest.mark.parametrize("config", [FAST_XY, FAST_FREE], ids=["xy", "free"])
@pytest.mark.parametrize("boosts", ["collinear", "com"])
def test_mermin_value_is_brute_force_norm(config, boosts):
    directions = (X_AXIS,) * 3 if boosts == "collinear" else com_boosts()
    settings, value = coordinate_ascent(directions, 0.6, **config)
    assert abs(value - max_violation(bell_operator(settings))) <= 1e-12


def test_state_expectation_objective():
    _, value = coordinate_ascent((X_AXIS, X_AXIS), 0.0, constraint="xy_plane",
                                 objective="state_expectation", restarts=2,
                                 grid_points=8, seed=2)
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
    try:
        built = optimal_settings(n_particles, axes, beta, constraint)
    except DomainError:
        assert constraint == "xy_plane"
        assert not all(_in_plane_or_along_z(e) for e in axes)
        with pytest.raises(DomainError):
            optimize(n_particles, axes, beta, constraint=constraint, objective=objective)
        return
    if constraint == "xy_plane":
        assert not any(d[2] for d in built.directions)
    # The inverse map divides by sqrt(1 - beta^2), which scales its rounding.
    miss = np.abs(built.effective_directions() - PEAK_TARGETS[n_particles]).max()
    assert miss <= 8 * EPS / math.sqrt((1.0 - beta) * (1.0 + beta))
    found, value = optimize(n_particles, axes, beta, constraint=constraint,
                            objective=objective)
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
    _, value = coordinate_ascent(axes, 0.6, constraint=constraint, objective=objective,
                                 restarts=1, grid_points=6, seed=3)
    built = optimal_settings(n_particles, axes, 0.6, constraint)
    peak = _objective_value(built, objective)
    assert peak - 1e-6 <= value <= peak + 4 * math.ulp(peak)


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("constraint", CONSTRAINTS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ascent_value_is_the_value_of_its_settings(objective, constraint, n_particles):
    # Every evaluation scores the Settings its angles build, so the returned
    # value is exactly _value of the returned settings, under boosts off the
    # plane too.
    axes = (X_AXIS, TILTED, X_AXIS)[:n_particles]
    found, value = coordinate_ascent(axes, 0.6, constraint=constraint, objective=objective,
                                     restarts=1, grid_points=4, seed=9)
    assert value == _value(found, objective)
