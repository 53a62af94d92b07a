"""Maximization of Bell values over measurement settings.

Every effective direction is at most a unit vector, so no Bell value passes
2 sqrt(2) (two qubits) or 4 (three); the matched state attains the bound
when the effective directions are the rest-frame optimum: CHSH_A,
CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME for two particles, x then y on every
particle for three.  For beta < 1 the boost map is a bijection of the
sphere, so optimal_settings builds that optimum exactly, each direction
the inverse_boost_map of its target.  Under the xy_plane constraint its
preimages keep z = 0 exactly when every boost lies in the plane or along
+/-z, which covers every geometry the command line offers; optimize_chsh
and optimize_mermin return the construction whenever its preimages lie in
the constraint's set, with its value scored by _value as the search's is.

Otherwise they run a derivative-free search.  Directions are parametrized
by angles (one azimuth per direction in the xy-plane constraint, polar
plus azimuth on the free sphere).  Each restart starts from a jittered
grid node and runs coordinate-wise ascent: a coarse scan of the jittered
grid along one angle, then golden-section refinement of the winning
bracket, cycling over angles until a full pass improves the objective by
less than REFINEMENT_TOLERANCE.  Restart streams are seeded independently,
so results are bit-reproducible and the best value is non-decreasing in
the number of restarts.  SearchConfig's restarts, grid points and seed
steer this search alone.

Every evaluation builds the Settings its angles give and scores it with
_value: operator_norm, in closed form with no operator and no eigensolve,
or the matched-state expectation of bell_operator.  So every value, the
construction's included, is the objective on the returned settings, bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import Settings, bell_operator, operator_norm
from .errors import DomainError
from .linalg import expectation
from .observables import Boost, inverse_boost_map
from .scenarios import CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME, X_AXIS, Y_AXIS

CONSTRAINTS = ("xy_plane", "free_sphere")
OBJECTIVES = ("operator_norm", "state_expectation")

#: A restart stops after a pass over every angle that improves the objective
#: by less than this; golden-section refinement stops at its square root.
REFINEMENT_TOLERANCE = 1e-8
#: The most coarse grid points per angle: past it the grid spacing 2 pi / N
#: is finer than the golden-section tolerance sqrt(REFINEMENT_TOLERANCE).
MAX_GRID_POINTS = int(2.0 * math.pi / math.sqrt(REFINEMENT_TOLERANCE))

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Optimizer knobs.

    constraint picks the direction parametrization; objective picks the
    quantity maximized: the operator norm (attainable |<B>| over all
    states) or the fixed-state expectation magnitude on the matched
    maximally entangled state.
    """

    constraint: str = "xy_plane"
    restarts: int = 16
    grid_points_per_angle: int = 24
    seed: int = 0
    objective: str = "operator_norm"

    def __post_init__(self):
        if self.constraint not in CONSTRAINTS:
            raise DomainError(f"constraint must be one of {CONSTRAINTS}")
        if self.objective not in OBJECTIVES:
            raise DomainError(f"objective must be one of {OBJECTIVES}")
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")
        if self.grid_points_per_angle < 2:
            raise DomainError("grid_points_per_angle must be >= 2")
        if self.grid_points_per_angle > MAX_GRID_POINTS:
            raise DomainError(f"grid_points_per_angle must be <= {MAX_GRID_POINTS}, "
                              f"got {self.grid_points_per_angle}")


def _directions_from_angles(angles: np.ndarray, constraint: str) -> list[np.ndarray]:
    if constraint == "xy_plane":
        return [np.array([math.cos(t), math.sin(t), 0.0]) for t in angles]
    dirs = []
    for k in range(0, angles.size, 2):
        theta, phi = angles[k], angles[k + 1]
        sin_t = math.sin(theta)
        dirs.append(np.array([sin_t * math.cos(phi),
                              sin_t * math.sin(phi),
                              math.cos(theta)]))
    return dirs


def _golden_max(f, lo: float, hi: float, xtol: float):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = f(c)
    fd = f(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def _maximize_over_angles(objective, n_angles: int, config: SearchConfig):
    """Shared restart / coordinate-ascent loop.  objective maps an angle
    vector to a float; ties between restarts break on first-found."""
    spacing = 2.0 * math.pi / config.grid_points_per_angle
    xtol = math.sqrt(REFINEMENT_TOLERANCE)
    grid = spacing * np.arange(config.grid_points_per_angle)

    best_angles = None
    best_value = -math.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        offsets = rng.uniform(0.0, spacing, n_angles)
        start_nodes = rng.integers(0, config.grid_points_per_angle, n_angles)
        x = offsets + spacing * start_nodes
        value = objective(x)
        while True:
            pass_start = value
            for k in range(n_angles):
                x, value = _improve_coordinate(objective, x, k, offsets[k],
                                               grid, spacing, xtol, value)
            if value - pass_start < REFINEMENT_TOLERANCE:
                break
        if value > best_value:
            best_value = value
            best_angles = x
    return best_angles, best_value


def _improve_coordinate(objective, x, k, offset, grid, spacing, xtol, current):
    candidates = offset + grid
    best_t = x[k]
    best_v = current
    probe = x.copy()
    for t in candidates:
        probe[k] = t
        v = objective(probe)
        if v > best_v:
            best_t, best_v = t, v

    def line(t):
        probe[k] = t
        return objective(probe)

    refined_t, refined_v = _golden_max(line, best_t - spacing, best_t + spacing, xtol)
    if refined_v > best_v:
        best_t, best_v = refined_t, refined_v
    out = x.copy()
    out[k] = best_t
    return out, best_v


def _angles_per_direction(constraint: str) -> int:
    """One azimuth in the xy-plane; polar and azimuth on the free sphere."""
    return 1 if constraint == "xy_plane" else 2


def _value(settings: Settings, objective: str) -> float:
    """The objective's value on settings: the operator norm, or the
    magnitude of the matched state's expectation."""
    if objective == "operator_norm":
        return operator_norm(settings)
    return abs(expectation(settings.family.state(), bell_operator(settings)))


def _boosts(n_particles: int, boost_directions, beta: float) -> tuple:
    boosts = tuple(Boost(d, beta) for d in boost_directions)
    if len(boosts) != n_particles:
        raise DomainError(f"expected exactly {n_particles} boost directions")
    return boosts


#: Per particle count, the effective directions of the rest-frame optimum,
#: in Settings order.
PEAK_TARGETS = {2: np.array([CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME]),
                3: np.array([X_AXIS, Y_AXIS] * 3)}


def optimal_settings(n_particles: int, boost_directions, beta: float,
                     constraint: str) -> Settings | None:
    """Settings whose effective directions are PEAK_TARGETS[n_particles]
    under boosts along boost_directions at speed beta: an operator norm and
    a matched-state expectation of 2 sqrt(2) or 4, to a few ulps.

    Each direction is the inverse_boost_map of its target.  Returns None
    when a preimage leaves the constraint's set: under xy_plane, when one
    has a nonzero z, which can happen only for a boost neither in the
    xy-plane nor along +/-z.
    """
    if constraint not in CONSTRAINTS:
        raise DomainError(f"constraint must be one of {CONSTRAINTS}")
    boosts = _boosts(n_particles, boost_directions, beta)
    axes = np.array([boost.direction for boost in boosts for _ in range(2)])
    directions = inverse_boost_map(PEAK_TARGETS[n_particles], axes, boosts[0].beta)
    if constraint == "xy_plane" and directions[:, 2].any():
        return None
    return Settings(directions, boosts)


def _coordinate_ascent(n_particles: int, boost_directions, beta: float,
                       config: SearchConfig):
    """The restarted coordinate-ascent search of the module docstring."""
    boosts = _boosts(n_particles, boost_directions, beta)

    def build(angles: np.ndarray) -> Settings:
        return Settings(_directions_from_angles(angles, config.constraint), boosts)

    angles, value = _maximize_over_angles(
        lambda angles: _value(build(angles), config.objective),
        2 * n_particles * _angles_per_direction(config.constraint), config)
    return build(angles), value


def _optimize(n_particles: int, boost_directions, beta: float,
              config: SearchConfig | None):
    config = config if config is not None else SearchConfig()
    settings = optimal_settings(n_particles, boost_directions, beta, config.constraint)
    if settings is None:
        return _coordinate_ascent(n_particles, boost_directions, beta, config)
    return settings, _value(settings, config.objective)


def optimize_chsh(boost_directions, beta: float, config: SearchConfig | None = None):
    """Maximize the two-qubit Bell value over the four directions at fixed
    boosts and speed: optimal_settings when its directions satisfy the
    constraint, else the coordinate-ascent search.

    boost_directions is a pair of unit 3-vectors.  Returns (settings,
    value).
    """
    return _optimize(2, boost_directions, beta, config)


def optimize_mermin(boost_directions, beta: float, config: SearchConfig | None = None):
    """Maximize the three-qubit Bell value over the six directions at fixed
    boosts and speed: optimal_settings when its directions satisfy the
    constraint, else the coordinate-ascent search.

    boost_directions is a triple of unit 3-vectors.  Returns (settings,
    value).
    """
    return _optimize(3, boost_directions, beta, config)
