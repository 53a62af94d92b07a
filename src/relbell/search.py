"""Derivative-free maximization of Bell values over measurement settings.

Directions are parametrized by angles (one azimuth per direction in the
xy-plane constraint, polar plus azimuth on the free sphere).  Each restart
starts from a jittered grid node and runs coordinate-wise ascent: a coarse
scan of the jittered grid along one angle, then golden-section refinement
of the winning bracket, cycling over angles until a full pass improves the
objective by less than REFINEMENT_TOLERANCE.  Restart streams are
seeded independently, so results are bit-reproducible and the best value
is non-decreasing in the number of restarts.

One optimizer body serves two and three particles; optimize_chsh and
optimize_mermin pin the particle count.  The operator_norm objective is
scored in closed form from the effective directions, so no operator is
built and no eigensolve runs per evaluation.  A coordinate step moves one
angle of one particle, so the objective keeps, per particle, the last angle
slice it saw with that particle's k_i (norm) or observables (state), and
recomputes only the particles whose slice changed.  A recomputed particle
goes through the same unit3 check and boost_map (with its
DegenerateObservable floor) as a Settings would, and the value is combined
as operator_norm (bell.cross_norm, bell.norm_from_kappas) or bell_operator
(direction_matrix, the family's assembly) combines it, so every value is
bit-identical to the objective on the built settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import FAMILIES, Settings, cross_norm, norm_from_kappas
from .errors import DomainError
from .linalg import expectation
from .observables import Boost, boost_map, direction_matrix, unit3

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


def _angles_per_particle(constraint: str) -> int:
    """Angles of one particle's two directions: one per direction in the
    xy-plane, polar and azimuth on the free sphere."""
    return 2 if constraint == "xy_plane" else 4


def _objective(boosts, constraint: str, objective: str):
    """Angles -> the objective's value on the settings they build, recomputing
    what it keeps per particle (k_i or the two observables) only for the
    particles whose angle slice changed since the previous call."""
    width = _angles_per_particle(constraint)
    if objective == "operator_norm":
        per_particle, score = (lambda n: cross_norm(*n)), norm_from_kappas
    else:
        family = FAMILIES[len(boosts)]
        state = family.state()
        per_particle, score = (lambda n: direction_matrix(np.array(n))), (
            lambda parts: abs(expectation(state, family.assemble(*np.concatenate(parts)))))
    # Per particle: (angle bytes, kept value) of its last slice.
    cache = [(None, None)] * len(boosts)

    def evaluate(angles: np.ndarray) -> float:
        for i, boost in enumerate(boosts):
            part = angles[i * width:(i + 1) * width]
            key = part.tobytes()
            if key != cache[i][0]:
                n = [boost_map(unit3(d), boost.direction, boost.beta)
                     for d in _directions_from_angles(part, constraint)]
                cache[i] = (key, per_particle(n))
        return score([value for _, value in cache])

    return evaluate


def _optimize(n_particles: int, boost_directions, beta: float,
              config: SearchConfig | None):
    config = config if config is not None else SearchConfig()
    boosts = tuple(Boost(d, beta) for d in boost_directions)
    if len(boosts) != n_particles:
        raise DomainError(f"expected exactly {n_particles} boost directions")
    objective = _objective(boosts, config.constraint, config.objective)
    angles, value = _maximize_over_angles(
        objective, n_particles * _angles_per_particle(config.constraint), config)
    return Settings(_directions_from_angles(angles, config.constraint), boosts), value


def optimize_chsh(boost_directions, beta: float, config: SearchConfig | None = None):
    """Maximize the two-qubit Bell value over the four directions at fixed
    boosts and speed.

    boost_directions is a pair of unit 3-vectors.  Returns (settings,
    value).
    """
    return _optimize(2, boost_directions, beta, config)


def optimize_mermin(boost_directions, beta: float, config: SearchConfig | None = None):
    """Maximize the three-qubit Bell value over the six directions at fixed
    boosts and speed.

    boost_directions is a triple of unit 3-vectors.  Returns (settings,
    value).
    """
    return _optimize(3, boost_directions, beta, config)
