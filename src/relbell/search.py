"""Derivative-free maximization of Bell values over measurement settings.

Directions are parametrized by angles (one azimuth per direction in the
xy-plane constraint, polar plus azimuth on the free sphere).  Each restart
starts from a jittered grid node and runs coordinate-wise ascent: a coarse
scan of the jittered grid along one angle, then golden-section refinement
of the winning bracket, cycling over angles until a full pass improves the
objective by less than the refinement tolerance.  Restart streams are
seeded independently, so results are bit-reproducible and the best value
is non-decreasing in the number of restarts.

The operator_norm objective is scored in closed form from the effective
directions (chsh_operator_norm, mermin_operator_norm), so no operator is
built and no eigensolve runs per evaluation; the state_expectation
objective still builds the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    ChshSettings,
    MerminSettings,
    chsh_operator,
    chsh_operator_norm,
    mermin_operator,
    mermin_operator_norm,
)
from .errors import DomainError
from .linalg import expectation
from .observables import Boost
from .states import ghz_plus, phi_plus

CONSTRAINTS = ("xy_plane", "free_sphere")
OBJECTIVES = ("operator_norm", "state_expectation")

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
    refinement_tolerance: float = 1e-8
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
        if self.refinement_tolerance <= 0.0:
            raise DomainError("refinement_tolerance must be > 0")


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


def _angles_per_direction(constraint: str) -> int:
    return 1 if constraint == "xy_plane" else 2


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
    xtol = math.sqrt(config.refinement_tolerance)
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
            if value - pass_start < config.refinement_tolerance:
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


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"optimization requires 0 <= beta < 1, got {beta!r}")


def optimize_chsh(boost_directions, beta: float, config: SearchConfig | None = None,
                  frozen_settings: ChshSettings | None = None):
    """Maximize the two-qubit Bell value over the four directions at fixed
    boosts and speed.

    boost_directions is a pair of unit 3-vectors.  Returns (settings,
    value).  With frozen_settings the search space is empty and the
    objective is simply evaluated there (boost arguments are ignored).
    """
    config = config if config is not None else SearchConfig()
    _check_beta(beta)

    if config.objective == "operator_norm":
        state = None
    else:
        state = phi_plus()

    def score(settings: ChshSettings) -> float:
        if state is None:
            return chsh_operator_norm(settings)
        return abs(expectation(state, chsh_operator(settings)))

    if frozen_settings is not None:
        return frozen_settings, score(frozen_settings)

    boosts = tuple(Boost(d, beta) for d in boost_directions)
    if len(boosts) != 2:
        raise DomainError("expected exactly two boost directions")
    per = _angles_per_direction(config.constraint)

    def build(angles: np.ndarray) -> ChshSettings:
        d = _directions_from_angles(angles, config.constraint)
        return ChshSettings(d[0], d[1], d[2], d[3], boosts[0], boosts[1])

    angles, value = _maximize_over_angles(lambda ang: score(build(ang)),
                                          4 * per, config)
    return build(angles), value


def optimize_mermin(boost_directions, beta: float, config: SearchConfig | None = None,
                    frozen_settings: MerminSettings | None = None):
    """Maximize the three-qubit Bell value over the six directions at fixed
    boosts and speed.

    boost_directions is a triple of unit 3-vectors.  Returns (settings,
    value); frozen_settings short-circuits the search as in optimize_chsh.
    """
    config = config if config is not None else SearchConfig()
    _check_beta(beta)

    if config.objective == "operator_norm":
        state = None
    else:
        state = ghz_plus()

    def score(settings: MerminSettings) -> float:
        if state is None:
            return mermin_operator_norm(settings)
        return abs(expectation(state, mermin_operator(settings)))

    if frozen_settings is not None:
        return frozen_settings, score(frozen_settings)

    boosts = tuple(Boost(d, beta) for d in boost_directions)
    if len(boosts) != 3:
        raise DomainError("expected exactly three boost directions")
    per = _angles_per_direction(config.constraint)

    def build(angles: np.ndarray) -> MerminSettings:
        d = _directions_from_angles(angles, config.constraint)
        return MerminSettings(d[0], d[1], d[2], d[3], d[4], d[5],
                              boosts[0], boosts[1], boosts[2])

    angles, value = _maximize_over_angles(lambda ang: score(build(ang)),
                                          6 * per, config)
    return build(angles), value
