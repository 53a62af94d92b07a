"""The settings of the peak Bell value at fixed boosts.

Every effective direction is at most a unit vector, so no Bell value passes
2 sqrt(2) (two qubits) or 4 (three); the matched state attains the bound
when the effective directions are the rest-frame optimum: CHSH_A,
CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME for two particles, x then y on every
particle for three (Landau, Phys. Lett. A 120, 54, 1987).  For beta < 1 the
boost map is a bijection of the sphere, so optimal_settings builds that
optimum exactly, each direction the inverse_boost_map of its target.  Under
the xy_plane constraint its preimages keep z = 0 exactly when every boost
lies in the plane or along +/-z, which covers every geometry the command
line offers; for any other boost it raises DomainError.

optimize returns the construction with its value under the objective,
scored by _value: operator_norm, in closed form with no operator and no
eigensolve, or the matched-state expectation of bell_operator.  So the value
is the objective on the returned settings, bit for bit.  optimize_chsh and
optimize_mermin are optimize at 2 and 3 particles; no code in the package
calls them, and they stay only because the perfbench harness times and
traces them by name.
"""

from __future__ import annotations

import numpy as np

from .bell import Settings, bell_operator, operator_norm
from .errors import DomainError
from .linalg import expectation
from .observables import Boost, inverse_boost_map
from .scenarios import CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME, X_AXIS, Y_AXIS

CONSTRAINTS = ("xy_plane", "free_sphere")
OBJECTIVES = ("operator_norm", "state_expectation")


def _value(settings: Settings, objective: str) -> float:
    """The objective's value on settings: the operator norm, or the
    magnitude of the matched state's expectation."""
    if objective == "operator_norm":
        return operator_norm(settings)
    return abs(expectation(settings.family.state(), bell_operator(settings)))


#: Per particle count, the effective directions of the rest-frame optimum,
#: in Settings order.
PEAK_TARGETS = {2: np.array([CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME]),
                3: np.array([X_AXIS, Y_AXIS] * 3)}


def optimal_settings(n_particles: int, boost_directions, beta: float,
                     constraint: str) -> Settings:
    """Settings whose effective directions are PEAK_TARGETS[n_particles]
    under boosts along boost_directions at speed beta: an operator norm and
    a matched-state expectation of 2 sqrt(2) or 4, to a few ulps.

    Each direction is the inverse_boost_map of its target.  Raises
    DomainError when a preimage leaves the constraint's set: under
    xy_plane, when one has a nonzero z, which can happen only for a boost
    neither in the xy-plane nor along +/-z.
    """
    if constraint not in CONSTRAINTS:
        raise DomainError(f"constraint must be one of {CONSTRAINTS}")
    if n_particles not in PEAK_TARGETS:
        raise DomainError(f"n_particles must be 2 or 3, got {n_particles!r}")
    boosts = tuple(Boost(d, beta) for d in boost_directions)
    if len(boosts) != n_particles:
        raise DomainError(f"expected exactly {n_particles} boost directions")
    directions = inverse_boost_map(PEAK_TARGETS[n_particles],
                                   *Settings._axes_and_speeds(boosts))
    off_plane = directions[:, 2].nonzero()[0]
    if constraint == "xy_plane" and off_plane.size:
        particle = off_plane[0] // 2
        raise DomainError(
            f"the xy_plane constraint has no optimum under the boost along "
            f"{boosts[particle].direction.tolist()} of particle {particle + 1}: "
            "it lies neither in the xy-plane nor along +/-z")
    return Settings(directions, boosts)


def optimize(n_particles: int, boost_directions, beta: float, *,
             constraint: str = "xy_plane", objective: str = "operator_norm"):
    """The optimal_settings of n_particles (2 or 3) at fixed boosts and
    speed, with its value under the objective: operator_norm (the largest
    |<B>| over all states) or state_expectation (|<B>| on the matched state,
    Phi+ or GHZ).

    boost_directions holds one unit 3-vector per particle; constraint is one
    of CONSTRAINTS.  Returns (settings, value).
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"objective must be one of {OBJECTIVES}")
    settings = optimal_settings(n_particles, boost_directions, beta, constraint)
    return settings, _value(settings, objective)


def optimize_chsh(boost_directions, beta: float, **options):
    """optimize(2, ...)."""
    return optimize(2, boost_directions, beta, **options)


def optimize_mermin(boost_directions, beta: float, **options):
    """optimize(3, ...)."""
    return optimize(3, boost_directions, beta, **options)
