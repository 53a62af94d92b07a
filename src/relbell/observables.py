"""Boosted spin observables.

A spin measurement along the unit direction ``a``, performed on a particle
moving with speed ``beta`` (in units of c) along the unit direction ``e``,
is equivalent to an ordinary spin measurement along an effective direction:
the component of ``a`` parallel to ``e`` is kept, the perpendicular
component is scaled by sqrt(1 - beta^2), and the result is renormalized.
At beta = 0 the map is the identity, and directions parallel or
perpendicular to ``e`` are fixed points at every speed below 1.

Each input is validated once, where it enters: Boost checks its direction
and speed, and effective_direction and observable_matrix check ``a`` with
unit3.  boost_map and direction_matrix trust their input; bell.Settings
validates its directions once and builds its observables through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateObservable, DomainError
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z

UNIT_NORM_TOL = 1e-12
XY_PLANE_TOL = 1e-12
#: Smallest admissible normalization denominator.  Below this the effective
#: direction is ill-conditioned (beta -> 1 with the measurement direction
#: perpendicular to the boost) and construction refuses rather than emit
#: garbage; beta = 0.999999 with generic directions still constructs.
DENOMINATOR_FLOOR = 1e-9


def unit3(vector) -> np.ndarray:
    """Validate a real 3-vector of unit length and return it as an array."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size != 3:
        raise ValueError(f"expected 3 components, got {v.size}")
    if not abs(float(v @ v) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"not a unit vector: |v|^2 = {float(v @ v)!r}")
    return v


def normalized3(vector) -> np.ndarray:
    """Scale an arbitrary nonzero, finite 3-vector to unit length."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size != 3:
        raise ValueError(f"expected 3 components, got {v.size}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of norm {norm!r}")
    return v / norm


@dataclass(frozen=True)
class Boost:
    """A particle boost: unit direction and speed beta in [0, 1).

    beta = 1 is rejected here because matrix construction degenerates in
    that limit; the ultrarelativistic endpoint exists only in the
    closed-form curve evaluators, which never build matrices.
    """

    direction: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "direction", unit3(self.direction))
        beta = float(self.beta)
        if not 0.0 <= beta < 1.0:
            raise DomainError(f"boost speed must satisfy 0 <= beta < 1, got {beta!r}")
        object.__setattr__(self, "beta", beta)


def require_unit_interval(beta: float) -> None:
    """Reject a speed outside [0, 1]; closed forms admit the beta = 1 endpoint."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta!r}")


def boost_denominator_sq(along: float, beta: float) -> float:
    """1 + beta^2 (along^2 - 1), the squared normalization of the boost map
    for a unit direction with component ``along`` on the boost direction;
    raises DegenerateObservable at or below DENOMINATOR_FLOOR squared."""
    denom_sq = 1.0 + beta * beta * (along * along - 1.0)
    if denom_sq <= DENOMINATOR_FLOOR * DENOMINATOR_FLOOR:
        raise DegenerateObservable(
            f"normalization denominator {math.sqrt(max(denom_sq, 0.0)):g} "
            f"at or below {DENOMINATOR_FLOOR:g}")
    return denom_sq


def effective_direction(a, boost: Boost) -> np.ndarray:
    """Unit direction actually measured on the boosted particle.

    Computes (sqrt(1-beta^2) a_perp + a_par) / sqrt(1 + beta^2 ((e.a)^2 - 1))
    by decomposing ``a`` against the boost direction; no angles are involved,
    so there are no branch cuts.  At beta = 0 the input is returned exactly.
    Raises DegenerateObservable when the denominator underflows
    DENOMINATOR_FLOOR.
    """
    return boost_map(unit3(a), boost)


def boost_map(a: np.ndarray, boost: Boost) -> np.ndarray:
    """effective_direction of a direction that unit3 has already validated."""
    if boost.beta == 0.0:
        return a.copy()
    along = float(boost.direction @ a)
    parallel = along * boost.direction
    perpendicular = a - parallel
    denom_sq = boost_denominator_sq(along, boost.beta)
    shrink = math.sqrt(1.0 - boost.beta * boost.beta)
    return (shrink * perpendicular + parallel) / math.sqrt(denom_sq)


def direction_matrix(n: np.ndarray) -> np.ndarray:
    """The 2x2 observable measuring spin along ``n``, a unit 3-vector array
    that boost_map has already produced; ``n`` is not validated again."""
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def observable_matrix(a, boost: Boost) -> np.ndarray:
    """2x2 boosted spin observable: Hermitian, traceless, squares to I.

    The validating entry for a single direction: effective_direction checks
    ``a`` with unit3, then direction_matrix builds the matrix.  At beta = 0
    it reduces to the ordinary spin observable along ``a``.
    """
    return direction_matrix(effective_direction(a, boost))
