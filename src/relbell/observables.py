"""Boosted spin observables.

A spin measurement along the unit direction ``a``, performed on a particle
moving with speed ``beta`` (in units of c) along the unit direction ``e``,
is equivalent to an ordinary spin measurement along an effective direction:
the component of ``a`` parallel to ``e`` is kept, the perpendicular
component is scaled by sqrt(1 - beta^2), and the result is renormalized.
At beta = 0 the map is the identity, and directions parallel or
perpendicular to ``e`` are fixed points at every speed below 1.  The
squared norm before renormalizing, (1 - beta^2) + beta^2 (e.a)^2, is a sum
of nonnegative terms, so each effective direction is a unit vector to a
few ulps up to the fastest boost, and no Bell value passes 2 sqrt(2) or 4.

Each input is validated once, where it enters: Boost checks its direction
and speed, and bell.Settings checks each measurement direction with unit3.
Directions and speeds, lone or stacked, are checked once, as arrays:
unit3_stack and boost_speeds apply unit3's and Boost's tests in one pass,
require_unit_interval and require_xy_plane the closed forms' speed and
xy-plane tests, and each error carries the first failing row.
boost_map, inverse_boost_map and direction_matrix trust their input;
bell.Settings builds its observables through them.
effective_direction and observable_matrix, the same map and matrix for one
unit3-checked direction under one Boost, have no caller in the package;
they stay only because the perfbench harness times and traces them by name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateObservable, DomainError, DomainRestriction, Frozen
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, mm

UNIT_NORM_TOL = 1e-12
XY_PLANE_TOL = 1e-12
#: Smallest admissible normalization denominator.  Below this the effective
#: direction is ill-conditioned (beta -> 1 with the measurement direction
#: perpendicular to the boost) and construction refuses rather than emit
#: garbage; beta = 0.999999 with generic directions still constructs.
DENOMINATOR_FLOOR = 1e-9


def unit3(vector) -> np.ndarray:
    """Validate a real 3-vector of unit length and return it as an array."""
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size != 3:
        raise ValueError(f"expected 3 components, got {v.size}")
    return unit3_stack(v)


def unit3_stack(vectors) -> np.ndarray:
    """Validate real unit 3-vectors, one of shape (3,) or a stack (..., 3),
    with unit3's test in one pass: |v|^2 within UNIT_NORM_TOL of 1, which
    NaN fails.  The ValueError carries the |v|^2 of the first failing row in
    row-major order."""
    v = np.asarray(vectors, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    norms_sq = np.asarray(mm(v[..., None, :], v[..., None])[..., 0, 0])
    bad = ~(np.abs(norms_sq - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        raise ValueError(f"not a unit vector: |v|^2 = {float(norms_sq.flat[bad.argmax()])!r}")
    return v


def require_xy_plane(vectors) -> np.ndarray:
    """Refuse directions, one (3,) or a stack (..., 3), whose z is NaN or
    above XY_PLANE_TOL in magnitude: the paper's closed forms hold on the
    xy-plane.  The DomainRestriction names the first in row-major order."""
    v = np.asarray(vectors, dtype=float)
    off = ~(np.abs(v[..., 2]) <= XY_PLANE_TOL)
    if off.any():
        raise DomainRestriction(
            f"direction {v.reshape(-1, 3)[off.argmax()]} leaves the xy-plane; "
            "the closed form is not valid there")
    return v


def normalized3(vector) -> np.ndarray:
    """Scale an arbitrary nonzero, finite 3-vector to unit length."""
    v = np.asarray(vector, dtype=float).reshape(-1)
    if v.size != 3:
        raise ValueError(f"expected 3 components, got {v.size}")
    with np.errstate(over="ignore"):
        norm = math.sqrt(mm(v[None], v[:, None])[0, 0])
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm):
        raise ValueError(f"cannot normalize a vector of norm {norm!r}")
    return v / norm


class Boost(Frozen):
    """A particle boost: unit direction and speed beta in [0, 1).

    beta = 1 is rejected here because matrix construction degenerates in
    that limit; the ultrarelativistic endpoint exists only in the
    closed-form curve evaluators, which never build matrices.
    """

    __slots__ = ("direction", "beta")

    def __init__(self, direction, beta):
        object.__setattr__(self, "direction", unit3(direction))
        beta = float(beta)
        boost_speeds(beta)
        object.__setattr__(self, "beta", beta)


def _require(ok, values: np.ndarray, message: str) -> None:
    """Raise DomainError(message) with the element of values at the first
    False of ok in row-major order."""
    if not np.all(ok):
        raise DomainError(f"{message}, got {float(values.flat[np.argmax(~ok)])!r}")


def boost_speeds(beta) -> np.ndarray:
    """Validate boost speeds, a float or an array (or sequence) of them, with
    Boost's range 0 <= beta < 1 in one test, which NaN fails, and return them
    as a float array.  The DomainError carries the first failing speed in
    row-major order."""
    beta = np.asarray(beta, dtype=float)
    _require((0.0 <= beta) & (beta < 1.0), beta, "boost speed must satisfy 0 <= beta < 1")
    return beta


def require_unit_interval(beta) -> np.ndarray:
    """Reject a speed outside [0, 1], a float or an array (or sequence) of
    them, in one test, which NaN fails, and return them as a float array; the
    DomainError carries the first such speed in row-major order.  Closed forms
    admit the beta = 1 endpoint."""
    beta = np.asarray(beta, dtype=float)
    _require((0.0 <= beta) & (beta <= 1.0), beta, "beta must lie in [0, 1]")
    return beta


def shrink_sq(beta):
    """1 - beta^2, elementwise: the package's one spelling of 1.0 - beta * beta."""
    return 1.0 - beta * beta


def boost_denominator_sq(along, beta):
    """(1 - beta^2) + beta^2 along^2, elementwise: the squared normalization
    of the boost map for unit directions with component ``along`` on the
    boost axis, summed without cancellation.  Raises DegenerateObservable at
    or below DENOMINATOR_FLOOR squared, naming the first such element in
    row-major order."""
    denom_sq = shrink_sq(beta) + beta * beta * (along * along)
    degenerate = np.asarray(denom_sq <= DENOMINATOR_FLOOR * DENOMINATOR_FLOOR)
    if degenerate.any():
        first = float(np.asarray(denom_sq).flat[degenerate.argmax()])
        raise DegenerateObservable(
            f"normalization denominator {math.sqrt(max(first, 0.0)):g} "
            f"at or below {DENOMINATOR_FLOOR:g}")
    return denom_sq


def effective_direction(a, boost: Boost) -> np.ndarray:
    """Unit direction actually measured on the boosted particle.

    Computes (sqrt(1-beta^2) a_perp + a_par) / sqrt((1-beta^2) + beta^2 (e.a)^2)
    by decomposing ``a`` against the boost direction; no angles are involved,
    so there are no branch cuts.  At beta = 0 the input is returned exactly.
    Raises DegenerateObservable when the denominator underflows
    DENOMINATOR_FLOOR.
    """
    return boost_map(unit3(a), boost.direction, boost.beta)


def boost_map(a: np.ndarray, e: np.ndarray, beta) -> np.ndarray:
    """effective_direction of ``a``, already checked by unit3, under a boost
    along ``e`` at speed beta.

    One broadcast expression serves a lone direction and every stack:
    ``a`` and ``e`` of shapes (..., 3) and beta of shape (...) broadcast
    together, as (1, D, 3) against (R, 1) for R grid speeds, or (S, D, 3)
    against (S, D) for S samples with their own axes and speeds.  The
    arithmetic is elementwise, so each element gets the bits of its own
    lone call; beta = 0 copies ``a`` exactly, and boost_denominator_sq
    names the first degenerate element in row-major order.
    """
    beta = np.asarray(beta, dtype=float)[..., None]
    along = (e * a).sum(axis=-1, keepdims=True)
    denom_sq = boost_denominator_sq(along, beta)
    parallel = along * e
    n = (np.sqrt(shrink_sq(beta)) * (a - parallel) + parallel) / np.sqrt(denom_sq)
    return np.where(beta == 0.0, a, n)


def inverse_boost_map(t: np.ndarray, e: np.ndarray, beta) -> np.ndarray:
    """The rest-frame unit direction whose boost_map under a boost along
    ``e`` at speed beta is the unit direction ``t``: the perpendicular
    component is divided by sqrt(1 - beta^2) and the sum renormalized,

        along e + (t - along e) / sqrt(1 - beta^2),  along = e.t.

    For beta < 1 the boost map is a bijection of the sphere, so every unit
    ``t`` has this preimage, and one with zero z when ``t`` and ``e`` lie in
    the xy-plane.  Broadcasts as boost_map does and trusts its input the
    same way; beta = 0 copies ``t`` exactly.  ``along`` and the squared
    norm are taken by mm.
    """
    beta = np.asarray(beta, dtype=float)[..., None]
    parallel = mm(e[..., None, :], t[..., None])[..., 0] * e
    rest = parallel + (t - parallel) / np.sqrt(shrink_sq(beta))
    norm = np.sqrt(mm(rest[..., None, :], rest[..., None])[..., 0])
    return np.where(beta == 0.0, t, rest / norm)


def direction_matrix(n: np.ndarray) -> np.ndarray:
    """The 2x2 observable measuring spin along ``n``, a unit 3-vector array
    that boost_map has already produced, or a stack (..., 3) of them."""
    return (n[..., 0, None, None] * SIGMA_X + n[..., 1, None, None] * SIGMA_Y
            + n[..., 2, None, None] * SIGMA_Z)


def observable_matrix(a, boost: Boost) -> np.ndarray:
    """2x2 boosted spin observable: Hermitian, traceless, squares to I.

    The validating entry for a single direction: effective_direction checks
    ``a`` with unit3, then direction_matrix builds the matrix.  At beta = 0
    it reduces to the ordinary spin observable along ``a``.
    """
    return direction_matrix(effective_direction(a, boost))
