"""Two- and three-qubit Bell operators built from boosted spin observables.

One Settings class holds two directions and a boost per particle; what the
particle count fixes (sign table, matched state) lives in the FAMILIES
table at the end of this module.  The sign table defines the operator:
AB + AB' + A'B - A'B' for two qubits, AB'C' + A'BC' + A'B'C - ABC for
three, built by Family.signed_sum term by term in table order.  The
paper's closed forms chsh_zeta and mermin_lambda3 hold on the geometries
where they were derived (observables.require_xy_plane decides the plane)
and refuse other inputs; operator_norm holds for every setting and needs no
matrix.  Effective directions n, (D, 3) or (..., D, 3), become Bell values
through square_peak_from_directions or Family.operators.  ChshSettings,
MerminSettings, chsh_operator, mermin_operator and mermin_terms (Settings,
bell_operator and bell_terms by particle count) stay only because the
perfbench harness uses them by name.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, DomainRestriction, Frozen
from .linalg import IDENTITY_2, Planes, hermitian_eigenvalues, kron, lone, mm, planes
from .observables import (
    XY_PLANE_TOL,
    Boost,
    boost_denominator_sq,
    boost_map,
    boost_speeds,
    direction_matrix,
    direction_planes,
    require_xy_plane,
    shrink_sq,
    unit3,
)
from .states import ghz_plus, phi_plus

#: Names of the directions, in Settings order: (d, d') per particle.
DIRECTION_NAMES = ("a", "a_prime", "b", "b_prime", "c", "c_prime")


class Settings(Frozen):
    """Two measurement directions and one boost per particle, for 2 or 3
    particles: directions runs a, a', b, b' (then c, c').  Each direction is
    validated by unit3 once, here."""

    __slots__ = ("directions", "boosts")

    def __init__(self, directions, boosts):
        boosts = tuple(boosts)
        if len(boosts) not in FAMILIES or len(directions) != 2 * len(boosts):
            raise DomainError(
                "settings need 2 or 3 boosts and two directions per particle, "
                f"got {len(directions)} directions and {len(boosts)} boosts")
        object.__setattr__(self, "directions", tuple([unit3(d) for d in directions]))
        object.__setattr__(self, "boosts", boosts)

    @property
    def n_particles(self) -> int:
        return len(self.boosts)

    @property
    def family(self) -> "Family":
        return FAMILIES[self.n_particles]

    def prime_swapped(self) -> "Settings":
        """Exchange primed and unprimed directions on every particle."""
        d = self.directions
        return Settings(tuple([d[i ^ 1] for i in range(len(d))]), self.boosts)

    @staticmethod
    def _axes_and_speeds(boosts) -> tuple[np.ndarray, np.ndarray]:
        """The (D, 3) boost axes and (D,) speeds of the directions that
        boosts, one per particle, act on: each boost twice, for d and d'."""
        per_direction = [boost for boost in boosts for _ in range(2)]
        return (np.array([boost.direction for boost in per_direction]),
                np.array([boost.beta for boost in per_direction]))

    def effective_directions(self) -> np.ndarray:
        """The (D, 3) effective directions, from one boost_map call."""
        return boost_map(np.array(self.directions), *self._axes_and_speeds(self.boosts))


def ChshSettings(a, a_prime, b, b_prime, boost1: Boost, boost2: Boost) -> Settings:
    """Two-particle Settings from positional directions and boosts."""
    return Settings((a, a_prime, b, b_prime), (boost1, boost2))


def MerminSettings(a, a_prime, b, b_prime, c, c_prime,
                   boost1: Boost, boost2: Boost, boost3: Boost) -> Settings:
    """Three-particle Settings from positional directions and boosts."""
    return Settings((a, a_prime, b, b_prime, c, c_prime), (boost1, boost2, boost3))


def effective_observables(settings: Settings) -> np.ndarray:
    """The (D, 2, 2) effective observables of one Settings, from one
    direction_matrix call."""
    return direction_matrix(settings.effective_directions())


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return mm(x, y) - mm(y, x)


def square_closed_form(observables, legs=None) -> np.ndarray:
    """The squared Bell operator from the effective observables, (D, 2, 2)
    as effective_observables gives them or stacked (D, ..., 2, 2): 4 I minus
    one Kronecker product per term of legs, a term listing qubit by qubit
    the particle whose commutator [D, D'] acts there (None: identity).

    The default terms put each pair i < j on qubits i and j, in the order 12,
    13, 23: 4 I - [A,A'](x)[B,B'] for two qubits (Landau, Phys. Lett. A 120,
    54, 1987), 4 I - [A,A'](x)[B,B'](x)I - [A,A'](x)I(x)[C,C'] - I(x)[B,B'](x)[C,C']
    for three, as direct expansion gives; verify also scores one that does not.
    """
    coms = [commutator(observables[i], observables[i + 1])
            for i in range(0, len(observables), 2)]
    n = len(coms)
    if legs is None:
        legs = [tuple(q if q in pair else None for q in range(n))
                for pair in itertools.combinations(range(n), 2)]
    square = 4.0 * np.eye(2 ** n, dtype=complex)
    for term in legs:
        square = square - kron(*[IDENTITY_2 if p is None else coms[p] for p in term])
    return square


def chsh_in_plane_terms(directions, beta):
    """(1 - beta^2, sin(phi_a - phi_a'), sin(phi_b - phi_b'), prod_v D_v),
    the terms of chsh_zeta, for xy-plane directions of shape (..., 4, 3) in
    Settings order with both particles boosted along x at speed beta (...):
    four arrays (...), each element the bits of a lone Settings' terms.
    Trusts its input, which chsh_zeta checks.  No angle is taken:
    sin(phi_d - phi_d') is the cross product d_y d'_x - d_x d'_y."""
    directions = np.asarray(directions, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d, d_prime = directions[..., 0::2, :], directions[..., 1::2, :]
    sines = d[..., 1] * d_prime[..., 0] - d[..., 0] * d_prime[..., 1]
    denom = boost_denominator_sq(directions[..., 0], beta[..., None])
    return (shrink_sq(beta), sines[..., 0], sines[..., 1],
            denom[..., 0] * denom[..., 1] * denom[..., 2] * denom[..., 3])


def chsh_operator(settings) -> np.ndarray:
    """bell_operator of two-particle settings."""
    return bell_operator(settings)


def bell_terms(settings: Settings):
    """(label, sign, observables) of each term of the sign table, whose
    signed Kronecker sum is the Bell operator."""
    obs = effective_observables(settings)
    return [(label, sign, tuple([obs[i] for i in picks]))
            for label, sign, picks in settings.family.terms]


def mermin_terms(settings: Settings):
    """bell_terms of three-particle settings."""
    return bell_terms(settings)


def chsh_zeta(settings: Settings) -> float:
    """Largest eigenvalue of the squared two-qubit operator, in [4, 8], in
    closed form for two particles with xy-plane directions boosted along x at
    a common speed: other settings raise DomainError, other geometry
    DomainRestriction."""
    if settings.n_particles != 2:
        raise DomainError(f"closed form requires two particles, got {settings.n_particles}")
    require_xy_plane(settings.directions)
    axes, speeds = Settings._axes_and_speeds(settings.boosts)
    if not (np.all(np.abs(axes[:, 1:]) <= XY_PLANE_TOL) and np.ptp(speeds) <= 1e-15):
        raise DomainRestriction(
            "closed form requires collinear x boosts with a common speed")
    return float(chsh_zeta_from_terms(*chsh_in_plane_terms(settings.directions, speeds[0])))


def chsh_zeta_from_terms(shrink_sq, sin_a, sin_b, denom):
    """4 (1 + (1 - beta^2) |sin(phi_a - phi_a') sin(phi_b - phi_b')| /
    sqrt(prod_v D_v)) from chsh_in_plane_terms, elementwise: the stacked
    core of chsh_zeta, each element the bits of a lone call."""
    return 4.0 * (1.0 + shrink_sq * np.abs(sin_a * sin_b) / np.sqrt(denom))


def mermin_operator(settings) -> np.ndarray:
    """bell_operator of three-particle settings."""
    return bell_operator(settings)


def cross_norms(n) -> np.ndarray:
    """Each particle's k_i = |d x d'|, the cross-product magnitude of its two
    effective directions, from n of shape (..., D, 3) in Settings order: an
    array (..., D/2), elementwise on the float components."""
    n = np.asarray(n, dtype=float)
    n0, n1, n2 = np.moveaxis(n[..., 0::2, :], -1, 0)
    m0, m1, m2 = np.moveaxis(n[..., 1::2, :], -1, 0)
    x = n1 * m2 - n2 * m1
    y = n2 * m0 - n0 * m2
    z = n0 * m1 - n1 * m0
    return np.sqrt(x * x + y * y + z * z)


def mermin_lambda3(settings: Settings) -> float:
    """Largest eigenvalue of the squared three-qubit operator,
    4 (1 + k1 k2 + k1 k3 + k2 k3), k_i the magnitude of the cross product of
    particle i's two effective directions.  The formula holds for every
    setting (see operator_norm), but this validator keeps to the geometry it
    was derived on: every measurement and boost direction in the xy-plane.
    """
    require_xy_plane(settings.directions)
    require_xy_plane([boost.direction for boost in settings.boosts])
    return float(square_peak_from_directions(settings.effective_directions()))


def square_peak_from_directions(n):
    """4 (1 + sum_{i<j} k_i k_j), the largest eigenvalue of the squared Bell
    operator, from effective directions n (..., D, 3) in Settings order, the
    pairs summed in the order 12, 13, 23: an array (...), each element the
    bits of its own lone call; mermin_lambda3 without its domain check."""
    kappas = cross_norms(n)
    total = 1.0
    for i, j in itertools.combinations(range(kappas.shape[-1]), 2):
        total = total + kappas[..., i] * kappas[..., j]
    return 4.0 * total


def max_violation(matrices):
    """Largest |eigenvalue| of a Hermitian operator: the attainable |<B>|
    over all states.  A float for one matrix; for a stack (..., n, n) or its
    Planes, an array (...) of one value per matrix from a single eigensolve."""
    return lone(np.max(np.abs(hermitian_eigenvalues(matrices)), axis=-1))


def operator_norm(settings: Settings) -> float:
    """max |<B>| of the Bell operator, for any directions and boosts:
    2 sqrt(1 + sum_{i<j} k_i k_j) with k_i the cross-product magnitude of
    particle i's two effective directions.

    With u_i that cross product, [D_i, D_i'] = 2i u_i.sigma, so B^2 is 4 I
    plus 4 (u_i.sigma)(u_j.sigma) on every pair i < j; those terms commute
    and u_i.sigma has eigenvalues +/-k_i, so the top eigenvalue takes all
    signs equal (Landau, Phys. Lett. A 120, 54, 1987, for two qubits).  The
    square root of square_peak_from_directions: scaling by 4 is exact, so
    that is 2 sqrt(1 + ...) bit for bit.
    """
    return math.sqrt(square_peak_from_directions(settings.effective_directions()))


def bell_operator(settings: Settings) -> np.ndarray:
    """The Bell operator of the settings' family, from their effective
    directions."""
    return settings.family.operators(settings.effective_directions())


def effective_directions_grid(settings: Settings, betas) -> np.ndarray:
    """The (R, D, 3) effective directions of the settings with every particle
    boosted at each speed of betas (all below 1) instead of its own, from one
    boost_map call: row r is effective_directions() at betas[r], bit for bit.
    boost_speeds checks betas and names the first bad speed."""
    betas = boost_speeds(betas)
    axes, _ = Settings._axes_and_speeds(settings.boosts)
    return boost_map(np.array(settings.directions), axes, betas[:, None])


class Family(NamedTuple):
    """What the particle count fixes: the operator's name, its sign table of
    (label, sign, observable indices) terms (first sign +1), which is the
    operator's one definition, and the matched maximally entangled state."""

    name: str
    terms: tuple
    state: Callable[[], np.ndarray]

    def operators(self, n) -> np.ndarray:
        """operator_planes(n) as a complex (..., d, d) array."""
        return self.operator_planes(n).matrices()

    def operator_planes(self, n) -> Planes:
        """The Bell operators of effective directions n (..., D, 3) in Settings
        order, as Planes from one direction_planes call, each the bits of its
        own lone build."""
        return self.signed_sum(direction_planes(np.moveaxis(n, -2, 0)))

    def signed_sum(self, observables):
        """The Bell operators (..., d, d) of observables (D, ..., 2, 2), or
        Planes (2, 2, D, ...), in Settings order: the Kronecker product of
        each term's observables, added or subtracted by its sign, term by
        term in table order; Planes for Planes."""
        (_, _, first), *rest = self.terms
        each = planes(observables)
        operator = kron(*[each[i] for i in first])
        for _, sign, picks in rest:
            product = kron(*[each[i] for i in picks])
            operator = operator + product if sign > 0 else operator - product
        return operator if isinstance(observables, Planes) else operator.matrices()


def _sign_table(*terms):
    """(label, sign, observable indices) from (label, sign): the i-th factor
    of a label picks particle i's primed observable when it carries a prime."""
    return tuple(
        (label, sign, tuple(2 * i + factor.endswith("'")
                            for i, factor in enumerate(re.findall("[a-z]'?", label))))
        for label, sign in terms)


FAMILIES = {
    2: Family("chsh",
              _sign_table(("ab", 1), ("ab'", 1), ("a'b", 1), ("a'b'", -1)),
              phi_plus),
    3: Family("mermin",
              _sign_table(("ab'c'", 1), ("a'bc'", 1), ("a'b'c", 1), ("abc", -1)),
              ghz_plus),
}
