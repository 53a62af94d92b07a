"""Two- and three-qubit Bell operators built from boosted spin observables.

One Settings class holds two directions and a boost per particle; what the
particle count fixes (operator, sign table, matched state, closed-form
square peak) lives in the FAMILIES table at the end of this module.  The
two-qubit operator is A(B + B') + A'(B - B'); the three-qubit operator is
the four-term combination A B'C' + A'B C' + A'B'C - A B C.  Closed forms
for the squares and their largest eigenvalues are provided on the
restricted measurement geometries where they were derived, and refuse
other inputs instead of extrapolating.  operator_norm holds for every
setting and needs no matrix at all.  Brute-force matrix algebra is the
ground truth every closed form is checked against.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, DomainRestriction
from .linalg import IDENTITY_2, SIGMA_Z, hermitian_eigensystem, kron, kron3
from .observables import (
    XY_PLANE_TOL,
    Boost,
    boost_denominator_sq,
    boost_map,
    direction_matrix,
    unit3,
)
from .states import ghz_plus, phi_plus

#: Names of the directions, in Settings order: (d, d') per particle.
DIRECTION_NAMES = ("a", "a_prime", "b", "b_prime", "c", "c_prime")


@dataclass(frozen=True, eq=False)
class Settings:
    """Two measurement directions and one boost per particle, for 2 or 3
    particles: directions runs a, a', b, b' (then c, c').  Each direction is
    validated by unit3 once, here."""

    directions: tuple
    boosts: tuple

    def __post_init__(self):
        boosts = tuple(self.boosts)
        if len(boosts) not in FAMILIES or len(self.directions) != 2 * len(boosts):
            raise DomainError(
                "settings need 2 or 3 boosts and two directions per particle, "
                f"got {len(self.directions)} directions and {len(boosts)} boosts")
        object.__setattr__(self, "directions",
                           tuple([unit3(d) for d in self.directions]))
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

    def effective_directions(self):
        return tuple([boost_map(d, self.boosts[i // 2])
                      for i, d in enumerate(self.directions)])

    def effective_observables(self):
        """The 2x2 observables, each built under its particle's boost."""
        return tuple([direction_matrix(n) for n in self.effective_directions()])


def ChshSettings(a, a_prime, b, b_prime, boost1: Boost, boost2: Boost) -> Settings:
    """Two-particle Settings from positional directions and boosts."""
    return Settings((a, a_prime, b, b_prime), (boost1, boost2))


def MerminSettings(a, a_prime, b, b_prime, c, c_prime,
                   boost1: Boost, boost2: Boost, boost3: Boost) -> Settings:
    """Three-particle Settings from positional directions and boosts."""
    return Settings((a, a_prime, b, b_prime, c, c_prime), (boost1, boost2, boost3))


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _commutators(settings: Settings):
    """[D, D'] of each particle's two effective observables."""
    obs = settings.effective_observables()
    return [commutator(obs[i], obs[i + 1]) for i in range(0, len(obs), 2)]


def _xy_angle(v) -> float:
    # Convention: angle from the x-axis, atan2 branch in (-pi, pi].  Only
    # sines of angle differences are ever consumed, so the branch choice
    # cannot leak into results.
    return math.atan2(v[1], v[0])


def _is_xy(v) -> bool:
    return abs(v[2]) <= XY_PLANE_TOL


def _is_x_collinear(boost: Boost) -> bool:
    d = boost.direction
    return abs(d[1]) <= XY_PLANE_TOL and abs(d[2]) <= XY_PLANE_TOL


def _chsh_in_plane(settings: Settings):
    """(1 - beta^2, sin(phi_a - phi_a'), sin(phi_b - phi_b'), prod_v D_v)
    for xy-plane directions under x boosts at a common speed, else None."""
    a, a_prime, b, b_prime = settings.directions
    boost1, boost2 = settings.boosts
    if not (all(_is_xy(v) for v in settings.directions)
            and _is_x_collinear(boost1) and _is_x_collinear(boost2)
            and abs(boost1.beta - boost2.beta) <= 1e-15):
        return None
    beta = boost1.beta
    denom = 1.0
    for v in settings.directions:
        denom *= boost_denominator_sq(v[0], beta)
    return (1.0 - beta * beta, math.sin(_xy_angle(a) - _xy_angle(a_prime)),
            math.sin(_xy_angle(b) - _xy_angle(b_prime)), denom)


def _chsh(a, ap, b, bp) -> np.ndarray:
    # Factored form: the signed sum of the four terms rounds differently and
    # would change the last bits of sweep output.
    return kron(a, b + bp) + kron(ap, b - bp)


def chsh_operator(settings: Settings) -> np.ndarray:
    """The 4x4 two-qubit Bell operator A(B + B') + A'(B - B')."""
    return _chsh(*settings.effective_observables())


def bell_terms(settings: Settings):
    """Per-setting decomposition of the Bell operator.

    Returns (label, sign, observables) for each term of the sign table; the
    signed Kronecker sum reproduces the operator.
    """
    obs = settings.effective_observables()
    return [(label, sign, tuple([obs[i] for i in picks]))
            for label, sign, picks in settings.family.terms]


def mermin_terms(settings: Settings):
    """bell_terms of three-particle settings."""
    return bell_terms(settings)


def chsh_square_identity_residual(settings: Settings) -> float:
    """Max-entry residual between the squared operator and its closed forms.

    The generic form 4 I - [A,A'] (x) [B,B'] (built from the effective
    observables) is always compared.  When all four directions lie in the
    xy-plane and both particles are boosted along x at a common speed, the
    reduced form 4 [I + coeff sigma_z (x) sigma_z] with

        coeff = (1 - beta^2) sin(phi_a - phi_a') sin(phi_b - phi_b')
                / sqrt(prod_v (1 + beta^2 (v_x^2 - 1)))

    is compared as well, and the larger residual is returned.
    """
    a, ap, b, bp = settings.effective_observables()
    op = _chsh(a, ap, b, bp)
    square = op @ op
    identity4 = np.eye(4, dtype=complex)
    generic = 4.0 * identity4 - kron(commutator(a, ap), commutator(b, bp))
    residual = float(np.max(np.abs(square - generic)))
    in_plane = _chsh_in_plane(settings)
    if in_plane is not None:
        shrink_sq, sin_a, sin_b, denom = in_plane
        coeff = shrink_sq * sin_a * sin_b / math.sqrt(denom)
        reduced = 4.0 * (identity4 + coeff * kron(SIGMA_Z, SIGMA_Z))
        residual = max(residual, float(np.max(np.abs(square - reduced))))
    return residual


def chsh_zeta(settings: Settings) -> float:
    """Largest eigenvalue of the squared two-qubit operator, in closed form.

    Valid only for xy-plane directions with both particles boosted along x
    at a common speed; anything else raises DomainRestriction.  The value
    always lies in [4, 8].
    """
    in_plane = _chsh_in_plane(settings)
    if in_plane is None:
        raise DomainRestriction(
            "closed form requires xy-plane directions and collinear x boosts "
            "with a common speed")
    shrink_sq, sin_a, sin_b, denom = in_plane
    return 4.0 * (1.0 + shrink_sq * abs(sin_a * sin_b) / math.sqrt(denom))


def mermin_operator(settings: Settings) -> np.ndarray:
    """The 8x8 three-qubit Bell operator A B'C' + A'B C' + A'B'C - A B C,
    summed term by term in sign-table order."""
    (_, _, first), *rest = bell_terms(settings)
    total = kron3(*first)
    for _, sign, observables in rest:
        term = kron3(*observables)
        total = total + term if sign > 0 else total - term
    return total


def mermin_square_closed_form(settings: Settings) -> np.ndarray:
    """Closed form of the squared three-qubit operator:

        4 I - [A,A'](x)[B,B'](x)I - [A,A'](x)I(x)[C,C'] - I(x)[B,B'](x)[C,C']

    with the commutator pairs acting on qubit pairs (1,2), (1,3) and (2,3).
    This placement follows from direct expansion and matches brute-force
    squaring to machine precision; the verify command also scores the
    alternative placement that swaps the last two terms, which does not.
    """
    com_a, com_b, com_c = _commutators(settings)
    return (4.0 * np.eye(8, dtype=complex)
            - kron3(com_a, com_b, IDENTITY_2)
            - kron3(com_a, IDENTITY_2, com_c)
            - kron3(IDENTITY_2, com_b, com_c))


def mermin_square_swapped_legs(settings: Settings) -> np.ndarray:
    """Variant of the closed-form square with the (A,C) commutator pair on
    qubits (2,3) and the (B,C) pair on qubits (1,3).

    Kept so the verify command can measure its disagreement with the
    brute-force square; it is not a valid identity.
    """
    com_a, com_b, com_c = _commutators(settings)
    return (4.0 * np.eye(8, dtype=complex)
            - kron3(com_a, com_b, IDENTITY_2)
            - kron3(IDENTITY_2, com_a, com_c)
            - kron3(com_b, IDENTITY_2, com_c))


def _one_plus_pair_products(kappas) -> float:
    """1 + sum over pairs i < j of k_i k_j, summed in the order 12, 13, 23."""
    total = 1.0
    for k_i, k_j in itertools.combinations(kappas, 2):
        total += k_i * k_j
    return total


def mermin_lambda3(settings: Settings) -> float:
    """Largest eigenvalue of the squared three-qubit operator for coplanar
    geometry: 4 (1 + k1 k2 + k1 k3 + k2 k3), where k_i is the magnitude of
    the cross product of particle i's two effective directions.

    The three commutator terms of mermin_square_closed_form commute for
    every setting, so the formula itself holds everywhere (see
    operator_norm).  This validator still requires every measurement
    direction and every boost direction to lie in the xy-plane, the
    geometry it was derived on.
    """
    if not (all(_is_xy(v) for v in settings.directions)
            and all(_is_xy(bst.direction) for bst in settings.boosts)):
        raise DomainRestriction(
            "closed form requires all directions and boost directions "
            "in the xy-plane")
    n = settings.effective_directions()
    kappas = [float(np.linalg.norm(np.cross(n[i], n[i + 1])))
              for i in range(0, len(n), 2)]
    return 4.0 * _one_plus_pair_products(kappas)


def max_violation(matrix) -> float:
    """Largest |eigenvalue| of a Hermitian operator: the attainable |<B>|
    over all states."""
    eigenvalues, _ = hermitian_eigensystem(matrix)
    return float(np.max(np.abs(eigenvalues)))


def _cross_norm(n, m) -> float:
    """|n x m| for two 3-vectors, on their float components."""
    n0, n1, n2 = n.tolist()
    m0, m1, m2 = m.tolist()
    x = n1 * m2 - n2 * m1
    y = n2 * m0 - n0 * m2
    z = n0 * m1 - n1 * m0
    return math.sqrt(x * x + y * y + z * z)


def operator_norm(settings: Settings) -> float:
    """max |<B>| of the Bell operator, for any directions and boosts:
    2 sqrt(1 + sum_{i<j} k_i k_j) with k_i the cross-product magnitude of
    particle i's two effective directions.

    With u_i that cross product, [D_i, D_i'] = 2i u_i.sigma, so the square
    is 4 I plus 4 (u_i.sigma)(u_j.sigma) on every particle pair i < j.
    Those terms commute and u_i.sigma has eigenvalues +/-k_i, so the largest
    eigenvalue of B^2 takes all signs equal: 4 (1 + |u||v|) for two qubits
    (Landau, Phys. Lett. A 120, 54, 1987) and 4 (1 + k1 k2 + k1 k3 + k2 k3)
    for three.  Equals max_violation(bell_operator(settings)).
    """
    n = settings.effective_directions()
    kappas = [_cross_norm(n[i], n[i + 1]) for i in range(0, len(n), 2)]
    return 2.0 * math.sqrt(_one_plus_pair_products(kappas))


def bell_operator(settings: Settings) -> np.ndarray:
    """The Bell operator of the settings' family (chsh_operator or
    mermin_operator)."""
    return settings.family.operator(settings)


@dataclass(frozen=True)
class Family:
    """What the particle count fixes: the operator's name, its sign table of
    (label, sign, observable indices) terms (first sign +1), the matched
    maximally entangled state, and the closed-form largest eigenvalue of its
    square (DomainRestriction off its domain)."""

    name: str
    terms: tuple
    state: Callable[[], np.ndarray]
    operator: Callable[[Settings], np.ndarray]
    square_peak: Callable[[Settings], float]


def _sign_table(*terms):
    """(label, sign, observable indices) from (label, sign): the i-th factor
    of a label picks particle i's primed observable when it carries a prime."""
    return tuple(
        (label, sign, tuple(2 * i + factor.endswith("'")
                            for i, factor in enumerate(re.findall("[a-z]'?", label))))
        for label, sign in terms)


# The operators are looked up by module attribute at call time, so a
# wrapper installed on relbell.bell.chsh_operator sees every call.
FAMILIES = {
    2: Family("chsh",
              _sign_table(("ab", 1), ("ab'", 1), ("a'b", 1), ("a'b'", -1)),
              phi_plus, lambda s: chsh_operator(s), chsh_zeta),
    3: Family("mermin",
              _sign_table(("ab'c'", 1), ("a'bc'", 1), ("a'b'c", 1), ("abc", -1)),
              ghz_plus, lambda s: mermin_operator(s), mermin_lambda3),
}
