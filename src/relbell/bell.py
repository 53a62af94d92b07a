"""Two- and three-qubit Bell operators built from boosted spin observables.

The two-qubit operator combines four +/-1 observables as A(B + B') +
A'(B - B') on the tensor product; the three-qubit operator is the four-term
combination A B'C' + A'B C' + A'B'C - A B C.  Closed forms for the squares
and their largest eigenvalues are provided on the restricted measurement
geometries where they were derived, and refuse other inputs instead of
extrapolating.  The operator norms chsh_operator_norm and
mermin_operator_norm hold for every setting and need no matrix at all.
Brute-force matrix algebra is the ground truth every closed form is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainRestriction
from .linalg import IDENTITY_2, SIGMA_Z, hermitian_eigensystem, kron, kron3
from .observables import (
    XY_PLANE_TOL,
    Boost,
    effective_direction,
    observable_matrix,
    unit3,
)


@dataclass(frozen=True, eq=False)
class ChshSettings:
    """Four measurement directions plus the two particle boosts."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    boost1: Boost
    boost2: Boost

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, unit3(getattr(self, name)))

    def prime_swapped(self) -> "ChshSettings":
        """Exchange primed and unprimed directions on both particles."""
        return ChshSettings(self.a_prime, self.a, self.b_prime, self.b,
                            self.boost1, self.boost2)

    def effective_directions(self):
        return (effective_direction(self.a, self.boost1),
                effective_direction(self.a_prime, self.boost1),
                effective_direction(self.b, self.boost2),
                effective_direction(self.b_prime, self.boost2))

    def effective_observables(self):
        """The four 2x2 observables, each built under its particle's boost."""
        return (observable_matrix(self.a, self.boost1),
                observable_matrix(self.a_prime, self.boost1),
                observable_matrix(self.b, self.boost2),
                observable_matrix(self.b_prime, self.boost2))


@dataclass(frozen=True, eq=False)
class MerminSettings:
    """Six measurement directions plus the three particle boosts."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray
    boost1: Boost
    boost2: Boost
    boost3: Boost

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime", "c", "c_prime"):
            object.__setattr__(self, name, unit3(getattr(self, name)))

    def prime_swapped(self) -> "MerminSettings":
        """Exchange primed and unprimed directions on all three particles."""
        return MerminSettings(self.a_prime, self.a, self.b_prime, self.b,
                              self.c_prime, self.c,
                              self.boost1, self.boost2, self.boost3)

    def direction_pairs(self):
        return ((self.a, self.a_prime, self.boost1),
                (self.b, self.b_prime, self.boost2),
                (self.c, self.c_prime, self.boost3))

    def effective_directions(self):
        return (effective_direction(self.a, self.boost1),
                effective_direction(self.a_prime, self.boost1),
                effective_direction(self.b, self.boost2),
                effective_direction(self.b_prime, self.boost2),
                effective_direction(self.c, self.boost3),
                effective_direction(self.c_prime, self.boost3))

    def effective_observables(self):
        return (observable_matrix(self.a, self.boost1),
                observable_matrix(self.a_prime, self.boost1),
                observable_matrix(self.b, self.boost2),
                observable_matrix(self.b_prime, self.boost2),
                observable_matrix(self.c, self.boost3),
                observable_matrix(self.c_prime, self.boost3))


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def _xy_angle(v) -> float:
    # Convention: angle from the x-axis, atan2 branch in (-pi, pi].  Only
    # sines of angle differences are ever consumed, so the branch choice
    # cannot leak into results.
    return math.atan2(v[1], v[0])


def _boost_factor(v, beta: float) -> float:
    return 1.0 + beta * beta * (v[0] * v[0] - 1.0)


def _is_xy(v) -> bool:
    return abs(v[2]) <= XY_PLANE_TOL


def _is_x_collinear(boost: Boost) -> bool:
    d = boost.direction
    return abs(d[1]) <= XY_PLANE_TOL and abs(d[2]) <= XY_PLANE_TOL


def _chsh_in_plane_collinear(s: ChshSettings) -> bool:
    return (all(_is_xy(v) for v in (s.a, s.a_prime, s.b, s.b_prime))
            and _is_x_collinear(s.boost1) and _is_x_collinear(s.boost2)
            and abs(s.boost1.beta - s.boost2.beta) <= 1e-15)


def chsh_operator(settings: ChshSettings) -> np.ndarray:
    """The 4x4 two-qubit Bell operator A(B + B') + A'(B - B')."""
    a, ap, b, bp = settings.effective_observables()
    return kron(a, b + bp) + kron(ap, b - bp)


def chsh_terms(settings: ChshSettings):
    """Per-setting decomposition of the two-qubit operator.

    Returns (label, sign, observables) for the four setting combinations;
    the signed Kronecker sum reproduces chsh_operator.
    """
    a, ap, b, bp = settings.effective_observables()
    return [
        ("ab", 1, (a, b)),
        ("ab'", 1, (a, bp)),
        ("a'b", 1, (ap, b)),
        ("a'b'", -1, (ap, bp)),
    ]


def chsh_square_identity_residual(settings: ChshSettings) -> float:
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
    op = kron(a, b + bp) + kron(ap, b - bp)
    square = op @ op
    identity4 = np.eye(4, dtype=complex)
    generic = 4.0 * identity4 - kron(commutator(a, ap), commutator(b, bp))
    residual = float(np.max(np.abs(square - generic)))
    if _chsh_in_plane_collinear(settings):
        beta = settings.boost1.beta
        sin_a = math.sin(_xy_angle(settings.a) - _xy_angle(settings.a_prime))
        sin_b = math.sin(_xy_angle(settings.b) - _xy_angle(settings.b_prime))
        denom = 1.0
        for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
            denom *= _boost_factor(v, beta)
        coeff = (1.0 - beta * beta) * sin_a * sin_b / math.sqrt(denom)
        reduced = 4.0 * (identity4 + coeff * kron(SIGMA_Z, SIGMA_Z))
        residual = max(residual, float(np.max(np.abs(square - reduced))))
    return residual


def chsh_zeta(settings: ChshSettings) -> float:
    """Largest eigenvalue of the squared two-qubit operator, in closed form.

    Valid only for xy-plane directions with both particles boosted along x
    at a common speed; anything else raises DomainRestriction.  The value
    always lies in [4, 8].
    """
    if not _chsh_in_plane_collinear(settings):
        raise DomainRestriction(
            "closed form requires xy-plane directions and collinear x boosts "
            "with a common speed")
    beta = settings.boost1.beta
    sin_a = math.sin(_xy_angle(settings.a) - _xy_angle(settings.a_prime))
    sin_b = math.sin(_xy_angle(settings.b) - _xy_angle(settings.b_prime))
    denom = 1.0
    for v in (settings.a, settings.a_prime, settings.b, settings.b_prime):
        denom *= _boost_factor(v, beta)
    return 4.0 * (1.0 + (1.0 - beta * beta) * abs(sin_a * sin_b) / math.sqrt(denom))


def mermin_operator(settings: MerminSettings) -> np.ndarray:
    """The 8x8 three-qubit Bell operator A B'C' + A'B C' + A'B'C - A B C."""
    a, ap, b, bp, c, cp = settings.effective_observables()
    return (kron3(a, bp, cp) + kron3(ap, b, cp)
            + kron3(ap, bp, c) - kron3(a, b, c))


def mermin_terms(settings: MerminSettings):
    """Per-setting decomposition of the three-qubit operator."""
    a, ap, b, bp, c, cp = settings.effective_observables()
    return [
        ("ab'c'", 1, (a, bp, cp)),
        ("a'bc'", 1, (ap, b, cp)),
        ("a'b'c", 1, (ap, bp, c)),
        ("abc", -1, (a, b, c)),
    ]


def mermin_square_closed_form(settings: MerminSettings) -> np.ndarray:
    """Closed form of the squared three-qubit operator:

        4 I - [A,A'](x)[B,B'](x)I - [A,A'](x)I(x)[C,C'] - I(x)[B,B'](x)[C,C']

    with the commutator pairs acting on qubit pairs (1,2), (1,3) and (2,3).
    This placement follows from direct expansion and matches brute-force
    squaring to machine precision; the verify command also scores the
    alternative placement that swaps the last two terms, which does not.
    """
    a, ap, b, bp, c, cp = settings.effective_observables()
    com_a = commutator(a, ap)
    com_b = commutator(b, bp)
    com_c = commutator(c, cp)
    identity8 = np.eye(8, dtype=complex)
    return (4.0 * identity8
            - kron3(com_a, com_b, IDENTITY_2)
            - kron3(com_a, IDENTITY_2, com_c)
            - kron3(IDENTITY_2, com_b, com_c))


def mermin_square_swapped_legs(settings: MerminSettings) -> np.ndarray:
    """Variant of the closed-form square with the (A,C) commutator pair on
    qubits (2,3) and the (B,C) pair on qubits (1,3).

    Kept so the verify command can measure its disagreement with the
    brute-force square; it is not a valid identity.
    """
    a, ap, b, bp, c, cp = settings.effective_observables()
    com_a = commutator(a, ap)
    com_b = commutator(b, bp)
    com_c = commutator(c, cp)
    identity8 = np.eye(8, dtype=complex)
    return (4.0 * identity8
            - kron3(com_a, com_b, IDENTITY_2)
            - kron3(IDENTITY_2, com_a, com_c)
            - kron3(com_b, IDENTITY_2, com_c))


def mermin_lambda3(settings: MerminSettings) -> float:
    """Largest eigenvalue of the squared three-qubit operator for coplanar
    geometry: 4 (1 + k1 k2 + k1 k3 + k2 k3), where k_i is the magnitude of
    the cross product of particle i's two effective directions.

    The three commutator terms of mermin_square_closed_form commute for
    every setting, so the formula itself holds everywhere (see
    mermin_operator_norm).  This validator still requires every measurement
    direction and every boost direction to lie in the xy-plane, the
    geometry it was derived on.
    """
    dirs = (settings.a, settings.a_prime, settings.b, settings.b_prime,
            settings.c, settings.c_prime)
    boosts = (settings.boost1, settings.boost2, settings.boost3)
    if not (all(_is_xy(v) for v in dirs)
            and all(_is_xy(bst.direction) for bst in boosts)):
        raise DomainRestriction(
            "closed form requires all directions and boost directions "
            "in the xy-plane")
    kappas = []
    for d, d_prime, boost in settings.direction_pairs():
        n1 = effective_direction(d, boost)
        n2 = effective_direction(d_prime, boost)
        kappas.append(float(np.linalg.norm(np.cross(n1, n2))))
    k1, k2, k3 = kappas
    return 4.0 * (1.0 + k1 * k2 + k1 * k3 + k2 * k3)


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


def chsh_operator_norm(settings: ChshSettings) -> float:
    """max |<B>| of the two-qubit operator, for any directions and boosts:
    2 sqrt(1 + |u| |v|) with u = a x a' and v = b x b' over the effective
    directions.

    [A,A'] = 2i u.sigma, so B^2 = 4 I + 4 (u.sigma) (x) (v.sigma), whose
    largest eigenvalue is 4 (1 + |u| |v|) (Landau, Phys. Lett. A 120, 54,
    1987).  Equals max_violation(chsh_operator(settings)).
    """
    a, ap, b, bp = settings.effective_directions()
    return 2.0 * math.sqrt(1.0 + _cross_norm(a, ap) * _cross_norm(b, bp))


def mermin_operator_norm(settings: MerminSettings) -> float:
    """max |<B>| of the three-qubit operator, for any directions and boosts:
    2 sqrt(1 + k1 k2 + k1 k3 + k2 k3) with k_i the cross-product magnitude
    of particle i's two effective directions.

    With u_i the cross product of particle i's effective directions, the
    square is B^2 = 4 I + 4 (u1.sigma)(u2.sigma) I + 4 (u1.sigma) I
    (u3.sigma) + 4 I (u2.sigma)(u3.sigma).  The three terms commute and
    u_i.sigma has eigenvalues +/-k_i, so the largest eigenvalue of B^2
    takes all three signs equal.  Equals
    max_violation(mermin_operator(settings)).
    """
    a, ap, b, bp, c, cp = settings.effective_directions()
    k1 = _cross_norm(a, ap)
    k2 = _cross_norm(b, bp)
    k3 = _cross_norm(c, cp)
    return 2.0 * math.sqrt(1.0 + k1 * k2 + k1 * k3 + k2 * k3)
