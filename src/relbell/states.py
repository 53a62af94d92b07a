"""Canonical entangled states and closed-form correlators on them.

The closed forms are restricted to xy-plane measurement directions with
every particle boosted along x; the exact matrix expectation is the ground
truth they are validated against.  For directions with a z-component the
direct matrix computation carries a (1 - beta^2) a_z b_z contribution, so
the pair correlator below is gated to the xy-plane where no z-term arises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainRestriction
from .observables import (
    XY_PLANE_TOL,
    boost_denominator_sq,
    require_unit_interval,
    unit3,
)


def phi_plus() -> np.ndarray:
    """The two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


def ghz_plus() -> np.ndarray:
    """The three-qubit state (|000> + |111>)/sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / math.sqrt(2.0)
    return v


def _xy_directions(beta: float, *vectors) -> list[np.ndarray]:
    """Validate unit xy-plane directions and a speed in [0, 1]."""
    vectors = [unit3(v) for v in vectors]
    for v in vectors:
        if abs(v[2]) > XY_PLANE_TOL:
            raise DomainRestriction(
                f"direction {v} leaves the xy-plane; the closed form is not valid there")
    require_unit_interval(beta)
    return vectors


def phi_plus_correlator_closed_form(a, b, beta: float) -> float:
    """Joint-spin correlator on the two-qubit maximally entangled state for
    xy-plane directions, both particles boosted along x at speed beta:

        [a_x b_x - (1 - beta^2) a_y b_y] / sqrt(D_a D_b),
        D_v = (1 - beta^2) + beta^2 v_x^2.

    Admits beta = 1 as a continuous limit (no matrices are built), though
    directions with v_x = 0 degenerate exactly there.
    """
    a, b = _xy_directions(beta, a, b)
    numerator = a[0] * b[0] - (1.0 - beta * beta) * a[1] * b[1]
    return numerator / math.sqrt(boost_denominator_sq(a[0], beta)
                                  * boost_denominator_sq(b[0], beta))


def ghz_offdiagonal_closed_form(a, b, c, beta: float) -> complex:
    """The <111| A (x) B (x) C |000> matrix element for xy-plane directions
    under collinear x boosts: the product over v in (a, b, c) of

        (v_x + i sqrt(1 - beta^2) v_y) / sqrt((1 - beta^2) + beta^2 v_x^2).
    """
    a, b, c = _xy_directions(beta, a, b, c)
    shrink = math.sqrt(max(1.0 - beta * beta, 0.0))
    out = 1.0 + 0.0j
    for v in (a, b, c):
        out *= (v[0] + 1.0j * shrink * v[1]) / math.sqrt(boost_denominator_sq(v[0], beta))
    return out


def ghz_correlator_closed_form(a, b, c, beta: float) -> float:
    """Expectation of A (x) B (x) C on (|000> + |111>)/sqrt(2) for xy-plane
    directions under collinear x boosts:

        [a_x b_x c_x - (1 - beta^2)(a_y b_x c_y + a_y b_y c_x + a_x b_y c_y)]
        / sqrt(D_a D_b D_c).

    Equals the real part of ghz_offdiagonal_closed_form.
    """
    a, b, c = _xy_directions(beta, a, b, c)
    g = 1.0 - beta * beta
    numerator = (a[0] * b[0] * c[0]
                 - g * (a[1] * b[0] * c[1] + a[1] * b[1] * c[0] + a[0] * b[1] * c[1]))
    denom = (boost_denominator_sq(a[0], beta) * boost_denominator_sq(b[0], beta)
             * boost_denominator_sq(c[0], beta))
    return numerator / math.sqrt(denom)
