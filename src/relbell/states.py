"""Canonical entangled states and closed-form correlators on them.

The closed forms are restricted to xy-plane measurement directions with
every particle boosted along x; the exact matrix expectation is the ground
truth they are validated against.  For directions with a z-component the
direct matrix computation carries a (1 - beta^2) a_z b_z contribution, so
observables.require_xy_plane gates every closed form here to the plane.
Each closed form takes lone directions (3,) and a float speed, or stacks
(..., 3) and (...) that broadcast: it checks the whole stack once, each
test in one pass whose error carries the first failing row, and gives each
element the bits of its own lone call, a Python scalar by linalg.lone.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import lone
from .observables import (
    boost_denominator_sq,
    require_unit_interval,
    require_xy_plane,
    shrink_sq,
    unit3_stack,
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


def _xy_directions(beta, *vectors) -> tuple[np.ndarray, np.ndarray]:
    """Validate unit xy-plane directions, each of shape (3,) or a stack
    (..., 3), and speeds in [0, 1], a float or an array (...): one pass per
    test over the whole stack, in the order unit norm, xy-plane, speed, each
    error carrying its first failing row in row-major order.  Returns the
    directions stacked as (..., k, 3) and the speeds broadcast to (...)."""
    v = require_xy_plane(unit3_stack(np.stack(np.broadcast_arrays(*vectors), axis=-2)))
    beta = require_unit_interval(beta)
    shape = np.broadcast_shapes(v.shape[:-2], beta.shape)
    return np.broadcast_to(v, shape + v.shape[-2:]), np.broadcast_to(beta, shape)


def phi_plus_correlator_closed_form(a, b, beta):
    """Joint-spin correlator on the two-qubit maximally entangled state for
    xy-plane directions, both particles boosted along x at speed beta:

        [a_x b_x - (1 - beta^2) a_y b_y] / sqrt(D_a D_b),
        D_v = (1 - beta^2) + beta^2 v_x^2.

    Admits beta = 1 as a continuous limit (no matrices are built), though
    directions with v_x = 0 degenerate exactly there.  Directions (..., 3)
    and speeds (...) broadcast; each element has the bits of its own lone
    call, and a lone call returns a float.
    """
    v, beta = _xy_directions(beta, a, b)
    (ax, bx), (ay, by) = np.moveaxis(v[..., :2], (-2, -1), (1, 0))
    numerator = ax * bx - shrink_sq(beta) * ay * by
    denom = boost_denominator_sq(v[..., 0], beta[..., None])
    return lone(numerator / np.sqrt(denom[..., 0] * denom[..., 1]))


def ghz_offdiagonal_closed_form(a, b, c, beta):
    """The <111| A (x) B (x) C |000> matrix element for xy-plane directions
    under collinear x boosts: the product over v in (a, b, c) of

        (v_x + i sqrt(1 - beta^2) v_y) / sqrt((1 - beta^2) + beta^2 v_x^2).

    Broadcasts as phi_plus_correlator_closed_form does; a lone call returns
    a complex.  The product is taken in real arithmetic as numpy's scalar
    complex operations take it: each factor scaled by the reciprocal of its
    denominator, and multiplied into 1 by the textbook complex product.
    numpy's complex array arithmetic rounds differently.
    """
    v, beta = _xy_directions(beta, a, b, c)
    shrink = np.sqrt(shrink_sq(beta))
    scale = 1.0 / np.sqrt(boost_denominator_sq(v[..., 0], beta[..., None]))
    real, imag = v[..., 0] * scale, shrink[..., None] * v[..., 1] * scale
    out_real, out_imag = np.ones(beta.shape), np.zeros(beta.shape)
    for k in range(3):
        out_real, out_imag = (out_real * real[..., k] - out_imag * imag[..., k],
                              out_real * imag[..., k] + out_imag * real[..., k])
    out = np.empty(beta.shape, dtype=complex)
    out.real, out.imag = out_real, out_imag
    return lone(out, complex)


def ghz_correlator_closed_form(a, b, c, beta):
    """Expectation of A (x) B (x) C on (|000> + |111>)/sqrt(2) for xy-plane
    directions under collinear x boosts:

        [a_x b_x c_x - (1 - beta^2)(a_y b_x c_y + a_y b_y c_x + a_x b_y c_y)]
        / sqrt(D_a D_b D_c).

    Equals the real part of ghz_offdiagonal_closed_form.  Broadcasts as
    phi_plus_correlator_closed_form does.
    """
    v, beta = _xy_directions(beta, a, b, c)
    (ax, bx, cx), (ay, by, cy) = np.moveaxis(v[..., :2], (-2, -1), (1, 0))
    g = shrink_sq(beta)
    numerator = ax * bx * cx - g * (ay * bx * cy + ay * by * cx + ax * by * cy)
    denom = boost_denominator_sq(v[..., 0], beta[..., None])
    return lone(numerator / np.sqrt(denom[..., 0] * denom[..., 1] * denom[..., 2]))
