"""Named measurement configurations and their closed-form violation curves.

Two geometries are covered.  In the collinear geometry every particle is
boosted along x: the two-qubit settings are the standard in-plane set that
attains the quantum maximum at rest, and the three-qubit settings measure
y (unprimed) and x (primed) on every particle.  In the center-of-mass
geometry the three boost directions lie in the xy-plane at mutual angles
of 2 pi / 3.

SCENARIOS maps each named kind to its settings builder and closed-form
peak.  Closed-form peaks are continuous on [0, 1] including beta = 1; each
takes a speed or an array of speeds, elementwise with the bits of the scalar
formula, and returns a lone speed's value as a float.  The matrix-backed
fields of a sweep sample, and operator_norm for settings without a named
peak, exist for beta < 1 only.  sweep takes a block of rows at a time, one
call each for its directions, operator Planes, spectra, expectations and
closed forms; the verify battery checks the paths it prints.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bell import Settings, effective_directions_grid, max_violation, square_peak_from_directions
from .errors import DomainError, Frozen
from .linalg import expectation, lone
from .observables import Boost, require_unit_interval, shrink_sq

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])

#: Two-qubit directions attaining the quantum maximum 2 sqrt(2) at beta = 0.
CHSH_A = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
CHSH_A_PRIME = np.array([-1.0, -1.0, 0.0]) / math.sqrt(2.0)
CHSH_B = Y_AXIS
CHSH_B_PRIME = X_AXIS

#: Default sweep grid spacing over beta in [0, 1].
BETA_GRID_STEP = 0.01
#: Rows whose operators sweep builds at once; bounds its memory at any step.
SWEEP_BLOCK_ROWS = 64


def _curve_speeds(beta) -> tuple[np.ndarray, np.ndarray]:
    """The curves' speeds, checked by require_unit_interval, as a float
    array, and g = sqrt(1 - beta^2) of each, real for every speed in [0, 1]."""
    beta = require_unit_interval(beta)
    return beta, np.sqrt(shrink_sq(beta))


def epsilon2(beta):
    """Peak two-qubit Bell value under collinear boosts,
    2 (1 + sqrt(1 - beta^2)) / sqrt(2 - beta^2): strictly decreasing from
    2 sqrt(2) at beta = 0 to the classical bound 2 at beta = 1."""
    beta, g = _curve_speeds(beta)
    return lone(2.0 * (1.0 + g) / np.sqrt(2.0 - beta * beta))


def lambda_com(beta):
    """Largest eigenvalue of the squared three-qubit operator in the
    center-of-mass frame, 4 (1 + 8 g / sqrt(d) + 16 (1 - beta^2) / d) with
    g = sqrt(1 - beta^2) and d = (4 - beta^2)(4 - 3 beta^2)."""
    beta, g = _curve_speeds(beta)
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return lone(4.0 * (1.0 + 8.0 * g / np.sqrt(d) + 16.0 * shrink_sq(beta) / d))


def epsilon3_com(beta):
    """Peak three-qubit Bell value in the center-of-mass frame,
    2 (1 + 4 sqrt(1 - beta^2) / sqrt((4 - beta^2)(4 - 3 beta^2))): the square
    root of lambda_com, 4 at beta = 0 and 2 at beta = 1."""
    beta, g = _curve_speeds(beta)
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return lone(2.0 * (1.0 + 4.0 * g / np.sqrt(d)))


def com_boosts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unit boost directions at mutual angles 2 pi / 3 in the xy-plane,
    summing to zero (momentum balance in the center-of-mass frame)."""
    e1 = np.array([-1.0, 0.0, 0.0])
    e2 = np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
    e3 = np.array([0.5, -math.sqrt(3.0) / 2.0, 0.0])
    return e1, e2, e3


def chsh_collinear_settings(beta: float) -> Settings:
    """The standard two-qubit settings with both particles boosted along x."""
    return Settings((CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME), (Boost(X_AXIS, beta),) * 2)


def mermin_collinear_settings(beta: float) -> Settings:
    """y/x settings on every particle, all boosted along x.  Only their prime
    swap, x unprimed and y primed, gives a nonzero GHZ expectation (a verify
    row), so both assignments are first class."""
    return Settings((Y_AXIS, X_AXIS) * 3, (Boost(X_AXIS, beta),) * 3)


def mermin_com_settings(beta: float) -> Settings:
    """y/x settings on every particle under the center-of-mass boosts."""
    return Settings((Y_AXIS, X_AXIS) * 3, [Boost(e, beta) for e in com_boosts()])


def com_closed_form_directions(beta) -> dict[str, np.ndarray]:
    """Closed-form candidates for the center-of-mass effective directions at a
    speed or an array of speeds (...): each (..., 3), each row the bits of
    its lone call.  For particles 2 and 3 the unprimed (y-setting) direction
    (sqrt(3)(1 - g) x +/- (3 + g) y) / (2 sqrt(4 - beta^2)), g = sqrt(1 - beta^2),
    matches the boost map exactly.  Of the primed (x-setting) numerators, the
    derived 1 + 3 g is unit norm and reproduces the boost map; the
    alternative 3 + g drifts from unit norm for beta > 0 (a verify row).
    """
    beta, g = _curve_speeds(beta)
    unprimed_denom = 2.0 * np.sqrt(4.0 - beta * beta)
    primed_denom = 2.0 * np.sqrt(4.0 - 3.0 * beta * beta)
    root3 = math.sqrt(3.0)

    def xy(x, y, denom=1.0):
        # (x, y, 0) / denom, divided componentwise: the bits of dividing the
        # whole vector, since 0 / denom is 0.
        x, y = np.broadcast_arrays(x / denom, y / denom, beta)[:2]
        return np.stack([x, y, np.zeros_like(x)], axis=-1)

    return {
        "a": xy(0.0, 1.0),
        "a_prime": xy(1.0, 0.0),
        "b": xy(root3 * (1.0 - g), 3.0 + g, unprimed_denom),
        "c": xy(-root3 * (1.0 - g), 3.0 + g, unprimed_denom),
        "b_prime_derived": xy(1.0 + 3.0 * g, root3 * (1.0 - g), primed_denom),
        "c_prime_derived": xy(1.0 + 3.0 * g, -root3 * (1.0 - g), primed_denom),
        "b_prime_alt": xy(3.0 + g, root3 * (1.0 - g), primed_denom),
        "c_prime_alt": xy(3.0 + g, -root3 * (1.0 - g), primed_denom),
    }


def _mermin_collinear_peak(beta):
    # The coplanar peak is 4 (1 + k1 k2 + k1 k3 + k2 k3) with every
    # kappa equal to 1 for the y/x settings, independent of beta.
    beta, _ = _curve_speeds(beta)
    return lone(np.full_like(beta, 4.0))


#: Scenario kind, as the command line names it -> (settings builder,
#: closed-form peak at a speed or an array of speeds).
SCENARIOS = {
    "chsh-collinear": (chsh_collinear_settings, epsilon2),
    "mermin-collinear": (mermin_collinear_settings, _mermin_collinear_peak),
    "mermin-com": (mermin_com_settings, epsilon3_com),
}
SCENARIO_KINDS = tuple(SCENARIOS)


class Scenario(Frozen):
    """A named configuration at one boost speed.  Only scenario_curve takes
    it, and only the perfbench harness calls that."""

    __slots__ = ("kind", "beta")

    def __init__(self, kind: str, beta: float):
        if kind not in SCENARIOS:
            raise DomainError(f"unknown scenario kind {kind!r}")
        require_unit_interval(beta)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "beta", beta)


class ScenarioResult(NamedTuple):
    """One sweep sample: closed form, numeric spectrum and state expectation,
    with |closed_form - numeric_max|.  The numeric fields are None at beta =
    1, where no matrix exists; so is a closed form without a named peak."""

    closed_form: float | None
    numeric_max: float | None
    state_expectation: float | None
    residual_closed_numeric: float | None


def scenario_curve(scenario: Scenario) -> ScenarioResult:
    """The one-row sweep of the scenario's settings.  No code in the package
    calls it; it stays only because the perfbench harness times it by name."""
    build_settings, peak = SCENARIOS[scenario.kind]
    return next(sweep(build_settings(0.0), [scenario.beta], peak))


def sweep(settings: Settings, betas, peak=None):
    """Yield the ScenarioResult of each speed of betas, every particle boosted
    at that speed; peak is the closed form over an array of speeds, by
    default each row's operator_norm below beta = 1 and None at 1.  The whole
    grid is checked first, with or without a peak: a speed that is NaN or
    outside [0, 1] raises DomainError naming the first such speed.  Each
    SWEEP_BLOCK_ROWS rows below beta = 1 get their directions, operator
    Planes, eigenvalues, expectations and closed forms from one call each
    (without a peak, each row's operator_norm bit for bit, from one
    square_peak_from_directions call).  A beta = 1 row calls peak(1.0)."""
    betas = require_unit_interval(betas)
    family = settings.family
    state = family.state()
    for start in range(0, len(betas), SWEEP_BLOCK_ROWS):
        block = betas[start:start + SWEEP_BLOCK_ROWS]
        below = block[block < 1.0]
        directions = effective_directions_grid(settings, below)
        operators = family.operator_planes(directions)
        closed = np.sqrt(square_peak_from_directions(directions)) if peak is None else peak(below)
        rows = zip(closed.tolist(), max_violation(operators).tolist(),
                   expectation(state, operators).tolist())
        for beta in block.tolist():
            if beta >= 1.0:
                yield ScenarioResult(None if peak is None else peak(beta), None, None, None)
                continue
            closed_form, numeric, value = next(rows)
            yield ScenarioResult(closed_form, numeric, value, abs(closed_form - numeric))
