"""Named measurement configurations and their closed-form violation curves.

Two geometries are covered.  In the collinear geometry every particle is
boosted along x: the two-qubit settings are the standard in-plane set that
attains the quantum maximum at rest, and the three-qubit settings measure
y (unprimed) and x (primed) on every particle.  In the center-of-mass
geometry the three boost directions lie in the xy-plane at mutual angles
of 2 pi / 3.

Closed-form peak values are continuous on [0, 1] including the beta = 1
endpoint; matrix-backed quantities exist for beta < 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import Settings, bell_operator, max_violation
from .errors import DomainError
from .linalg import expectation
from .observables import Boost, require_unit_interval

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])

#: Two-qubit directions attaining the quantum maximum 2 sqrt(2) at beta = 0.
CHSH_A = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
CHSH_A_PRIME = np.array([-1.0, -1.0, 0.0]) / math.sqrt(2.0)
CHSH_B = Y_AXIS
CHSH_B_PRIME = X_AXIS

SCENARIO_KINDS = ("chsh_collinear", "mermin_collinear", "mermin_center_of_mass")

#: Default sweep grid spacing over beta in [0, 1].
BETA_GRID_STEP = 0.01


def epsilon2(beta: float) -> float:
    """Peak two-qubit Bell value under collinear boosts:

        2 (1 + sqrt(1 - beta^2)) / sqrt(2 - beta^2),

    continuous and strictly decreasing from 2 sqrt(2) at beta = 0 to the
    classical bound 2 at beta = 1.
    """
    require_unit_interval(beta)
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    return 2.0 * (1.0 + g) / math.sqrt(2.0 - beta * beta)


def lambda_com(beta: float) -> float:
    """Largest eigenvalue of the squared three-qubit operator in the
    center-of-mass frame:

        4 (1 + 8 g / sqrt(d) + 16 (1 - beta^2) / d),
        g = sqrt(1 - beta^2),  d = (4 - beta^2)(4 - 3 beta^2).
    """
    require_unit_interval(beta)
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return 4.0 * (1.0 + 8.0 * g / math.sqrt(d) + 16.0 * (1.0 - beta * beta) / d)


def epsilon3_com(beta: float) -> float:
    """Peak three-qubit Bell value in the center-of-mass frame:

        2 (1 + 4 sqrt(1 - beta^2) / sqrt((4 - beta^2)(4 - 3 beta^2))),

    the square root of lambda_com; 4 at beta = 0 and 2 at beta = 1.
    """
    require_unit_interval(beta)
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return 2.0 * (1.0 + 4.0 * g / math.sqrt(d))


def com_boosts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unit boost directions at mutual angles 2 pi / 3 in the xy-plane.

    They sum to zero (momentum balance in the center-of-mass frame) and
    every pairwise dot product equals -1/2.
    """
    e1 = np.array([-1.0, 0.0, 0.0])
    e2 = np.array([0.5, math.sqrt(3.0) / 2.0, 0.0])
    e3 = np.array([0.5, -math.sqrt(3.0) / 2.0, 0.0])
    return e1, e2, e3


def _fixed_settings(directions, boosts, prime_swap: bool) -> Settings:
    """Settings with the named directions, prime-swapped on request."""
    settings = Settings(directions, boosts)
    return settings.prime_swapped() if prime_swap else settings


def chsh_collinear_settings(beta: float, prime_swap: bool = False) -> Settings:
    """The standard two-qubit settings with both particles boosted along x."""
    return _fixed_settings((CHSH_A, CHSH_A_PRIME, CHSH_B, CHSH_B_PRIME),
                           (Boost(X_AXIS, beta),) * 2, prime_swap)


def mermin_collinear_settings(beta: float, prime_swap: bool = False) -> Settings:
    """y/x settings on every particle, all boosted along x.

    With prime_swap the unprimed directions become x and the primed ones y;
    both assignments are first class because only the swapped one gives a
    nonzero expectation on the GHZ state (see the verify command).
    """
    return _fixed_settings((Y_AXIS, X_AXIS) * 3, (Boost(X_AXIS, beta),) * 3, prime_swap)


def mermin_com_settings(beta: float, prime_swap: bool = False) -> Settings:
    """y/x settings on every particle under the center-of-mass boosts."""
    return _fixed_settings((Y_AXIS, X_AXIS) * 3,
                           [Boost(e, beta) for e in com_boosts()], prime_swap)


def com_setting_observables(beta: float):
    """The six effective directions (a, a', b, b', c, c') of the y/x
    settings under the center-of-mass boosts.

    Particle 1 yields exactly y and x (its settings are perpendicular and
    antiparallel to its boost); particles 2 and 3 rotate with beta.  Boost
    rejects beta outside [0, 1).
    """
    return mermin_com_settings(beta).effective_directions()


def com_closed_form_directions(beta: float) -> dict[str, np.ndarray]:
    """Closed-form candidates for the center-of-mass effective directions.

    For particles 2 and 3 the unprimed (y-setting) direction is

        (sqrt(3)(1 - g) x +/- (3 + g) y) / (2 sqrt(4 - beta^2)),  g = sqrt(1 - beta^2),

    which matches the boost map exactly.  For the primed (x-setting)
    direction two numerator coefficients are listed: the derived
    1 + 3 g, which is unit norm and reproduces the boost map, and the
    alternative 3 + g, whose norm drifts from 1 for beta > 0.  The verify
    command reports which candidate matches.
    """
    require_unit_interval(beta)
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    unprimed_denom = 2.0 * math.sqrt(4.0 - beta * beta)
    primed_denom = 2.0 * math.sqrt(4.0 - 3.0 * beta * beta)
    root3 = math.sqrt(3.0)
    return {
        "a": Y_AXIS.copy(),
        "a_prime": X_AXIS.copy(),
        "b": np.array([root3 * (1.0 - g), 3.0 + g, 0.0]) / unprimed_denom,
        "c": np.array([-root3 * (1.0 - g), 3.0 + g, 0.0]) / unprimed_denom,
        "b_prime_derived": np.array([1.0 + 3.0 * g, root3 * (1.0 - g), 0.0]) / primed_denom,
        "c_prime_derived": np.array([1.0 + 3.0 * g, -root3 * (1.0 - g), 0.0]) / primed_denom,
        "b_prime_alt": np.array([3.0 + g, root3 * (1.0 - g), 0.0]) / primed_denom,
        "c_prime_alt": np.array([3.0 + g, -root3 * (1.0 - g), 0.0]) / primed_denom,
    }


@dataclass(frozen=True)
class Scenario:
    """A named configuration at one boost speed.

    prime_swap exchanges primed and unprimed settings; it exists because
    the y/x three-qubit assignment gives a vanishing GHZ expectation while
    the swap gives the full magnitude, and both deserve to be visible.
    """

    kind: str
    beta: float
    prime_swap: bool = False

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise DomainError(f"unknown scenario kind {self.kind!r}")
        require_unit_interval(self.beta)


@dataclass(frozen=True)
class ScenarioResult:
    """One sweep sample: closed form versus numeric spectrum versus state
    expectation, with their pairwise residuals.

    Numeric fields are None at beta = 1, where only the closed form exists.
    residual_closed_state and residual_numeric_state compare against the
    magnitude of the state expectation.
    """

    kind: str
    beta: float
    prime_swap: bool
    closed_form: float
    numeric_max: float | None
    state_expectation: float | None
    residual_closed_numeric: float | None
    residual_closed_state: float | None
    residual_numeric_state: float | None


def scenario_settings(scenario: Scenario):
    """Build the settings object for a scenario (requires beta < 1)."""
    if scenario.kind == "chsh_collinear":
        return chsh_collinear_settings(scenario.beta, scenario.prime_swap)
    if scenario.kind == "mermin_collinear":
        return mermin_collinear_settings(scenario.beta, scenario.prime_swap)
    return mermin_com_settings(scenario.beta, scenario.prime_swap)


def scenario_closed_form(kind: str, beta: float) -> float:
    """The closed-form peak Bell value for a scenario kind at speed beta."""
    if kind == "chsh_collinear":
        return epsilon2(beta)
    if kind == "mermin_collinear":
        # The coplanar peak is 4 (1 + k1 k2 + k1 k3 + k2 k3) with every
        # kappa equal to 1 for the y/x settings, independent of beta.
        require_unit_interval(beta)
        return 4.0
    if kind == "mermin_center_of_mass":
        return epsilon3_com(beta)
    raise DomainError(f"unknown scenario kind {kind!r}")


def scenario_curve(scenario: Scenario) -> ScenarioResult:
    """Evaluate one sweep sample: closed form, numeric operator norm, and
    the expectation on the matched entangled state."""
    closed = scenario_closed_form(scenario.kind, scenario.beta)
    if scenario.beta >= 1.0:
        return ScenarioResult(scenario.kind, scenario.beta, scenario.prime_swap,
                              closed, None, None, None, None, None)
    numeric, state_exp, residual = settings_curve(scenario_settings(scenario), closed)
    return ScenarioResult(
        scenario.kind, scenario.beta, scenario.prime_swap,
        closed, numeric, state_exp, residual,
        abs(closed - abs(state_exp)),
        abs(numeric - abs(state_exp)),
    )


def settings_curve(settings: Settings, closed: float | None):
    """(numeric operator norm, matched-state expectation, |closed - numeric|)
    of the settings' Bell operator; the residual is None without a closed
    form."""
    operator = bell_operator(settings)
    numeric = max_violation(operator)
    residual = None if closed is None else abs(closed - numeric)
    return numeric, expectation(settings.family.state(), operator), residual
