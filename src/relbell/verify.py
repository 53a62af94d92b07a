"""Closed-form-versus-brute-force verification battery.

Every check compares a closed form against exact matrix computation and
reports a residual.  PASS/FAIL checks gate the verify command's exit code.
ERRATUM checks document formula variants that demonstrably disagree with
brute force; they are reported with their measured disagreement and never
gated, because the disagreement is the finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    ChshSettings,
    MerminSettings,
    Settings,
    bell_operator_grid,
    chsh_operator,
    chsh_square_identity_residual,
    chsh_zeta,
    max_violation,
    mermin_lambda3,
    mermin_operator,
    mermin_square_closed_form,
    mermin_square_swapped_legs,
)
from .linalg import expectation, hermitian_eigensystem, kron, kron3
from .observables import (
    Boost,
    boost_denominator_sq,
    effective_direction,
    observable_matrix,
    unit3,
)
from .scenarios import (
    X_AXIS,
    chsh_collinear_settings,
    com_closed_form_directions,
    epsilon2,
    epsilon3_com,
    lambda_com,
    mermin_collinear_settings,
    mermin_com_settings,
)
from .states import (
    ghz_correlator_closed_form,
    ghz_offdiagonal_closed_form,
    ghz_plus,
    phi_plus,
    phi_plus_correlator_closed_form,
)

PASS = "PASS"
FAIL = "FAIL"
ERRATUM = "ERRATUM"

#: Boost speeds used by the randomized spectral checks.
BETA_SAMPLES = (0.0, 0.3, 0.6, 0.9, 0.99)
#: Sweep grid for the curve checks (beta = 1 only where no matrices are built).
BETA_GRID = tuple(round(0.01 * i, 2) for i in range(100))


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    residual: float
    tolerance: float | None
    detail: str


def _conformance(check: str, residual: float, tolerance: float, detail: str) -> CheckResult:
    status = PASS if residual <= tolerance else FAIL
    return CheckResult(check, status, residual, tolerance, detail)


def _erratum(check: str, residual: float, detail: str) -> CheckResult:
    return CheckResult(check, ERRATUM, residual, None, detail)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_xy(rng) -> np.ndarray:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(t), math.sin(t), 0.0])


def _random_chsh(rng, in_plane: bool) -> Settings:
    if in_plane:
        beta = rng.uniform(0.0, 0.99)
        boost = Boost(X_AXIS, beta)
        return ChshSettings(_random_xy(rng), _random_xy(rng),
                            _random_xy(rng), _random_xy(rng), boost, boost)
    return ChshSettings(_random_unit(rng), _random_unit(rng),
                        _random_unit(rng), _random_unit(rng),
                        Boost(_random_unit(rng), rng.uniform(0.0, 0.99)),
                        Boost(_random_unit(rng), rng.uniform(0.0, 0.99)))


def _random_mermin(rng, in_plane: bool) -> Settings:
    if in_plane:
        boosts = [Boost(_random_xy(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [_random_xy(rng) for _ in range(6)]
    else:
        boosts = [Boost(_random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [_random_unit(rng) for _ in range(6)]
    return MerminSettings(*dirs, *boosts)


def _check_chsh_square_generic(tolerance, seed):
    rng = _rng(seed, 1)
    residual = max(chsh_square_identity_residual(_random_chsh(rng, in_plane=False))
                   for _ in range(150))
    return _conformance(
        "chsh-square-generic-identity", residual, tolerance,
        "squared two-qubit operator vs 4I - [A,A'](x)[B,B'] on random "
        "directions and boosts")


def _check_chsh_square_in_plane(tolerance, seed):
    rng = _rng(seed, 2)
    residual = max(chsh_square_identity_residual(_random_chsh(rng, in_plane=True))
                   for _ in range(150))
    return _conformance(
        "chsh-square-inplane-identity", residual, tolerance,
        "squared two-qubit operator vs the sigma_z (x) sigma_z reduced form "
        "for xy-plane settings under collinear x boosts")


def _top_eigenvalues(squares) -> np.ndarray:
    """Largest eigenvalue of each matrix, from one stacked eigensolve."""
    return hermitian_eigensystem(np.stack(squares))[0][:, -1]


def _check_chsh_zeta_spectral(tolerance, seed):
    rng = _rng(seed, 3)
    squares, peaks = [], []
    for beta in BETA_SAMPLES:
        boost = Boost(X_AXIS, beta)
        for _ in range(40):
            settings = ChshSettings(_random_xy(rng), _random_xy(rng),
                                    _random_xy(rng), _random_xy(rng), boost, boost)
            operator = chsh_operator(settings)
            squares.append(operator @ operator)
            peaks.append(chsh_zeta(settings))
    residual = 0.0
    for top, peak in zip(_top_eigenvalues(squares), peaks):
        residual = max(residual, abs(top - peak))
    return _conformance(
        "chsh-square-peak-closed-form", residual, tolerance,
        "closed-form largest eigenvalue of the squared operator vs the "
        "numeric spectrum")


def _check_chsh_zeta_eigenstates(tolerance, seed):
    rng = _rng(seed, 4)
    residual = 0.0
    for beta in BETA_SAMPLES:
        boost = Boost(X_AXIS, beta)
        for _ in range(40):
            settings = ChshSettings(_random_xy(rng), _random_xy(rng),
                                    _random_xy(rng), _random_xy(rng), boost, boost)
            operator = chsh_operator(settings)
            square = operator @ operator
            peak = chsh_zeta(settings)
            a, a_prime, b, b_prime = settings.directions
            sin_a = math.sin(math.atan2(a[1], a[0]) - math.atan2(a_prime[1], a_prime[0]))
            sin_b = math.sin(math.atan2(b[1], b[0]) - math.atan2(b_prime[1], b_prime[0]))
            indices = (0, 3) if sin_a * sin_b >= 0.0 else (1, 2)
            for index in indices:
                basis = np.zeros(4, dtype=complex)
                basis[index] = 1.0
                residual = max(residual,
                               float(np.max(np.abs(square @ basis - peak * basis))))
    return _conformance(
        "chsh-square-peak-eigenstates", residual, tolerance,
        "|00>,|11> (same-sign angle gaps) or |01>,|10> (opposite sign) are "
        "eigenvectors of the squared operator at its peak eigenvalue")


def _check_chsh_collinear_curve(tolerance, seed):
    state = phi_plus()
    residual = 0.0
    operators = bell_operator_grid(chsh_collinear_settings(0.0), BETA_GRID)
    numerics = max_violation(operators).tolist()
    for beta, operator, numeric in zip(BETA_GRID, operators, numerics):
        closed = epsilon2(beta)
        residual = max(residual, abs(closed - numeric),
                       abs(closed - expectation(state, operator)))
    return _conformance(
        "chsh-collinear-curve", residual, tolerance,
        "closed-form peak value vs numeric operator norm and vs the "
        "maximally-entangled-state expectation, over the beta grid")


def _check_phi_correlator(tolerance, seed):
    rng = _rng(seed, 6)
    state = phi_plus()
    residual = 0.0
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X_AXIS, beta)
        for _ in range(100):
            a = _random_xy(rng)
            b = _random_xy(rng)
            closed = phi_plus_correlator_closed_form(a, b, beta)
            matrix = expectation(state, kron(observable_matrix(a, boost),
                                             observable_matrix(b, boost)))
            residual = max(residual, abs(closed - matrix))
    return _conformance(
        "pair-correlator-closed-form", residual, tolerance,
        "closed-form pair correlator vs matrix expectation for xy-plane "
        "directions")


def _check_phi_correlator_z_term(seed):
    beta = 0.6
    boost = Boost(X_AXIS, beta)
    a = np.array([0.0, 0.0, 1.0])
    matrix = expectation(phi_plus(), kron(observable_matrix(a, boost),
                                          observable_matrix(a, boost)))
    factor = boost_denominator_sq(a[0], beta)
    unit_coefficient = (a[2] * a[2]) / factor
    shrunk_coefficient = (1.0 - beta * beta) * (a[2] * a[2]) / factor
    return _erratum(
        "pair-correlator-z-term", abs(unit_coefficient - matrix),
        "general-direction variant with a plain a_z b_z term gives "
        f"{unit_coefficient:.6f} for z measurements at beta = {beta}, while the "
        f"matrix gives {matrix:.6f}; the (1 - beta^2) a_z b_z coefficient "
        f"matches (residual {abs(shrunk_coefficient - matrix):.2e})")


def _check_ghz_offdiagonal(tolerance, seed):
    rng = _rng(seed, 8)
    residual = 0.0
    for beta in (0.0, 0.5, 0.9):
        boosts = [Boost(X_AXIS, beta)] * 3
        for _ in range(100):
            dirs = [_random_xy(rng) for _ in range(3)]
            closed = ghz_offdiagonal_closed_form(*dirs, beta)
            operator = kron3(*(observable_matrix(d, boost)
                               for d, boost in zip(dirs, boosts)))
            residual = max(residual, abs(closed - operator[7, 0]),
                           abs(np.conj(operator[0, 7]) - operator[7, 0]))
    return _conformance(
        "ghz-offdiagonal-closed-form", residual, tolerance,
        "closed-form <111|A(x)B(x)C|000> element vs the matrix element and "
        "its Hermitian pairing")


def _check_ghz_correlator(tolerance, seed):
    rng = _rng(seed, 9)
    state = ghz_plus()
    residual = 0.0
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X_AXIS, beta)
        for _ in range(100):
            dirs = [_random_xy(rng) for _ in range(3)]
            closed = ghz_correlator_closed_form(*dirs, beta)
            operator = kron3(*(observable_matrix(d, boost) for d in dirs))
            residual = max(residual,
                           abs(closed - expectation(state, operator)),
                           abs(closed - ghz_offdiagonal_closed_form(*dirs, beta).real))
    return _conformance(
        "ghz-correlator-closed-form", residual, tolerance,
        "closed-form GHZ correlator vs matrix expectation and vs the real "
        "part of the off-diagonal element")


def _check_ghz_diagonal(seed):
    beta = 0.6
    boost = Boost(X_AXIS, beta)
    dirs = [X_AXIS, X_AXIS, X_AXIS]
    operator = kron3(*(observable_matrix(d, boost) for d in dirs))
    matrix = float(operator[0, 0].real)
    claimed = (1.0 - beta * beta) ** 1.5  # x settings: every boost factor is 1
    return _erratum(
        "ghz-diagonal-element", abs(claimed - matrix),
        "the diagonal <000|A(x)B(x)C|000> element vanishes for xy-plane "
        "settings under x boosts (effective directions have no z component); "
        f"the (1-beta^2)^(3/2) a_x b_x c_x variant gives {claimed:.6f} at "
        f"beta = {beta} where the matrix gives {matrix:.6f}")


def _check_ghz_collinear_expectation(seed):
    state = ghz_plus()
    as_given = expectation(state, mermin_operator(mermin_collinear_settings(0.5)))
    swapped = expectation(state, mermin_operator(
        mermin_collinear_settings(0.5, prime_swap=True)))
    return _erratum(
        "ghz-collinear-settings-expectation", abs(abs(as_given) - 4.0),
        "the y-unprimed/x-primed assignment gives a GHZ expectation of "
        f"{as_given:.6f}, not the full violation 4; exchanging primed and "
        f"unprimed gives {swapped:.6f} (magnitude 4)")


def _check_mermin_square(tolerance, seed):
    rng = _rng(seed, 12)
    residual = 0.0
    for _ in range(150):
        settings = _random_mermin(rng, in_plane=False)
        operator = mermin_operator(settings)
        residual = max(residual, float(np.max(np.abs(
            operator @ operator - mermin_square_closed_form(settings)))))
    return _conformance(
        "mermin-square-closed-form", residual, tolerance,
        "squared three-qubit operator vs the commutator closed form with "
        "pairs on qubit legs (1,2), (1,3), (2,3)")


def _check_mermin_square_leg_swap(seed):
    rng = _rng(seed, 13)
    worst = 0.0
    derived = 0.0
    for _ in range(50):
        settings = _random_mermin(rng, in_plane=True)
        operator = mermin_operator(settings)
        square = operator @ operator
        worst = max(worst, float(np.max(np.abs(
            square - mermin_square_swapped_legs(settings)))))
        derived = max(derived, float(np.max(np.abs(
            square - mermin_square_closed_form(settings)))))
    return _erratum(
        "mermin-square-leg-placement", worst,
        "placing the (A,C) commutator pair on qubits (2,3) and the (B,C) "
        f"pair on (1,3) misses the brute-force square by up to {worst:.3f}; "
        f"the (1,3)/(2,3) placement matches within {derived:.2e}")


def _check_mermin_lambda_spectral(tolerance, seed):
    rng = _rng(seed, 14)
    squares, peaks = [], []
    for _ in range(60):
        settings = _random_mermin(rng, in_plane=True)
        operator = mermin_operator(settings)
        squares.append(operator @ operator)
        peaks.append(mermin_lambda3(settings))
    residual = 0.0
    for top, peak in zip(_top_eigenvalues(squares), peaks):
        residual = max(residual, abs(top - peak))
    return _conformance(
        "mermin-square-peak-closed-form", residual, tolerance,
        "coplanar closed-form largest eigenvalue 4(1 + k1k2 + k1k3 + k2k3) "
        "vs the numeric spectrum of the brute-force square")


def _check_mermin_zero_eigenvector(tolerance, seed):
    boost = Boost(X_AXIS, 0.0)
    quarter = math.pi / 2.0
    dirs = []
    for base in (0.3, 1.1, 2.4):  # arbitrary base angles; gaps are pi/2
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        dirs.append(np.array([math.cos(base - quarter), math.sin(base - quarter), 0.0]))
    settings = MerminSettings(*dirs, boost, boost, boost)
    operator = mermin_operator(settings)
    basis = np.zeros(8, dtype=complex)
    basis[1] = 1.0  # |001>
    residual = float(np.max(np.abs(operator @ (operator @ basis))))
    return _conformance(
        "mermin-square-zero-eigenvector", residual, tolerance,
        "|001> is annihilated by the squared operator when every "
        "primed/unprimed angle gap is pi/2 at beta = 0")


def _check_mermin_collinear_invariance(tolerance, seed):
    residual = max(abs(mermin_lambda3(mermin_collinear_settings(beta)) - 16.0)
                   for beta in BETA_GRID)
    return _conformance(
        "mermin-collinear-invariance", residual, tolerance,
        "the squared-operator peak stays 16 for the y/x settings at every "
        "collinear boost speed")


def _check_com_curve(tolerance, seed):
    residual = 0.0
    operators = bell_operator_grid(mermin_com_settings(0.0), BETA_GRID)
    tops = _top_eigenvalues([operator @ operator for operator in operators])
    for beta, top in zip(BETA_GRID, tops):
        residual = max(residual, abs(math.sqrt(top) - epsilon3_com(beta)))
    return _conformance(
        "com-curve-spectral", residual, tolerance,
        "closed-form center-of-mass peak value vs the numeric square root "
        "of the largest squared-operator eigenvalue")


def _check_com_square_consistency(tolerance, seed):
    residual = max(abs(epsilon3_com(beta) ** 2 - lambda_com(beta))
                   for beta in BETA_GRID + (1.0,))
    return _conformance(
        "com-curve-square-consistency", residual, tolerance,
        "the squared peak value equals the closed-form largest eigenvalue "
        "across the grid including beta = 1")


def _check_com_unprimed_directions(tolerance, seed):
    residual = 0.0
    for beta in BETA_GRID:
        effective = mermin_com_settings(beta).effective_directions()
        closed = com_closed_form_directions(beta)
        residual = max(residual,
                       float(np.max(np.abs(effective[0] - closed["a"]))),
                       float(np.max(np.abs(effective[1] - closed["a_prime"]))),
                       float(np.max(np.abs(effective[2] - closed["b"]))),
                       float(np.max(np.abs(effective[4] - closed["c"]))))
    return _conformance(
        "com-unprimed-closed-form", residual, tolerance,
        "closed-form effective directions for the y settings (and the fixed "
        "points of particle 1) vs the boost map")


def _check_com_primed_coefficient(seed):
    worst_alt = 0.0
    worst_alt_norm = 0.0
    worst_derived = 0.0
    for beta in BETA_GRID:
        effective = mermin_com_settings(beta).effective_directions()
        closed = com_closed_form_directions(beta)
        worst_derived = max(worst_derived,
                            float(np.max(np.abs(effective[3] - closed["b_prime_derived"]))),
                            float(np.max(np.abs(effective[5] - closed["c_prime_derived"]))))
        worst_alt = max(worst_alt,
                        float(np.max(np.abs(effective[3] - closed["b_prime_alt"]))),
                        float(np.max(np.abs(effective[5] - closed["c_prime_alt"]))))
        worst_alt_norm = max(worst_alt_norm,
                             abs(float(np.linalg.norm(closed["b_prime_alt"])) - 1.0))
    return _erratum(
        "com-primed-coefficient", worst_alt,
        "the x-numerator 3 + sqrt(1-beta^2) for the primed directions is not "
        f"unit norm for beta > 0 (worst norm deviation {worst_alt_norm:.3f}) "
        f"and misses the boost map by up to {worst_alt:.3f}; the derived "
        f"1 + 3 sqrt(1-beta^2) matches within {worst_derived:.2e}")


def _check_com_ghz_expectation(tolerance, seed):
    state = ghz_plus()
    residual = 0.0
    operators = bell_operator_grid(mermin_com_settings(0.0, prime_swap=True), BETA_GRID)
    for beta, operator in zip(BETA_GRID, operators):
        swapped = expectation(state, operator)
        residual = max(residual, abs(abs(swapped) - epsilon3_com(beta)))
    as_given = expectation(state, mermin_operator(mermin_com_settings(0.5)))
    return _conformance(
        "com-ghz-expectation", residual, tolerance,
        "|GHZ expectation| of the prime-swapped operator equals the "
        f"closed-form peak across the grid (the unswapped assignment gives "
        f"{as_given:.2e})")


def _check_observable_contracts(tolerance, seed):
    rng = _rng(seed, 20)
    identity2 = np.eye(2)
    residual = 0.0
    for _ in range(2000):
        boost = Boost(_random_unit(rng), rng.uniform(0.0, 0.999))
        matrix = observable_matrix(_random_unit(rng), boost)
        residual = max(residual,
                       float(np.max(np.abs(matrix - matrix.conj().T))),
                       abs(complex(np.trace(matrix))),
                       float(np.max(np.abs(matrix @ matrix - identity2))))
    zero_beta = max(float(np.max(np.abs(
        effective_direction(d := _random_unit(rng), Boost(_random_unit(rng), 0.0)) - d)))
        for _ in range(100))
    residual = max(residual, zero_beta)
    return _conformance(
        "observable-contracts", residual, tolerance,
        "boosted observables are Hermitian, traceless and square to the "
        "identity; the beta = 0 map is exact")


def _check_effective_direction_roundtrip(tolerance, seed):
    rng = _rng(seed, 21)
    residual = 0.0
    for _ in range(500):
        target = _random_unit(rng)
        boost = Boost(_random_unit(rng), rng.uniform(0.0, 0.99))
        shrink = math.sqrt(1.0 - boost.beta ** 2)
        along = float(boost.direction @ target)
        preimage = along * boost.direction + (target - along * boost.direction) / shrink
        preimage = unit3(preimage / np.linalg.norm(preimage))
        residual = max(residual, float(np.max(np.abs(
            effective_direction(preimage, boost) - target))))
    return _conformance(
        "effective-direction-roundtrip", residual, tolerance,
        "every unit direction has a preimage under the boost map (inverse "
        "scales the perpendicular component by 1/sqrt(1-beta^2))")


def run_all_checks(tolerance: float = 1e-9, seed: int = 0) -> list[CheckResult]:
    """Run the full battery.  The tolerance gates PASS/FAIL rows; ERRATUM
    rows carry the measured disagreement of the known-bad variants."""
    return [
        _check_chsh_square_generic(tolerance, seed),
        _check_chsh_square_in_plane(tolerance, seed),
        _check_chsh_zeta_spectral(tolerance, seed),
        _check_chsh_zeta_eigenstates(tolerance, seed),
        _check_chsh_collinear_curve(tolerance, seed),
        _check_phi_correlator(tolerance, seed),
        _check_phi_correlator_z_term(seed),
        _check_ghz_offdiagonal(tolerance, seed),
        _check_ghz_correlator(tolerance, seed),
        _check_ghz_diagonal(seed),
        _check_ghz_collinear_expectation(seed),
        _check_mermin_square(tolerance, seed),
        _check_mermin_square_leg_swap(seed),
        _check_mermin_lambda_spectral(tolerance, seed),
        _check_mermin_zero_eigenvector(tolerance, seed),
        _check_mermin_collinear_invariance(tolerance, seed),
        _check_com_curve(tolerance, seed),
        _check_com_square_consistency(tolerance, seed),
        _check_com_unprimed_directions(tolerance, seed),
        _check_com_primed_coefficient(seed),
        _check_com_ghz_expectation(tolerance, seed),
        _check_observable_contracts(tolerance, seed),
        _check_effective_direction_roundtrip(tolerance, seed),
    ]
