"""Closed-form-versus-brute-force verification battery.

Every check compares a closed form against exact matrix computation.  The
rows come from one table, CHECKS, of (name, gated, check) in report order.
A check takes the run's seed, draws from its own generator _rng(seed,
index), and returns its residuals unreduced, with the row's detail;
run_all_checks reduces them with one np.max, so a row's residual is the
largest of its residuals, and NaN if any of them is NaN.  Gated rows
PASS or FAIL on the tolerance and set the verify command's exit code; a NaN
residual FAILs.  ERRATUM rows document formula variants that demonstrably
disagree with brute force; they are reported with their measured
disagreement and never gated, because the disagreement is the finding.

The curve rows check the library paths the commands run: the two-qubit and
center-of-mass GHZ curves read their rows from scenarios.sweep, and the
center-of-mass rows take their effective directions from
effective_directions_grid and their closed-form candidates from one
com_closed_form_directions call over the whole grid.

A randomized or grid check draws its raw numbers in a fixed stream order:
only uniforms in one rng.random((S, k)) call, scaled by each draw's upper
bound, and normals mixed with uniforms in a loop over the samples of raw
rng.normal and rng.random calls, since the ziggurat takes a data-dependent
number of words.  It validates each drawn stack once (unit3_stack,
boost_speeds), each error carrying its first failing row, then evaluates
the closed forms under test and the brute force on the whole stack: one
boost_map over (S, D, 3) directions with each sample's own boost axes and
speeds, then stacked observables, Kronecker products and mm products.  Each
element keeps the bits of its one-sample computation, and a float maximum
is exact in any order, so the report does not depend on the batching.
Complex magnitudes are np.hypot of the parts: np.abs rounds differently,
and np.hypot has the bits of Python's abs, but for a NaN's sign.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bell import (
    FAMILIES,
    Settings,
    bell_operator,
    chsh_in_plane_terms,
    chsh_zeta_from_terms,
    effective_directions_grid,
    square_closed_form,
    square_peak_from_directions,
)
from .linalg import SIGMA_Z, expectation, hermitian_eigensystem, kron, mm
from .observables import (
    Boost,
    boost_denominator_sq,
    boost_map,
    boost_speeds,
    direction_matrix,
    inverse_boost_map,
    shrink_sq,
    unit3_stack,
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
    sweep,
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
#: The erratum placement of the squared three-qubit operator's commutator
#: pairs (see square_closed_form): (A,C) on qubits (2,3), (B,C) on (1,3).
SWAPPED_LEGS = ((0, 1, None), (None, 0, 2), (1, None, 2))
#: The upper bound of a random angle.
TAU = 2.0 * math.pi


class CheckResult(NamedTuple):
    check: str
    status: str
    residual: float
    tolerance: float | None
    detail: str


def _rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the check at index in a run at seed."""
    return np.random.default_rng([seed, index])


# Draws.  uniform(0, h) is h * rng.random() bit for bit, and consecutive
# draws of one distribution concatenate.  A draw returns validated stacks
# of directions and the boost axes and speeds acting on them.

def _unit(normals: np.ndarray) -> np.ndarray:
    """Each row of normals (..., 3) over its norm, its squared norm by mm."""
    return unit3_stack(normals / np.sqrt(mm(normals[..., None, :], normals[..., None]))[..., 0])


def _xy(angles: np.ndarray) -> np.ndarray:
    """The xy-plane directions (..., 3) at angles (...)."""
    return unit3_stack(np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], -1))


def _per_sample(rng, samples: int, *sizes) -> list[np.ndarray]:
    """samples rounds of raw draws, rng.random() for a size None and
    rng.normal(size=size) else, in order: one stack (S, *size) per draw."""
    stacks = [np.empty((samples, *(size or ()))) for size in sizes]
    for s in range(samples):
        for stack, size in zip(stacks, sizes):
            stack[s] = rng.random() if size is None else rng.normal(size=size)
    return stacks


def _draw_free(rng, samples: int, n_particles: int):
    """Gaussian directions and boost axes, speeds below 0.99.  Two particles
    draw their directions before their boosts, three after; each boost
    draws its axis, then its speed."""
    boosts = ((3,), None) * n_particles
    draws = _per_sample(rng, samples, *(((4, 3),) + boosts if n_particles == 2
                                        else boosts + ((6, 3),)))
    directions = draws.pop(0 if n_particles == 2 else -1)
    axes, speeds = np.stack(draws[0::2], axis=1), np.stack(draws[1::2], axis=1)
    return (_unit(directions), np.repeat(_unit(axes), 2, axis=1),
            np.repeat(boost_speeds(0.99 * speeds), 2, axis=1))


def _draw_mermin_in_plane(rng, samples: int):
    """xy-plane directions and boost axes: each sample draws three boosts,
    each an angle then a speed below 0.99, then six angles."""
    draws = rng.random((samples, 12))
    boosts = draws[:, :6].reshape(samples, 3, 2)
    return (_xy(TAU * draws[:, 6:]), np.repeat(_xy(TAU * boosts[..., 0]), 2, axis=1),
            np.repeat(boost_speeds(0.99 * boosts[..., 1]), 2, axis=1))


def _draw_x_boosted(rng, samples: int, per_sample: int, speeds=None):
    """per_sample xy-plane directions per sample under an x boost at its
    speed of speeds (S,); without speeds, each sample draws its speed below
    0.99 before its angles."""
    draws = rng.random((samples, per_sample + (speeds is None)))
    if speeds is None:
        speeds, draws = 0.99 * draws[:, 0], draws[:, 1:]
    return _xy(TAU * draws), X_AXIS, boost_speeds(speeds[:, None])


def _draw_contracts(rng):
    """2000 samples of a Gaussian boost axis, a speed below 0.999 and a
    Gaussian direction, then 100 of a direction and a boost axis at speed 0."""
    axes, speeds, directions = _per_sample(rng, 2000, (3,), None, (3,))
    rest = _unit(rng.normal(size=(100, 2, 3)))
    return ((_unit(directions), _unit(axes), boost_speeds(0.999 * speeds)),
            (rest[:, 0], rest[:, 1], np.zeros(100)))


def _draw_roundtrip(rng):
    """500 samples of a Gaussian target direction and boost axis and a
    speed below 0.99."""
    normals, speeds = _per_sample(rng, 500, (2, 3), None)
    units = _unit(normals)
    return units[:, 0], units[:, 1], boost_speeds(0.99 * speeds)


def _brute_force(directions, axes, speeds):
    """The (S, D, 3) effective directions of drawn samples from one
    boost_map, their (D, S, 2, 2) observables, and the (S, d, d)
    brute-force square B @ B of each sample's Bell operator."""
    n = boost_map(directions, axes, speeds)
    observables = direction_matrix(np.moveaxis(n, -2, 0))
    operators = FAMILIES[len(observables) // 2].signed_sum(observables)
    return n, observables, mm(operators, operators)


def _check_chsh_square_generic(seed):
    _, observables, squares = _brute_force(*_draw_free(_rng(seed, 1), 150, 2))
    return (np.abs(squares - square_closed_form(observables)),
            "squared two-qubit operator vs 4I - [A,A'](x)[B,B'] on random "
            "directions and boosts")


def _check_chsh_square_in_plane(seed):
    # The reduced form 4 [I + coeff sigma_z (x) sigma_z], with
    # coeff = (1 - beta^2) sin(phi_a - phi_a') sin(phi_b - phi_b')
    #         / sqrt(prod_v ((1 - beta^2) + beta^2 v_x^2)),
    # is compared beside square_closed_form: every sample is in-plane.
    draws = _draw_x_boosted(_rng(seed, 2), 150, 4)
    shrink_sq, sin_a, sin_b, denom = chsh_in_plane_terms(draws[0], draws[2][:, 0])
    _, observables, squares = _brute_force(*draws)
    coeff = shrink_sq * sin_a * sin_b / np.sqrt(denom)
    reduced = 4.0 * (np.eye(4, dtype=complex) + coeff[:, None, None] * kron(SIGMA_Z, SIGMA_Z))
    return ([np.abs(squares - square_closed_form(observables)), np.abs(squares - reduced)],
            "squared two-qubit operator vs the sigma_z (x) sigma_z reduced form "
            "for xy-plane settings under collinear x boosts")


def _chsh_xy_grid(rng):
    """chsh_in_plane_terms, chsh_zeta and the brute-force square of 40
    random xy-plane samples at each of BETA_SAMPLES."""
    draws = _draw_x_boosted(rng, 200, 4, np.repeat(BETA_SAMPLES, 40))
    terms = chsh_in_plane_terms(draws[0], draws[2][:, 0])
    return terms, chsh_zeta_from_terms(*terms), _brute_force(*draws)[2]


def _check_chsh_zeta_spectral(seed):
    _, peaks, squares = _chsh_xy_grid(_rng(seed, 3))
    return (np.abs(hermitian_eigensystem(squares)[0][:, -1] - peaks),
            "closed-form largest eigenvalue of the squared operator vs the "
            "numeric spectrum")


def _check_chsh_zeta_eigenstates(seed):
    (_, sin_a, sin_b, _), peaks, squares = _chsh_xy_grid(_rng(seed, 4))
    indices = np.where((sin_a * sin_b >= 0.0)[:, None], (0, 3), (1, 2))
    basis = np.eye(4, dtype=complex)[indices]
    images = mm(squares[:, None], basis[..., None])[..., 0]
    return (np.abs(images - peaks[:, None, None] * basis),
            "|00>,|11> (same-sign angle gaps) or |01>,|10> (opposite sign) are "
            "eigenvectors of the squared operator at its peak eigenvalue")


def _check_chsh_collinear_curve(seed):
    rows = list(sweep(chsh_collinear_settings(0.0), BETA_GRID, epsilon2))
    return ([[row.residual_closed_numeric for row in rows],
             [abs(row.closed_form - row.state_expectation) for row in rows]],
            "closed-form peak value vs numeric operator norm and vs the "
            "maximally-entangled-state expectation, over the beta grid")


def _xy_rows(seed, index, per_sample):
    """The closed-form arguments (*directions, beta) of 100 random samples
    of per_sample xy-plane directions at each of beta = 0, 0.5, 0.9, and the
    (S, d, d) Kronecker product of each sample's observables."""
    directions, axes, speeds = _draw_x_boosted(_rng(seed, index), 300, per_sample,
                                               np.repeat((0.0, 0.5, 0.9), 100))
    n = boost_map(directions, axes, speeds)
    return ((*np.moveaxis(directions, -2, 0), speeds[:, 0]),
            kron(*direction_matrix(np.moveaxis(n, -2, 0))))


def _check_phi_correlator(seed):
    arguments, operators = _xy_rows(seed, 6, 2)
    values = expectation(phi_plus(), operators)
    return (np.abs(phi_plus_correlator_closed_form(*arguments) - values),
            "closed-form pair correlator vs matrix expectation for xy-plane "
            "directions")


def _check_phi_correlator_z_term(seed):
    beta = 0.6
    a = np.array([0.0, 0.0, 1.0])
    observable = direction_matrix(boost_map(a, X_AXIS, beta))
    matrix = expectation(phi_plus(), kron(observable, observable))
    factor = boost_denominator_sq(a[0], beta)
    unit_coefficient = (a[2] * a[2]) / factor
    shrunk_coefficient = shrink_sq(beta) * (a[2] * a[2]) / factor
    return (abs(unit_coefficient - matrix),
            "general-direction variant with a plain a_z b_z term gives "
            f"{unit_coefficient:.6f} for z measurements at beta = {beta}, while the "
            f"matrix gives {matrix:.6f}; the (1 - beta^2) a_z b_z coefficient "
            f"matches (residual {abs(shrunk_coefficient - matrix):.2e})")


def _check_ghz_offdiagonal(seed):
    arguments, operators = _xy_rows(seed, 8, 3)
    elements = operators[:, 7, 0]
    closed = ghz_offdiagonal_closed_form(*arguments) - elements
    pairing = operators[:, 0, 7].conj() - elements
    return ([np.hypot(closed.real, closed.imag), np.hypot(pairing.real, pairing.imag)],
            "closed-form <111|A(x)B(x)C|000> element vs the matrix element and "
            "its Hermitian pairing")


def _check_ghz_correlator(seed):
    arguments, operators = _xy_rows(seed, 9, 3)
    correlator = ghz_correlator_closed_form(*arguments)
    offdiagonal = ghz_offdiagonal_closed_form(*arguments).real
    values = expectation(ghz_plus(), operators)
    return (np.abs([correlator - values, correlator - offdiagonal]),
            "closed-form GHZ correlator vs matrix expectation and vs the real "
            "part of the off-diagonal element")


def _check_ghz_diagonal(seed):
    beta = 0.6
    dirs = np.array([X_AXIS, X_AXIS, X_AXIS])
    operator = kron(*direction_matrix(boost_map(dirs, X_AXIS, beta)))
    matrix = float(operator[0, 0].real)
    claimed = shrink_sq(beta) ** 1.5  # x settings: every boost factor is 1
    return (abs(claimed - matrix),
            "the diagonal <000|A(x)B(x)C|000> element vanishes for xy-plane "
            "settings under x boosts (effective directions have no z component); "
            f"the (1-beta^2)^(3/2) a_x b_x c_x variant gives {claimed:.6f} at "
            f"beta = {beta} where the matrix gives {matrix:.6f}")


def _check_ghz_collinear_expectation(seed):
    state = ghz_plus()
    as_given = expectation(state, bell_operator(mermin_collinear_settings(0.5)))
    swapped = expectation(state, bell_operator(
        mermin_collinear_settings(0.5).prime_swapped()))
    return (abs(abs(as_given) - 4.0),
            "the y-unprimed/x-primed assignment gives a GHZ expectation of "
            f"{as_given:.6f}, not the full violation 4; exchanging primed and "
            f"unprimed gives {swapped:.6f} (magnitude 4)")


def _check_mermin_square(seed):
    _, observables, squares = _brute_force(*_draw_free(_rng(seed, 12), 150, 3))
    return (np.abs(squares - square_closed_form(observables)),
            "squared three-qubit operator vs the commutator closed form with "
            "pairs on qubit legs (1,2), (1,3), (2,3)")


def _check_mermin_square_leg_swap(seed):
    _, observables, squares = _brute_force(*_draw_mermin_in_plane(_rng(seed, 13), 50))
    worst = np.max(np.abs(squares - square_closed_form(observables, SWAPPED_LEGS)))
    derived = np.max(np.abs(squares - square_closed_form(observables)))
    return (worst,
            "placing the (A,C) commutator pair on qubits (2,3) and the (B,C) "
            f"pair on (1,3) misses the brute-force square by up to {worst:.3f}; "
            f"the (1,3)/(2,3) placement matches within {derived:.2e}")


def _check_mermin_lambda_spectral(seed):
    n, _, squares = _brute_force(*_draw_mermin_in_plane(_rng(seed, 14), 60))
    return (np.abs(hermitian_eigensystem(squares)[0][:, -1] - square_peak_from_directions(n)),
            "coplanar closed-form largest eigenvalue 4(1 + k1k2 + k1k3 + k2k3) "
            "vs the numeric spectrum of the brute-force square")


def _check_mermin_zero_eigenvector(seed):
    boost = Boost(X_AXIS, 0.0)
    bases = np.repeat((0.3, 1.1, 2.4), 2)  # arbitrary base angles; gaps are pi/2
    settings = Settings(_xy(bases - np.tile((0.0, math.pi / 2.0), 3)), (boost, boost, boost))
    operator = bell_operator(settings)
    basis = np.eye(8, dtype=complex)[:, [1]]  # |001>
    return (np.abs(mm(operator, mm(operator, basis))),
            "|001> is annihilated by the squared operator when every "
            "primed/unprimed angle gap is pi/2 at beta = 0")


def _check_mermin_collinear_invariance(seed):
    grid = effective_directions_grid(mermin_collinear_settings(0.0), BETA_GRID)
    return (np.abs(square_peak_from_directions(grid) - 16.0),
            "the squared-operator peak stays 16 for the y/x settings at every "
            "collinear boost speed")


def _check_com_curve(seed):
    settings = mermin_com_settings(0.0)
    operators = settings.family.operators(effective_directions_grid(settings, BETA_GRID))
    tops = hermitian_eigensystem(mm(operators, operators))[0][:, -1]
    return (np.abs(np.sqrt(tops) - epsilon3_com(BETA_GRID)),
            "closed-form center-of-mass peak value vs the numeric square root "
            "of the largest squared-operator eigenvalue")


def _check_com_square_consistency(seed):
    grid = BETA_GRID + (1.0,)
    return (np.abs(epsilon3_com(grid) ** 2 - lambda_com(grid)),
            "the squared peak value equals the closed-form largest eigenvalue "
            "across the grid including beta = 1")


def _com_directions(*keys):
    """The boost map's center-of-mass effective directions over BETA_GRID,
    (R, D, 3), and the closed-form candidates under keys, (R, K, 3)."""
    effective = effective_directions_grid(mermin_com_settings(0.0), BETA_GRID)
    closed = com_closed_form_directions(BETA_GRID)
    return effective, np.stack([closed[key] for key in keys], axis=1)


def _check_com_unprimed_directions(seed):
    effective, closed = _com_directions("a", "a_prime", "b", "c")
    return (np.abs(effective[:, [0, 1, 2, 4]] - closed),
            "closed-form effective directions for the y settings (and the fixed "
            "points of particle 1) vs the boost map")


def _check_com_primed_coefficient(seed):
    effective, closed = _com_directions("b_prime_derived", "c_prime_derived",
                                        "b_prime_alt", "c_prime_alt")
    primed = effective[:, [3, 5]]
    worst_derived = np.max(np.abs(primed - closed[:, :2]))
    worst_alt = np.max(np.abs(primed - closed[:, 2:]))
    worst_alt_norm = np.max(np.abs(np.sqrt(mm(closed[:, 2, None], closed[:, 2, :, None])) - 1.0))
    return (worst_alt,
            "the x-numerator 3 + sqrt(1-beta^2) for the primed directions is not "
            f"unit norm for beta > 0 (worst norm deviation {worst_alt_norm:.3f}) "
            f"and misses the boost map by up to {worst_alt:.3f}; the derived "
            f"1 + 3 sqrt(1-beta^2) matches within {worst_derived:.2e}")


def _check_com_ghz_expectation(seed):
    rows = sweep(mermin_com_settings(0.0).prime_swapped(), BETA_GRID, epsilon3_com)
    as_given = expectation(ghz_plus(), bell_operator(mermin_com_settings(0.5)))
    return ([abs(abs(row.state_expectation) - row.closed_form) for row in rows],
            "|GHZ expectation| of the prime-swapped operator equals the "
            f"closed-form peak across the grid (the unswapped assignment gives "
            f"{as_given:.2e})")


def _check_observable_contracts(seed):
    boosted, rest = _draw_contracts(_rng(seed, 20))
    matrices = direction_matrix(boost_map(*boosted))
    traces = np.trace(matrices, axis1=-2, axis2=-1)
    zero_beta = boost_map(*rest) - rest[0]
    return (np.concatenate([np.abs(matrices - matrices.conj().swapaxes(-1, -2)).ravel(),
                            np.hypot(traces.real, traces.imag),
                            np.abs(mm(matrices, matrices) - np.eye(2)).ravel(),
                            np.abs(zero_beta).ravel()]),
            "boosted observables are Hermitian, traceless and square to the "
            "identity; the beta = 0 map is exact")


def _check_effective_direction_roundtrip(seed):
    targets, axes, speeds = _draw_roundtrip(_rng(seed, 21))
    preimages = inverse_boost_map(targets, axes, speeds)
    return (np.abs(boost_map(preimages, axes, speeds) - targets),
            "every unit direction has a preimage under the boost map (inverse "
            "scales the perpendicular component by 1/sqrt(1-beta^2))")


#: The battery in report order: (row name, gated, check).  A check takes the
#: run's seed and returns (residuals, detail), its residuals unreduced: an array,
#: a list or a float.  Gated rows PASS or FAIL on the tolerance; the others
#: are ERRATUM rows.
CHECKS = (
    ("chsh-square-generic-identity", True, _check_chsh_square_generic),
    ("chsh-square-inplane-identity", True, _check_chsh_square_in_plane),
    ("chsh-square-peak-closed-form", True, _check_chsh_zeta_spectral),
    ("chsh-square-peak-eigenstates", True, _check_chsh_zeta_eigenstates),
    ("chsh-collinear-curve", True, _check_chsh_collinear_curve),
    ("pair-correlator-closed-form", True, _check_phi_correlator),
    ("pair-correlator-z-term", False, _check_phi_correlator_z_term),
    ("ghz-offdiagonal-closed-form", True, _check_ghz_offdiagonal),
    ("ghz-correlator-closed-form", True, _check_ghz_correlator),
    ("ghz-diagonal-element", False, _check_ghz_diagonal),
    ("ghz-collinear-settings-expectation", False, _check_ghz_collinear_expectation),
    ("mermin-square-closed-form", True, _check_mermin_square),
    ("mermin-square-leg-placement", False, _check_mermin_square_leg_swap),
    ("mermin-square-peak-closed-form", True, _check_mermin_lambda_spectral),
    ("mermin-square-zero-eigenvector", True, _check_mermin_zero_eigenvector),
    ("mermin-collinear-invariance", True, _check_mermin_collinear_invariance),
    ("com-curve-spectral", True, _check_com_curve),
    ("com-curve-square-consistency", True, _check_com_square_consistency),
    ("com-unprimed-closed-form", True, _check_com_unprimed_directions),
    ("com-primed-coefficient", False, _check_com_primed_coefficient),
    ("com-ghz-expectation", True, _check_com_ghz_expectation),
    ("observable-contracts", True, _check_observable_contracts),
    ("effective-direction-roundtrip", True, _check_effective_direction_roundtrip),
)


def run_all_checks(tolerance: float = 1e-9, seed: int = 0) -> list[CheckResult]:
    """Run the battery of CHECKS.  A row's residual is the largest of its
    check's residuals, NaN if any of them is NaN.  The tolerance gates
    PASS/FAIL rows, and a NaN residual FAILs; ERRATUM rows carry the
    measured disagreement of the known-bad variants."""
    results = []
    for name, gated, check in CHECKS:
        residuals, detail = check(seed)
        residual = float(np.max(residuals))
        status = (PASS if residual <= tolerance else FAIL) if gated else ERRATUM
        results.append(CheckResult(name, status, residual, tolerance if gated else None, detail))
    return results
