"""Closed-form-versus-brute-force verification battery.

Every check compares a closed form against exact matrix computation.  The
rows come from one table, CHECKS, of (name, gated, check) in report order.
A check takes the seed and returns its residuals unreduced, with the row's
detail; run_all_checks reduces them with one np.max, so a row's residual is
the largest of its residuals, and NaN if any of them is NaN.  Gated rows
PASS or FAIL on the tolerance and set the verify command's exit code; a NaN
residual FAILs.  ERRATUM rows document formula variants that demonstrably
disagree with brute force; they are reported with their measured
disagreement and never gated, because the disagreement is the finding.

A randomized or grid check first draws its samples in a Python loop, in a
fixed order of random draws, validating each input where it is built
(Boost, Settings, unit3) and evaluating the scalar closed forms.  It then
evaluates the whole sample set at once: one boost_map over the stacked
directions, stacked Kronecker products and matmuls; every brute-force
square B @ B comes from one helper, _squares.  Each element keeps the
bits of its one-sample computation, and a float maximum is exact in any
order, so the report does not depend on the batching.  For that, each
<s|M|s> stays one np.vdot per sample (expectation), and complex differences
compared one at a time keep the scalar abs, which rounds differently from
np.abs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    Settings,
    _chsh_in_plane,
    bell_operator,
    bell_operator_grid,
    chsh_zeta,
    effective_directions_grid,
    effective_observables,
    max_violation,
    mermin_lambda3,
    square_closed_form,
    square_peak_from_directions,
)
from .linalg import SIGMA_Z, expectation, hermitian_eigensystem, kron
from .observables import (
    Boost,
    boost_denominator_sq,
    boost_map,
    direction_matrix,
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
#: The erratum placement of the squared three-qubit operator's commutator
#: pairs (see square_closed_form): (A,C) on qubits (2,3), (B,C) on (1,3).
SWAPPED_LEGS = ((0, 1, None), (None, 0, 2), (1, None, 2))


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str
    residual: float
    tolerance: float | None
    detail: str


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
        boost = Boost(X_AXIS, rng.uniform(0.0, 0.99))
        return Settings([_random_xy(rng) for _ in range(4)], (boost, boost))
    return Settings([_random_unit(rng) for _ in range(4)],
                    [Boost(_random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(2)])


def _random_mermin(rng, in_plane: bool) -> Settings:
    if in_plane:
        boosts = [Boost(_random_xy(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [_random_xy(rng) for _ in range(6)]
    else:
        boosts = [Boost(_random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [_random_unit(rng) for _ in range(6)]
    return Settings(dirs, boosts)


def _random_chsh_xy_grid(rng) -> list[Settings]:
    """40 random xy-plane settings under x boosts at each of BETA_SAMPLES."""
    samples = []
    for beta in BETA_SAMPLES:
        boost = Boost(X_AXIS, beta)
        samples += [Settings([_random_xy(rng) for _ in range(4)], (boost, boost))
                    for _ in range(40)]
    return samples


def _xy_observables(rng, per_sample: int, closed_form):
    """100 samples of per_sample random xy directions at each of beta = 0,
    0.5, 0.9 under x boosts: closed_form(*directions, beta) of each, and the
    (per_sample, S, 2, 2) stack of their observables from one boost_map."""
    closed, directions, speeds = [], [], []
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X_AXIS, beta)
        for _ in range(100):
            dirs = [_random_xy(rng) for _ in range(per_sample)]
            closed.append(closed_form(*dirs, beta))
            directions.append([unit3(d) for d in dirs])
            speeds.append([boost.beta])
    n = boost_map(np.array(directions), X_AXIS, np.array(speeds))
    return closed, direction_matrix(n.swapaxes(0, 1))


def _squares(samples):
    """The (D, S, 2, 2) effective observables of samples of one particle
    count, and the (S, d, d) brute-force square B @ B of each sample's Bell
    operator."""
    observables = effective_observables(samples)
    operators = samples[0].family.assemble(*observables)
    return observables, operators @ operators


def _check_chsh_square_generic(seed):
    rng = _rng(seed, 1)
    observables, squares = _squares([_random_chsh(rng, in_plane=False) for _ in range(150)])
    return (np.abs(squares - square_closed_form(observables)),
            "squared two-qubit operator vs 4I - [A,A'](x)[B,B'] on random "
            "directions and boosts")


def _check_chsh_square_in_plane(seed):
    # The reduced form 4 [I + coeff sigma_z (x) sigma_z], with
    # coeff = (1 - beta^2) sin(phi_a - phi_a') sin(phi_b - phi_b')
    #         / sqrt(prod_v (1 + beta^2 (v_x^2 - 1))),
    # is compared beside square_closed_form: every sample is in-plane.
    rng = _rng(seed, 2)
    samples = [_random_chsh(rng, in_plane=True) for _ in range(150)]
    observables, squares = _squares(samples)
    coeff = np.array([shrink_sq * sin_a * sin_b / math.sqrt(denom)
                      for shrink_sq, sin_a, sin_b, denom in map(_chsh_in_plane, samples)])
    reduced = 4.0 * (np.eye(4, dtype=complex) + coeff[:, None, None] * kron(SIGMA_Z, SIGMA_Z))
    return ([np.abs(squares - square_closed_form(observables)), np.abs(squares - reduced)],
            "squared two-qubit operator vs the sigma_z (x) sigma_z reduced form "
            "for xy-plane settings under collinear x boosts")


def _top_eigenvalues(squares) -> np.ndarray:
    """Largest eigenvalue of each matrix of a stack, from one eigensolve."""
    return hermitian_eigensystem(squares)[0][..., -1]


def _square_peak_residuals(samples, square_peak) -> np.ndarray:
    """|square_peak (chsh_zeta or mermin_lambda3) - top eigenvalue of the
    brute-force square| of each sample of one particle count."""
    peaks = [square_peak(settings) for settings in samples]
    return np.abs(_top_eigenvalues(_squares(samples)[1]) - peaks)


def _check_chsh_zeta_spectral(seed):
    samples = _random_chsh_xy_grid(_rng(seed, 3))
    return (_square_peak_residuals(samples, chsh_zeta),
            "closed-form largest eigenvalue of the squared operator vs the "
            "numeric spectrum")


def _check_chsh_zeta_eigenstates(seed):
    samples = _random_chsh_xy_grid(_rng(seed, 4))
    peaks, indices = [], []
    for settings in samples:
        peaks.append(chsh_zeta(settings))
        _, sin_a, sin_b, _ = _chsh_in_plane(settings)
        indices.append((0, 3) if sin_a * sin_b >= 0.0 else (1, 2))
    squares = _squares(samples)[1][:, None]
    basis = np.eye(4, dtype=complex)[indices]
    images = (squares @ basis[..., None])[..., 0]
    return (np.abs(images - np.array(peaks)[:, None, None] * basis),
            "|00>,|11> (same-sign angle gaps) or |01>,|10> (opposite sign) are "
            "eigenvectors of the squared operator at its peak eigenvalue")


def _check_chsh_collinear_curve(seed):
    operators = bell_operator_grid(chsh_collinear_settings(0.0), BETA_GRID)
    numerics = max_violation(operators)
    values = expectation(phi_plus(), operators)
    closed = np.array([epsilon2(beta) for beta in BETA_GRID])
    return (np.abs([closed - numerics, closed - values]),
            "closed-form peak value vs numeric operator norm and vs the "
            "maximally-entangled-state expectation, over the beta grid")


def _check_phi_correlator(seed):
    closed, observables = _xy_observables(_rng(seed, 6), 2, phi_plus_correlator_closed_form)
    values = expectation(phi_plus(), kron(*observables))
    return (np.abs(np.array(closed) - values),
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
    return (abs(unit_coefficient - matrix),
            "general-direction variant with a plain a_z b_z term gives "
            f"{unit_coefficient:.6f} for z measurements at beta = {beta}, while the "
            f"matrix gives {matrix:.6f}; the (1 - beta^2) a_z b_z coefficient "
            f"matches (residual {abs(shrunk_coefficient - matrix):.2e})")


def _check_ghz_offdiagonal(seed):
    closed, observables = _xy_observables(_rng(seed, 8), 3, ghz_offdiagonal_closed_form)
    return ([(abs(element - operator[7, 0]), abs(np.conj(operator[0, 7]) - operator[7, 0]))
             for element, operator in zip(closed, kron(*observables))],
            "closed-form <111|A(x)B(x)C|000> element vs the matrix element and "
            "its Hermitian pairing")


def _ghz_closed_forms(a, b, c, beta):
    return (ghz_correlator_closed_form(a, b, c, beta),
            ghz_offdiagonal_closed_form(a, b, c, beta).real)


def _check_ghz_correlator(seed):
    closed, observables = _xy_observables(_rng(seed, 9), 3, _ghz_closed_forms)
    correlator, offdiagonal = np.array(closed).T
    values = expectation(ghz_plus(), kron(*observables))
    return (np.abs([correlator - values, correlator - offdiagonal]),
            "closed-form GHZ correlator vs matrix expectation and vs the real "
            "part of the off-diagonal element")


def _check_ghz_diagonal(seed):
    beta = 0.6
    boost = Boost(X_AXIS, beta)
    dirs = [X_AXIS, X_AXIS, X_AXIS]
    operator = kron(*(observable_matrix(d, boost) for d in dirs))
    matrix = float(operator[0, 0].real)
    claimed = (1.0 - beta * beta) ** 1.5  # x settings: every boost factor is 1
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
    rng = _rng(seed, 12)
    observables, squares = _squares([_random_mermin(rng, in_plane=False) for _ in range(150)])
    return (np.abs(squares - square_closed_form(observables)),
            "squared three-qubit operator vs the commutator closed form with "
            "pairs on qubit legs (1,2), (1,3), (2,3)")


def _check_mermin_square_leg_swap(seed):
    rng = _rng(seed, 13)
    observables, squares = _squares([_random_mermin(rng, in_plane=True) for _ in range(50)])
    worst = np.max(np.abs(squares - square_closed_form(observables, SWAPPED_LEGS)))
    derived = np.max(np.abs(squares - square_closed_form(observables)))
    return (worst,
            "placing the (A,C) commutator pair on qubits (2,3) and the (B,C) "
            f"pair on (1,3) misses the brute-force square by up to {worst:.3f}; "
            f"the (1,3)/(2,3) placement matches within {derived:.2e}")


def _check_mermin_lambda_spectral(seed):
    rng = _rng(seed, 14)
    samples = [_random_mermin(rng, in_plane=True) for _ in range(60)]
    return (_square_peak_residuals(samples, mermin_lambda3),
            "coplanar closed-form largest eigenvalue 4(1 + k1k2 + k1k3 + k2k3) "
            "vs the numeric spectrum of the brute-force square")


def _check_mermin_zero_eigenvector(seed):
    boost = Boost(X_AXIS, 0.0)
    quarter = math.pi / 2.0
    dirs = []
    for base in (0.3, 1.1, 2.4):  # arbitrary base angles; gaps are pi/2
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        dirs.append(np.array([math.cos(base - quarter), math.sin(base - quarter), 0.0]))
    settings = Settings(dirs, (boost, boost, boost))
    operator = bell_operator(settings)
    basis = np.zeros(8, dtype=complex)
    basis[1] = 1.0  # |001>
    return (np.abs(operator @ (operator @ basis)),
            "|001> is annihilated by the squared operator when every "
            "primed/unprimed angle gap is pi/2 at beta = 0")


def _check_mermin_collinear_invariance(seed):
    grid = effective_directions_grid(mermin_collinear_settings(0.0), BETA_GRID)
    return ([abs(square_peak_from_directions(n) - 16.0) for n in grid],
            "the squared-operator peak stays 16 for the y/x settings at every "
            "collinear boost speed")


def _check_com_curve(seed):
    operators = bell_operator_grid(mermin_com_settings(0.0), BETA_GRID)
    tops = _top_eigenvalues(operators @ operators)
    return ([abs(math.sqrt(top) - epsilon3_com(beta)) for beta, top in zip(BETA_GRID, tops)],
            "closed-form center-of-mass peak value vs the numeric square root "
            "of the largest squared-operator eigenvalue")


def _check_com_square_consistency(seed):
    return ([abs(epsilon3_com(beta) ** 2 - lambda_com(beta)) for beta in BETA_GRID + (1.0,)],
            "the squared peak value equals the closed-form largest eigenvalue "
            "across the grid including beta = 1")


def _com_directions(*keys):
    """The boost map's center-of-mass effective directions over BETA_GRID,
    (R, D, 3), and each grid speed's closed-form candidates under keys."""
    effective = effective_directions_grid(mermin_com_settings(0.0), BETA_GRID)
    closed = [com_closed_form_directions(beta) for beta in BETA_GRID]
    return effective, np.array([[c[key] for key in keys] for c in closed])


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
    worst_alt_norm = np.max(np.abs([np.linalg.norm(v) - 1.0 for v in closed[:, 2]]))
    return (worst_alt,
            "the x-numerator 3 + sqrt(1-beta^2) for the primed directions is not "
            f"unit norm for beta > 0 (worst norm deviation {worst_alt_norm:.3f}) "
            f"and misses the boost map by up to {worst_alt:.3f}; the derived "
            f"1 + 3 sqrt(1-beta^2) matches within {worst_derived:.2e}")


def _check_com_ghz_expectation(seed):
    operators = bell_operator_grid(mermin_com_settings(0.0).prime_swapped(), BETA_GRID)
    swapped = expectation(ghz_plus(), operators)
    as_given = expectation(ghz_plus(), bell_operator(mermin_com_settings(0.5)))
    return (np.abs(np.abs(swapped) - [epsilon3_com(beta) for beta in BETA_GRID]),
            "|GHZ expectation| of the prime-swapped operator equals the "
            f"closed-form peak across the grid (the unswapped assignment gives "
            f"{as_given:.2e})")


def _check_observable_contracts(seed):
    rng = _rng(seed, 20)
    (directions, axes), speeds = np.empty((2, 2000, 3)), np.empty(2000)
    for i in range(2000):
        boost = Boost(_random_unit(rng), rng.uniform(0.0, 0.999))
        directions[i] = unit3(_random_unit(rng))
        axes[i], speeds[i] = boost.direction, boost.beta
    matrices = direction_matrix(boost_map(directions, axes, speeds))
    traces = np.trace(matrices, axis1=-2, axis2=-1).tolist()
    directions, axes = np.empty((2, 100, 3))
    for i in range(100):
        directions[i] = unit3(_random_unit(rng))
        axes[i] = Boost(_random_unit(rng), 0.0).direction
    zero_beta = boost_map(directions, axes, np.zeros(100)) - directions
    return (np.concatenate([np.abs(matrices - matrices.conj().swapaxes(-1, -2)).ravel(),
                            list(map(abs, traces)),
                            np.abs(matrices @ matrices - np.eye(2)).ravel(),
                            np.abs(zero_beta).ravel()]),
            "boosted observables are Hermitian, traceless and square to the "
            "identity; the beta = 0 map is exact")


def _check_effective_direction_roundtrip(seed):
    rng = _rng(seed, 21)
    (targets, preimages, axes), speeds = np.empty((3, 500, 3)), np.empty(500)
    for i in range(500):
        target = _random_unit(rng)
        boost = Boost(_random_unit(rng), rng.uniform(0.0, 0.99))
        shrink = math.sqrt(1.0 - boost.beta ** 2)
        along = float(boost.direction @ target)
        preimage = along * boost.direction + (target - along * boost.direction) / shrink
        targets[i], preimages[i] = target, unit3(preimage / np.linalg.norm(preimage))
        axes[i], speeds[i] = boost.direction, boost.beta
    return (np.abs(boost_map(preimages, axes, speeds) - targets),
            "every unit direction has a preimage under the boost map (inverse "
            "scales the perpendicular component by 1/sqrt(1-beta^2))")


#: The battery in report order: (row name, gated, check).  A check takes the
#: seed and returns (residuals, detail), its residuals unreduced: an array,
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
        if gated:
            status = PASS if residual <= tolerance else FAIL
            results.append(CheckResult(name, status, residual, tolerance, detail))
        else:
            results.append(CheckResult(name, ERRATUM, residual, None, detail))
    return results
