"""Bell-operator tests: assembly, square identities, closed-form peaks."""

import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relbell.observables as observables
from helpers import (
    BETA_MAX,
    BOUND,
    boost_axes,
    max_abs,
    random_unit,
    random_xy,
    same_bits,
    settings_arrays,
    square_residual,
    unit_vectors,
)
from relbell.bell import (
    Settings,
    bell_operator,
    bell_terms,
    chsh_in_plane_terms,
    chsh_zeta,
    chsh_zeta_from_terms,
    commutator,
    cross_norms,
    effective_directions_grid,
    effective_observables,
    max_violation,
    mermin_lambda3,
    operator_norm,
    square_closed_form,
    square_peak_from_directions,
)
from relbell.errors import DegenerateObservable, DomainError, DomainRestriction
from relbell.linalg import (
    OFF_DIAGONAL_TARGET,
    SIGMA_Z,
    expectation,
    hermitian_eigensystem,
    kron,
)
from relbell.observables import Boost, boost_map, direction_matrix
from relbell.scenarios import (
    chsh_collinear_settings,
    com_boosts,
    mermin_collinear_settings,
)
from relbell.search import optimal_settings
from relbell.states import ghz_plus
from relbell.verify import SWAPPED_LEGS

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

ROOT8 = 2.0 * math.sqrt(2.0)
EPS = sys.float_info.epsilon


def _random_chsh_xy(rng, beta):
    boost = Boost(X, beta)
    return Settings([random_xy(rng) for _ in range(4)], (boost, boost))


def _random_chsh_free(rng):
    return Settings([random_unit(rng) for _ in range(4)],
                    [Boost(random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(2)])


def _random_free(rng, n_particles):
    return Settings([random_unit(rng) for _ in range(2 * n_particles)],
                    [Boost(random_unit(rng), rng.uniform(0.0, 0.99))
                     for _ in range(n_particles)])


def _random_mermin(rng, in_plane):
    draw = random_xy if in_plane else random_unit
    dirs = [draw(rng) for _ in range(6)]
    boosts = [Boost(draw(rng) if in_plane else random_unit(rng),
                    rng.uniform(0.0, 0.99)) for _ in range(3)]
    return Settings(dirs, boosts)


def test_chsh_operator_rest_frame_peak():
    operator = bell_operator(chsh_collinear_settings(0.0))
    assert abs(max_violation(operator) - ROOT8) < 1e-12


def test_chsh_operator_collapsed_settings():
    boost = Boost(X, 0.0)
    settings = Settings((Z, Z, Z, Z), (boost, boost))
    operator = bell_operator(settings)
    assert max_abs(operator - 2.0 * kron(SIGMA_Z, SIGMA_Z)) < 1e-15
    w, _ = hermitian_eigensystem(operator)
    assert np.allclose(w, [-2.0, -2.0, 2.0, 2.0], atol=1e-12)


def test_chsh_operator_boosted_peak():
    # Closed-form oracle: 2 (1 + sqrt(1 - beta^2)) / sqrt(2 - beta^2).
    operator = bell_operator(chsh_collinear_settings(0.6))
    expected = 2.0 * (1.0 + 0.8) / math.sqrt(1.64)
    assert abs(max_violation(operator) - expected) < 1e-12


@pytest.mark.parametrize("n_particles", [2, 3])
def test_terms_reassemble_operator(n_particles):
    rng = np.random.default_rng(11)
    settings = _random_free(rng, n_particles)
    dim = 2 ** n_particles
    total = np.zeros((dim, dim), dtype=complex)
    for _, sign, observables in bell_terms(settings):
        total += sign * kron(*observables)
    assert max_abs(total - bell_operator(settings)) < 1e-14


def test_term_labels():
    rng = np.random.default_rng(12)
    labels = [label for label, _, _ in bell_terms(_random_free(rng, 2))]
    assert labels == ["ab", "ab'", "a'b", "a'b'"]
    settings = _random_free(rng, 3)
    a, ap, b, bp, c, cp = [
        direction_matrix(boost_map(d, settings.boosts[i // 2].direction,
                                   settings.boosts[i // 2].beta))
        for i, d in enumerate(settings.directions)]
    expected = [("ab'c'", 1, (a, bp, cp)), ("a'bc'", 1, (ap, b, cp)),
                ("a'b'c", 1, (ap, bp, c)), ("abc", -1, (a, b, c))]
    for (label, sign, observables), want in zip(bell_terms(settings), expected):
        assert (label, sign) == want[:2]
        assert all(np.array_equal(o, w) for o, w in zip(observables, want[2]))


@pytest.mark.parametrize("n_particles", [2, 3])
def test_prime_swapped_is_an_involution(n_particles):
    settings = _random_free(np.random.default_rng(30), n_particles)
    swapped = settings.prime_swapped()
    twice = swapped.prime_swapped()
    for i, direction in enumerate(settings.directions):
        assert np.array_equal(swapped.directions[i ^ 1], direction)
        assert np.array_equal(twice.directions[i], direction)
    assert all(x is y for x, y in zip(twice.boosts, settings.boosts))
    assert twice.n_particles == n_particles


@pytest.mark.parametrize("n_directions, n_boosts",
                         [(4, 3), (6, 2), (5, 2), (2, 1), (8, 4), (0, 0)])
def test_settings_rejects_particle_counts(n_directions, n_boosts):
    boost = Boost(X, 0.3)
    with pytest.raises(DomainError):
        Settings((X,) * n_directions, (boost,) * n_boosts)


def test_chsh_square_identity_random_xy():
    rng = np.random.default_rng(12)
    for _ in range(200):
        settings = _random_chsh_xy(rng, rng.uniform(0.0, 0.99))
        assert square_residual(settings) < 1e-12


def test_chsh_square_identity_free_settings():
    rng = np.random.default_rng(13)
    for _ in range(200):
        assert square_residual(_random_chsh_free(rng)) < 1e-12


def test_chsh_square_rest_frame_cross_product_form():
    # Independent oracle at beta = 0: 4 [I + |a x a'| |b x b'| s_c (x) s_d]
    # with s_c, s_d the observables along the normalized cross products.
    rng = np.random.default_rng(14)
    boost = Boost(X, 0.0)
    for _ in range(50):
        settings = Settings([random_xy(rng) for _ in range(4)], (boost, boost))
        operator = bell_operator(settings)
        a, a_prime, b, b_prime = settings.directions
        cross_a = np.cross(a, a_prime)
        cross_b = np.cross(b, b_prime)
        sin_a, sin_b = np.linalg.norm(cross_a), np.linalg.norm(cross_b)
        rhs = 4.0 * np.eye(4, dtype=complex)
        if sin_a > 1e-12 and sin_b > 1e-12:
            s_c = direction_matrix(boost_map(cross_a / sin_a, X, 0.0))
            s_d = direction_matrix(boost_map(cross_b / sin_b, X, 0.0))
            rhs += 4.0 * sin_a * sin_b * kron(s_c, s_d)
        assert max_abs(operator @ operator - rhs) < 1e-12


def test_chsh_square_commuting_settings_is_4i():
    boost = Boost(X, 0.4)
    a = random_xy(np.random.default_rng(15))
    settings = Settings((a, a, random_xy(np.random.default_rng(16)),
                         random_xy(np.random.default_rng(17))), (boost, boost))
    operator = bell_operator(settings)
    assert max_abs(operator @ operator - 4.0 * np.eye(4)) < 1e-12
    assert square_residual(settings) < 1e-12


def test_chsh_zeta_values():
    assert abs(chsh_zeta(chsh_collinear_settings(0.0)) - 8.0) < 1e-12
    expected = 4.0 * (1.0 + 1.6 / 1.64)  # (1 - 0.36) / ((2 - 0.36)/2)^2 path
    assert abs(chsh_zeta(chsh_collinear_settings(0.6)) - expected) < 1e-12
    boost = Boost(X, 0.3)
    a = random_xy(np.random.default_rng(18))
    collapsed = Settings((a, a, Y, X), (boost, boost))
    assert abs(chsh_zeta(collapsed) - 4.0) < 1e-12


def test_chsh_zeta_domain():
    boost = Boost(X, 0.3)
    out_of_plane = Settings((Z, Y, Y, X), (boost, boost))
    with pytest.raises(DomainRestriction):
        chsh_zeta(out_of_plane)
    tilted = Settings((Y, X, Y, X), (Boost(Y, 0.3), boost))
    with pytest.raises(DomainRestriction):
        chsh_zeta(tilted)
    unequal = Settings((Y, X, Y, X), (Boost(X, 0.3), Boost(X, 0.4)))
    with pytest.raises(DomainRestriction):
        chsh_zeta(unequal)
    with pytest.raises(DomainError, match="requires two particles, got 3"):
        chsh_zeta(mermin_collinear_settings(0.3))


def test_chsh_zeta_matches_spectrum():
    rng = np.random.default_rng(19)
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99):
        for _ in range(40):
            settings = _random_chsh_xy(rng, beta)
            operator = bell_operator(settings)
            top = hermitian_eigensystem(operator @ operator)[0][-1]
            zeta = chsh_zeta(settings)
            assert 4.0 - 1e-12 <= zeta <= 8.0 + 1e-12
            assert abs(top - zeta) < 1e-10


def test_chsh_zeta_degenerate_eigenstates():
    rng = np.random.default_rng(20)
    for _ in range(100):
        settings = _random_chsh_xy(rng, rng.uniform(0.0, 0.95))
        operator = bell_operator(settings)
        square = operator @ operator
        zeta = chsh_zeta(settings)
        a, a_prime, b, b_prime = settings.directions
        sin_a = math.sin(math.atan2(a[1], a[0]) - math.atan2(a_prime[1], a_prime[0]))
        sin_b = math.sin(math.atan2(b[1], b[0]) - math.atan2(b_prime[1], b_prime[0]))
        indices = (0, 3) if sin_a * sin_b >= 0.0 else (1, 2)
        for index in indices:
            basis = np.zeros(4, dtype=complex)
            basis[index] = 1.0
            assert max_abs(square @ basis - zeta * basis) < 1e-10


def test_mermin_operator_ghz_expectations():
    # Direct 8x8 computation: x-unprimed/y-primed gives the full magnitude,
    # the y-unprimed/x-primed assignment gives zero.
    swapped = mermin_collinear_settings(0.0).prime_swapped()
    state = ghz_plus()
    operator = bell_operator(swapped)
    oracle = complex(np.conj(state) @ (operator @ state)).real
    assert abs(oracle + 4.0) < 1e-12
    as_given = bell_operator(mermin_collinear_settings(0.0))
    assert abs(complex(np.conj(state) @ (as_given @ state)).real) < 1e-12


def test_mermin_operator_collapsed_settings():
    rng = np.random.default_rng(21)
    n = random_unit(rng)
    boost = Boost(X, 0.0)
    settings = Settings((n, n, n, n, n, n), (boost, boost, boost))
    operator = bell_operator(settings)
    single = direction_matrix(boost_map(n, boost.direction, boost.beta))
    assert max_abs(operator - 2.0 * kron(single, single, single)) < 1e-13
    w, _ = hermitian_eigensystem(operator)
    assert abs(w[0] + 2.0) < 1e-12 and abs(w[-1] - 2.0) < 1e-12


def test_mermin_square_closed_form_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        settings = _random_mermin(rng, in_plane=False)
        operator = bell_operator(settings)
        residual = max_abs(operator @ operator
                           - square_closed_form(effective_observables(settings)))
        assert residual < 1e-12


def test_mermin_square_commuting_settings_is_4i():
    rng = np.random.default_rng(24)
    a, b, c = random_unit(rng), random_unit(rng), random_unit(rng)
    boost = Boost(X, 0.5)
    settings = Settings((a, a, b, b, c, c), (boost, boost, boost))
    closed = square_closed_form(effective_observables(settings))
    assert np.array_equal(closed, 4.0 * np.eye(8, dtype=complex))


def test_mermin_square_peak_is_16():
    for beta in (0.0, 0.5, 0.9):
        settings = mermin_collinear_settings(beta)
        w, _ = hermitian_eigensystem(square_closed_form(effective_observables(settings)))
        assert abs(w[-1] - 16.0) < 1e-12


def test_mermin_square_leg_placement():
    # Different per-particle commutators expose the wrong placement.
    boost = Boost(X, 0.0)
    angles = [(0.0, -math.pi / 2), (0.3, 0.3 - math.pi / 6), (1.0, 1.0 - math.pi / 3)]
    dirs = []
    for base, primed in angles:
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        dirs.append(np.array([math.cos(primed), math.sin(primed), 0.0]))
    settings = Settings(dirs, (boost, boost, boost))
    operator = bell_operator(settings)
    square = operator @ operator
    observables_ = effective_observables(settings)
    assert max_abs(square - square_closed_form(observables_)) < 1e-12
    assert max_abs(square - square_closed_form(observables_, SWAPPED_LEGS)) > 0.1


def test_mermin_lambda3_values():
    for beta in (0.0, 0.3, 0.7, 0.99):
        assert abs(mermin_lambda3(mermin_collinear_settings(beta)) - 16.0) < 1e-12
    rng = np.random.default_rng(25)
    a, b, c = random_xy(rng), random_xy(rng), random_xy(rng)
    boost = Boost(X, 0.4)
    collapsed = Settings((a, a, b, b, c, c), (boost, boost, boost))
    assert abs(mermin_lambda3(collapsed) - 4.0) < 1e-12


def test_mermin_lambda3_center_of_mass_value():
    # Frozen oracle: 4 (1 + 8 g / sqrt(d) + 16 g^2 / d) at beta = 0.6,
    # g = 0.8, d = 3.64 * 2.92 = 10.6288.
    from relbell.scenarios import mermin_com_settings
    d = 3.64 * 2.92
    expected = 4.0 * (1.0 + 8.0 * 0.8 / math.sqrt(d) + 16.0 * 0.64 / d)
    settings = mermin_com_settings(0.6)
    assert abs(mermin_lambda3(settings) - expected) < 1e-12
    operator = bell_operator(settings)
    top = hermitian_eigensystem(operator @ operator)[0][-1]
    assert abs(top - expected) < 1e-10


def test_mermin_lambda3_matches_spectrum_random():
    rng = np.random.default_rng(26)
    for _ in range(60):
        settings = _random_mermin(rng, in_plane=True)
        operator = bell_operator(settings)
        top = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(top - mermin_lambda3(settings)) < 1e-10


def test_mermin_lambda3_domain():
    boost = Boost(X, 0.2)
    settings = Settings((Z, Y, Y, X, Y, X), (boost, boost, boost))
    with pytest.raises(DomainRestriction):
        mermin_lambda3(settings)
    tilted = Settings((Y, X, Y, X, Y, X), (Boost(Z, 0.2), boost, boost))
    with pytest.raises(DomainRestriction):
        mermin_lambda3(tilted)


def test_mermin_square_zero_eigenvector():
    boost = Boost(X, 0.0)
    dirs = []
    for base in (0.2, 0.9, 2.0):
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        shifted = base - math.pi / 2.0
        dirs.append(np.array([math.cos(shifted), math.sin(shifted), 0.0]))
    settings = Settings(dirs, (boost, boost, boost))
    operator = bell_operator(settings)
    basis = np.zeros(8, dtype=complex)
    basis[1] = 1.0  # |001>
    assert max_abs(operator @ (operator @ basis)) < 1e-10


def _operator_grid(settings_, betas):
    """The Bell operators of settings_ with every particle boosted at each
    speed of betas, as sweep builds them: one effective_directions_grid
    call, then Family.operators."""
    return settings_.family.operators(effective_directions_grid(settings_, betas))


def test_max_violation_examples():
    assert abs(max_violation(bell_operator(chsh_collinear_settings(0.0))) - ROOT8) < 1e-12
    assert abs(max_violation(bell_operator(mermin_collinear_settings(0.0))) - 4.0) < 1e-12
    assert abs(max_violation(kron(SIGMA_Z, SIGMA_Z)) - 1.0) < 1e-15
    # A stack gives one value per matrix, each the float of its lone solve.
    operators = _operator_grid(chsh_collinear_settings(0.0), [0.0, 0.4, 0.8])
    peaks = max_violation(operators)
    assert peaks.shape == (3,)
    assert peaks.tolist() == [max_violation(operator) for operator in operators]
    assert max_violation(operators[:0]).shape == (0,)


def test_spectral_windows_and_square_consistency():
    rng = np.random.default_rng(27)
    for _ in range(40):
        settings = _random_chsh_free(rng)
        operator = bell_operator(settings)
        w, _ = hermitian_eigensystem(operator)
        assert w[0] >= -ROOT8 - 1e-10 and w[-1] <= ROOT8 + 1e-10
        top_sq = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(math.sqrt(top_sq) - max_violation(operator)) < 1e-10
    for _ in range(20):
        settings = _random_mermin(rng, in_plane=False)
        operator = bell_operator(settings)
        w, _ = hermitian_eigensystem(operator)
        assert w[0] >= -4.0 - 1e-10 and w[-1] <= 4.0 + 1e-10
        top_sq = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(math.sqrt(top_sq) - max_violation(operator)) < 1e-10


def test_commutator_antisymmetry():
    rng = np.random.default_rng(28)
    m1 = direction_matrix(boost_map(random_unit(rng), X, 0.3))
    m2 = direction_matrix(boost_map(random_unit(rng), X, 0.3))
    assert max_abs(commutator(m1, m2) + commutator(m2, m1)) == 0.0


# Property tests of the matrix-free operator norms over the whole domain:
# free directions, free boost directions and per-particle speeds.
_NORM_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                          database=None)
_boosts = st.builds(Boost, unit_vectors, st.floats(0.0, 0.99))


def _free_settings(n_particles):
    """Settings over free directions and free boosts with beta in [0, 0.99]."""
    return st.builds(Settings,
                     st.lists(unit_vectors, min_size=2 * n_particles,
                              max_size=2 * n_particles),
                     st.lists(_boosts, min_size=n_particles, max_size=n_particles))


# The fixed-seed loops above check the same identities on 200 draws each;
# these search the whole domain, including its edges (beta = 0, poles).
_SQUARE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                            database=None)


@pytest.mark.parametrize("n_particles", [2, 3])
@_SQUARE_SETTINGS
@given(data=st.data())
def test_square_closed_form_property(n_particles, data):
    settings_ = data.draw(_free_settings(n_particles))
    operator = bell_operator(settings_)
    closed = square_closed_form(effective_observables(settings_))
    assert max_abs(operator @ operator - closed) < 1e-12


def _spectral_norms(operator):
    lapack = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
    return max_violation(operator), lapack


@pytest.mark.parametrize("n_particles", [2, 3])
@_NORM_SETTINGS
@given(data=st.data())
def test_operator_norm_matches_spectrum(n_particles, data):
    directions = data.draw(st.lists(unit_vectors, min_size=2 * n_particles,
                                    max_size=2 * n_particles))
    boosts = data.draw(st.lists(_boosts, min_size=n_particles, max_size=n_particles))
    settings_ = Settings(directions, boosts)
    closed = operator_norm(settings_)
    jacobi, lapack = _spectral_norms(bell_operator(settings_))
    assert abs(closed - jacobi) < 1e-12
    assert abs(closed - lapack) < 1e-12
    assert 2.0 - 1e-12 <= closed <= BOUND[n_particles] + 1e-12


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_effective_observables_match_observable_matrix(n_particles, data):
    # Bit identity, not closeness: the operators, and with them every golden
    # output, are built from effective_directions() through one
    # direction_matrix call.  Every observable index appears in some term.
    directions = data.draw(st.lists(unit_vectors, min_size=2 * n_particles,
                                    max_size=2 * n_particles))
    boosts = data.draw(st.lists(st.builds(Boost, unit_vectors, st.floats(0.0, 0.999)),
                                min_size=n_particles, max_size=n_particles))
    settings_ = Settings(directions, boosts)
    for row, direction, boost in zip(settings_.effective_directions(), directions,
                                     [boost for boost in boosts for _ in range(2)]):
        assert np.array_equal(row.view(np.uint64),
                              boost_map(direction, boost.direction, boost.beta).view(np.uint64))
    for (_, _, observables), (_, _, picks) in zip(bell_terms(settings_),
                                                   settings_.family.terms):
        for observable, index in zip(observables, picks):
            boost = boosts[index // 2]
            want = direction_matrix(boost_map(directions[index], boost.direction, boost.beta))
            assert np.array_equal(observable.view(np.uint64), want.view(np.uint64))


#: Speeds up to the largest double below 1, where the effective directions
#: of directions nearly perpendicular to the boost are the hardest to keep
#: unit vectors.
_fast_speeds = st.one_of(st.floats(0.0, 0.99), st.floats(0.99, BETA_MAX),
                         st.sampled_from([0.99999999, 0.9999999999, BETA_MAX]))


def _peak_settings(n_particles, beta):
    """optimal_settings under x boosts for two particles and the
    center-of-mass boosts for three."""
    boost_directions = (X, X) if n_particles == 2 else com_boosts()
    return optimal_settings(n_particles, boost_directions, beta, "free_sphere")


def _assert_within_supremum(settings_):
    # |<B>| <= 2 sqrt(1 + sum k_i k_j) <= 2 sqrt(2) or 4 holds only while
    # every effective direction is a unit vector.  4 ulps: the worst of
    # 3,000 random draws over these ranges was 1 ulp.
    operator = bell_operator(settings_)
    limit = BOUND[settings_.n_particles] + 4 * math.ulp(BOUND[settings_.n_particles])
    assert operator_norm(settings_) <= limit
    assert max_violation(operator) <= limit
    assert abs(expectation(settings_.family.state(), operator)) <= limit


@pytest.mark.parametrize("n_particles", [2, 3])
@_NORM_SETTINGS
@given(data=st.data())
def test_no_bell_value_exceeds_the_supremum(n_particles, data):
    # Free settings and the peak constructions, at speeds up to the largest
    # double below 1.
    if data.draw(st.booleans()):
        settings_ = _peak_settings(n_particles, data.draw(_fast_speeds))
    else:
        settings_ = data.draw(st.builds(
            Settings,
            st.lists(unit_vectors, min_size=2 * n_particles, max_size=2 * n_particles),
            st.lists(st.builds(Boost, unit_vectors, _fast_speeds),
                     min_size=n_particles, max_size=n_particles)))
    _assert_within_supremum(settings_)


@pytest.mark.parametrize("n_particles", [2, 3])
@pytest.mark.parametrize("beta", [0.99999999, 0.9999999999, BETA_MAX])
def test_peak_constructions_reach_but_do_not_pass_the_supremum(n_particles, beta):
    # A denominator formed as 1 + beta^2 (along^2 - 1) gives the two-qubit
    # construction an operator_norm of 2.8284271263049794 at 0.99999999.
    settings_ = _peak_settings(n_particles, beta)
    _assert_within_supremum(settings_)
    assert operator_norm(settings_) >= BOUND[n_particles] - 1e-12


def _jacobi_budget(operator) -> float:
    """How far a Jacobi eigenvalue may sit from the spectrum: the solver stops
    once the off-diagonal Frobenius norm is at most OFF_DIAGONAL_TARGET *
    max(1, ||B||_F), and by Weyl's inequality the diagonal then lies within
    that norm of the eigenvalues."""
    return OFF_DIAGONAL_TARGET * max(1.0, float(np.linalg.norm(operator)))


@pytest.mark.parametrize("n_particles", [2, 3])
@_NORM_SETTINGS
@given(data=st.data())
def test_constructions_under_free_boost_axes_stay_within_the_supremum(n_particles, data):
    # optimal_settings under boost axes in the xy-plane, along +/-z and
    # anywhere, at speeds up to the largest double below 1.  The closed form,
    # the state expectation and LAPACK keep the 4-ulp limit; the Jacobi top
    # eigenvalue may also carry its stop rule's slack (up to 14 ulps seen
    # on 600 random draws).
    axes = data.draw(st.lists(boost_axes, min_size=n_particles, max_size=n_particles))
    settings_ = optimal_settings(n_particles, axes, data.draw(_fast_speeds), "free_sphere")
    operator = bell_operator(settings_)
    limit = BOUND[n_particles] + 4 * math.ulp(BOUND[n_particles])
    assert operator_norm(settings_) <= limit
    assert abs(expectation(settings_.family.state(), operator)) <= limit
    assert np.max(np.abs(np.linalg.eigvalsh(operator))) <= limit
    assert max_violation(operator) <= limit + _jacobi_budget(operator)


def _scalar_square_peak(n) -> float:
    """4 (1 + sum_{i<j} k_i k_j) on Python floats, one particle at a time."""
    kappas = []
    for (n0, n1, n2), (m0, m1, m2) in zip(n[0::2].tolist(), n[1::2].tolist()):
        x = n1 * m2 - n2 * m1
        y = n2 * m0 - n0 * m2
        z = n0 * m1 - n1 * m0
        kappas.append(math.sqrt(x * x + y * y + z * z))
    total = 1.0
    for k_i, k_j in itertools.combinations(kappas, 2):
        total += k_i * k_j
    return 4.0 * total


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_square_peak_of_a_stack_is_each_rows_scalar_value(n_particles, data):
    # One stacked call over (2, 3, D, 3) directions gives every row the bits
    # of the scalar formula.  operator_norm is its square root, which is
    # 2 sqrt(1 + sum k_i k_j) bit for bit: scaling by 4 is exact.
    samples = [_draw_free(data, n_particles, max_beta=BETA_MAX) for _ in range(6)]
    stack = np.reshape([s.effective_directions() for s in samples], (2, 3, 2 * n_particles, 3))
    peaks = square_peak_from_directions(stack)
    assert peaks.shape == (2, 3)
    for settings_, n, peak in zip(samples, stack.reshape(6, -1, 3), peaks.ravel().tolist()):
        assert peak == _scalar_square_peak(n)
        assert operator_norm(settings_) == math.sqrt(peak) == 2.0 * math.sqrt(peak / 4.0)


def test_operator_norms_extend_restricted_closed_forms():
    rng = np.random.default_rng(29)
    for beta in (0.0, 0.3, 0.9):
        settings_ = _random_chsh_xy(rng, beta)
        assert abs(operator_norm(settings_)
                   - math.sqrt(chsh_zeta(settings_))) < 1e-12
    for _ in range(10):
        settings_ = _random_mermin(rng, in_plane=True)
        assert abs(operator_norm(settings_)
                   - math.sqrt(mermin_lambda3(settings_))) < 1e-12
    assert abs(operator_norm(chsh_collinear_settings(0.0)) - ROOT8) < 1e-15
    assert abs(operator_norm(mermin_collinear_settings(0.7)) - 4.0) < 1e-12
    boost = Boost(X, 0.5)
    collapsed = Settings((Y, Y, Z, Z), (boost, boost))
    assert operator_norm(collapsed) == 2.0


def _draw_free(data, n_particles, max_beta=0.99):
    """Free directions and free boosts with beta in [0, max_beta]."""
    directions = data.draw(st.lists(unit_vectors, min_size=2 * n_particles,
                                    max_size=2 * n_particles))
    boosts = data.draw(st.lists(st.builds(Boost, unit_vectors, st.floats(0.0, max_beta)),
                                min_size=n_particles, max_size=n_particles))
    return Settings(directions, boosts)


def _at_speed(settings_, beta):
    return Settings(settings_.directions,
                    [Boost(boost.direction, beta) for boost in settings_.boosts])


#: The fastest grid speed the bit-identity test reaches.
_TOP_SPEED = 1.0 - 2.0 ** -40


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_operator_grid_rows_are_bit_identical(n_particles, data):
    # Bit identity, not closeness, compared as uint64 so signed zeros count:
    # sweep rows, and with them the golden sweeps, come from the grid.
    settings_ = _draw_free(data, n_particles)
    if data.draw(st.booleans()):
        settings_ = settings_.prime_swapped()
    speeds = data.draw(st.lists(st.floats(0.0, _TOP_SPEED), min_size=1, max_size=12))
    betas = speeds + [0.0, speeds[0], _TOP_SPEED]
    grid = _operator_grid(settings_, betas)
    assert grid.shape == (len(betas),) + (2 ** n_particles,) * 2
    for beta, row in zip(betas, grid):
        want = bell_operator(_at_speed(settings_, beta))
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_settings_sequence_rows_are_bit_identical(n_particles, data):
    # verify evaluates its samples as one stack: one boost_map over their
    # (S, D, 3) directions with each sample's own axes and speeds, then the
    # family's operators and the square closed form.  Each row must be what
    # one Settings alone gives.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    samples = [_random_chsh_xy(rng, rng.uniform(0.0, 0.99))
               if n_particles == 2 and data.draw(st.booleans())
               else _draw_free(data, n_particles)
               for _ in range(data.draw(st.integers(1, 5)))]
    n = observables.boost_map(*settings_arrays(samples))
    stacked = direction_matrix(np.moveaxis(n, -2, 0))
    family = samples[0].family
    squares = {legs: square_closed_form(stacked, legs)
               for legs in [None] + [SWAPPED_LEGS] * (n_particles == 3)}
    for i, sample in enumerate(samples):
        assert same_bits(family.operators(n)[i], bell_operator(sample))
        assert same_bits(family.signed_sum(stacked)[i], bell_operator(sample))
        for legs, square in squares.items():
            assert same_bits(square[i], square_closed_form(effective_observables(sample), legs))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(angles=st.lists(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
                       min_size=1, max_size=6),
       data=st.data())
def test_chsh_zeta_stack_rows_are_lone_calls(angles, data):
    # chsh_in_plane_terms and chsh_zeta_from_terms over an (S, 4, 3) stack
    # with one x-boost speed per row: each row has the bits of chsh_zeta of
    # that row's Settings, and of chsh_in_plane_terms on that row alone.
    directions = np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)
    speeds = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=len(angles),
                                         max_size=len(angles))))
    terms = chsh_in_plane_terms(directions, speeds)
    zetas = chsh_zeta_from_terms(*terms)
    for i, beta in enumerate(speeds):
        boost = Boost(X, beta)
        lone = Settings(directions[i], (boost, boost))
        assert type(chsh_zeta(lone)) is float
        assert same_bits(zetas[i], chsh_zeta(lone))
        for term, want in zip(terms, chsh_in_plane_terms(lone.directions, beta)):
            assert same_bits(term[i], want)


def _angle_sine(d, d_prime):
    """math.sin(phi_d - phi_d') from the math.atan2 angles of two xy-plane
    directions, and its slack: 2 eps, plus half an ulp of each angle and of
    their difference, which the angle formula rounds away before its sine."""
    phi, phi_prime = math.atan2(d[1], d[0]), math.atan2(d_prime[1], d_prime[0])
    rounding = (math.ulp(phi) + math.ulp(phi_prime) + math.ulp(phi - phi_prime)) / 2.0
    return math.sin(phi - phi_prime), 2.0 * EPS + rounding


#: Angle gaps within a pair: parallel, perpendicular, antiparallel, nearly
#: parallel, and any.
_gaps = st.one_of(st.sampled_from([0.0, math.pi / 2.0, -math.pi / 2.0, math.pi, -math.pi]),
                  st.floats(-1e-6, 1e-6), st.floats(-2.0 * math.pi, 2.0 * math.pi))
_angle_pairs = st.tuples(st.floats(-2.0 * math.pi, 2.0 * math.pi), _gaps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(_angle_pairs, min_size=2, max_size=2), beta=st.floats(0.0, 0.999))
def test_cross_product_sines_match_the_angle_formula(pairs, beta):
    # chsh_in_plane_terms takes each sine as d_y d'_x - d_x d'_y; the angle
    # formula sin(atan2 - atan2) is the reference, within its own rounding.
    # chsh_zeta then matches the angle formula's zeta within 4 ulps, beyond
    # those sines' slack carried through the formula.
    directions = np.array([[math.cos(angle), math.sin(angle), 0.0]
                           for base, gap in pairs for angle in (base, base - gap)])
    shrink_sq, sin_a, sin_b, denom = chsh_in_plane_terms(directions, beta)
    (want_a, slack_a), (want_b, slack_b) = (_angle_sine(*directions[i:i + 2]) for i in (0, 2))
    assert abs(sin_a - want_a) <= slack_a
    assert abs(sin_b - want_b) <= slack_b
    boost = Boost(X, beta)
    ratio = shrink_sq / math.sqrt(denom)
    want = 4.0 * (1.0 + ratio * abs(want_a * want_b))
    slack = 4.0 * ratio * (abs(want_b) * slack_a + abs(want_a) * slack_b + slack_a * slack_b)
    assert abs(chsh_zeta(Settings(directions, (boost, boost))) - want) <= 4 * math.ulp(want) + slack


def _signed_kron_sum(terms):
    """The signed sum of the Kronecker products of bell_terms' observables,
    taken term by term in table order."""
    total = None
    for _, sign, observables in terms:
        product = kron(*observables) if sign > 0 else -kron(*observables)
        total = product if total is None else total + product
    return total


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sign_table_defines_the_operator(n_particles, data):
    # The sign table is the one definition of each operator: every row of
    # Family.operators, lone or stacked, is the signed Kronecker sum of its
    # terms in table order, compared as uint64 so signed zeros count.
    samples = [_draw_free(data, n_particles) for _ in range(data.draw(st.integers(1, 4)))]
    family = samples[0].family
    stacked = family.operators(observables.boost_map(*settings_arrays(samples)))
    for row, sample in zip(stacked, samples):
        want = _signed_kron_sum(bell_terms(sample)).view(np.uint64)
        assert np.array_equal(row.view(np.uint64), want)
        alone = family.operators(sample.effective_directions())
        assert np.array_equal(alone.view(np.uint64), want)


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_operator_grid_raises_like_row_by_row(n_particles, data):
    # With a raised floor some (speed, direction) pairs degenerate.  The grid
    # must refuse with the error a row-by-row build meets first: the first
    # offending speed in grid order, then the first direction in Settings
    # order (the message carries that pair's denominator).
    settings_ = _draw_free(data, n_particles)
    betas = data.draw(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=12))
    floor = data.draw(st.floats(0.05, 0.95))
    with mock.patch.object(observables, "DENOMINATOR_FLOOR", floor):
        expected = None
        for beta in betas:
            try:
                bell_operator(_at_speed(settings_, beta))
            except DegenerateObservable as exc:
                expected = str(exc)
                break
        if expected is None:
            _operator_grid(settings_, betas)
        else:
            with pytest.raises(DegenerateObservable) as raised:
                _operator_grid(settings_, betas)
            assert str(raised.value) == expected


@pytest.mark.parametrize("beta", [1.0, -0.1, math.nan])
def test_operator_grid_refuses_speeds_boost_refuses(beta):
    with pytest.raises(DomainError) as boost:
        Boost(X, beta)
    with pytest.raises(DomainError) as grid:
        _operator_grid(chsh_collinear_settings(0.0), [0.5, beta])
    assert str(grid.value) == str(boost.value)
    # However long the grid, the error names its first bad speed alone.
    betas = np.linspace(0.0, 0.99, 2001)
    betas[[700, 1500]] = beta, 2.0
    with pytest.raises(DomainError) as long_grid:
        _operator_grid(chsh_collinear_settings(0.0), betas)
    assert str(long_grid.value) == str(boost.value)


def test_operator_grid_raises_at_first_row_then_first_direction():
    # Under a floor of 0.5, a' (perpendicular to its boost) degenerates from
    # beta = 0.866 on, a (along = 0.3) only from 0.908 on.  The first
    # offending row, 0.88, names a'; checking a over the whole grid first
    # would name a at 0.95 instead.
    a = np.array([0.3, math.sqrt(0.91), 0.0])
    settings_ = Settings((a, Y, X, X), (Boost(X, 0.0), Boost(X, 0.0)))
    with mock.patch.object(observables, "DENOMINATOR_FLOOR", 0.5):
        with pytest.raises(DegenerateObservable) as row_by_row:
            for beta in (0.5, 0.88, 0.95):
                bell_operator(_at_speed(settings_, beta))
        with pytest.raises(DegenerateObservable) as grid:
            _operator_grid(settings_, [0.5, 0.88, 0.95])
    assert str(grid.value) == str(row_by_row.value)
    assert str(grid.value).startswith(f"normalization denominator {math.sqrt(1 - 0.88**2):g}")


def _single_qubit_marginals(vector, n_particles):
    """The reduced density matrix of each qubit of a pure state."""
    amplitudes = vector.reshape((2,) * n_particles)
    marginals = []
    for qubit in range(n_particles):
        rows = np.moveaxis(amplitudes, qubit, 0).reshape(2, -1)
        marginals.append(rows @ rows.conj().T)
    return marginals


@pytest.mark.parametrize("n_particles", [2, 3])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_top_eigenvector_is_maximally_entangled(n_particles, data):
    # The paper's claims: when both observables of every particle fail to
    # commute (every k_i >= 0.1, which also makes the top eigenvalue
    # simple), the state attaining the largest eigenvalue is maximally
    # entangled; for three particles it is GHZ-class.  Either way every
    # single-qubit marginal is I/2.
    settings_ = _draw_free(data, n_particles)
    n = settings_.effective_directions()
    assume(cross_norms(n).min() >= 0.1)
    _, vectors = hermitian_eigensystem(bell_operator(settings_))
    for marginal in _single_qubit_marginals(vectors[:, -1], n_particles):
        assert max_abs(marginal - np.eye(2) / 2.0) <= 1e-12
