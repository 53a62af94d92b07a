"""Bell-operator tests: assembly, square identities, closed-form peaks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs, random_unit, random_xy
from relbell.bell import (
    ChshSettings,
    MerminSettings,
    chsh_operator,
    chsh_operator_norm,
    chsh_square_identity_residual,
    chsh_terms,
    chsh_zeta,
    commutator,
    max_violation,
    mermin_lambda3,
    mermin_operator,
    mermin_operator_norm,
    mermin_square_closed_form,
    mermin_square_swapped_legs,
    mermin_terms,
)
from relbell.errors import DomainRestriction
from relbell.linalg import SIGMA_Z, hermitian_eigensystem, kron, kron3
from relbell.observables import Boost, observable_matrix
from relbell.scenarios import chsh_collinear_settings, mermin_collinear_settings
from relbell.states import ghz_plus

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

ROOT8 = 2.0 * math.sqrt(2.0)


def _random_chsh_xy(rng, beta):
    boost = Boost(X, beta)
    return ChshSettings(random_xy(rng), random_xy(rng), random_xy(rng),
                        random_xy(rng), boost, boost)


def _random_chsh_free(rng):
    return ChshSettings(random_unit(rng), random_unit(rng), random_unit(rng),
                        random_unit(rng),
                        Boost(random_unit(rng), rng.uniform(0.0, 0.99)),
                        Boost(random_unit(rng), rng.uniform(0.0, 0.99)))


def _random_mermin(rng, in_plane):
    draw = random_xy if in_plane else random_unit
    dirs = [draw(rng) for _ in range(6)]
    boosts = [Boost(draw(rng) if in_plane else random_unit(rng),
                    rng.uniform(0.0, 0.99)) for _ in range(3)]
    return MerminSettings(*dirs, *boosts)


def test_chsh_operator_rest_frame_peak():
    operator = chsh_operator(chsh_collinear_settings(0.0))
    assert abs(max_violation(operator) - ROOT8) < 1e-12


def test_chsh_operator_collapsed_settings():
    boost = Boost(X, 0.0)
    settings = ChshSettings(Z, Z, Z, Z, boost, boost)
    operator = chsh_operator(settings)
    assert max_abs(operator - 2.0 * kron(SIGMA_Z, SIGMA_Z)) < 1e-15
    w, _ = hermitian_eigensystem(operator)
    assert np.allclose(w, [-2.0, -2.0, 2.0, 2.0], atol=1e-12)


def test_chsh_operator_boosted_peak():
    # Closed-form oracle: 2 (1 + sqrt(1 - beta^2)) / sqrt(2 - beta^2).
    operator = chsh_operator(chsh_collinear_settings(0.6))
    expected = 2.0 * (1.0 + 0.8) / math.sqrt(1.64)
    assert abs(max_violation(operator) - expected) < 1e-12


def test_chsh_terms_reassemble_operator():
    rng = np.random.default_rng(11)
    settings = _random_chsh_free(rng)
    total = np.zeros((4, 4), dtype=complex)
    for _, sign, (oa, ob) in chsh_terms(settings):
        total += sign * kron(oa, ob)
    assert max_abs(total - chsh_operator(settings)) < 1e-14


def test_chsh_square_identity_random_xy():
    rng = np.random.default_rng(12)
    for _ in range(200):
        settings = _random_chsh_xy(rng, rng.uniform(0.0, 0.99))
        assert chsh_square_identity_residual(settings) < 1e-12


def test_chsh_square_identity_free_settings():
    rng = np.random.default_rng(13)
    for _ in range(200):
        assert chsh_square_identity_residual(_random_chsh_free(rng)) < 1e-12


def test_chsh_square_rest_frame_cross_product_form():
    # Independent oracle at beta = 0: 4 [I + |a x a'| |b x b'| s_c (x) s_d]
    # with s_c, s_d the observables along the normalized cross products.
    rng = np.random.default_rng(14)
    boost = Boost(X, 0.0)
    for _ in range(50):
        settings = ChshSettings(random_xy(rng), random_xy(rng), random_xy(rng),
                                random_xy(rng), boost, boost)
        operator = chsh_operator(settings)
        cross_a = np.cross(settings.a, settings.a_prime)
        cross_b = np.cross(settings.b, settings.b_prime)
        sin_a, sin_b = np.linalg.norm(cross_a), np.linalg.norm(cross_b)
        rhs = 4.0 * np.eye(4, dtype=complex)
        if sin_a > 1e-12 and sin_b > 1e-12:
            s_c = observable_matrix(cross_a / sin_a, boost)
            s_d = observable_matrix(cross_b / sin_b, boost)
            rhs += 4.0 * sin_a * sin_b * kron(s_c, s_d)
        assert max_abs(operator @ operator - rhs) < 1e-12


def test_chsh_square_commuting_settings_is_4i():
    boost = Boost(X, 0.4)
    a = random_xy(np.random.default_rng(15))
    settings = ChshSettings(a, a, random_xy(np.random.default_rng(16)),
                            random_xy(np.random.default_rng(17)), boost, boost)
    operator = chsh_operator(settings)
    assert max_abs(operator @ operator - 4.0 * np.eye(4)) < 1e-12
    assert chsh_square_identity_residual(settings) < 1e-12


def test_chsh_zeta_values():
    assert abs(chsh_zeta(chsh_collinear_settings(0.0)) - 8.0) < 1e-12
    expected = 4.0 * (1.0 + 1.6 / 1.64)  # (1 - 0.36) / ((2 - 0.36)/2)^2 path
    assert abs(chsh_zeta(chsh_collinear_settings(0.6)) - expected) < 1e-12
    boost = Boost(X, 0.3)
    a = random_xy(np.random.default_rng(18))
    collapsed = ChshSettings(a, a, Y, X, boost, boost)
    assert abs(chsh_zeta(collapsed) - 4.0) < 1e-12


def test_chsh_zeta_domain():
    boost = Boost(X, 0.3)
    out_of_plane = ChshSettings(Z, Y, Y, X, boost, boost)
    with pytest.raises(DomainRestriction):
        chsh_zeta(out_of_plane)
    tilted = ChshSettings(Y, X, Y, X, Boost(Y, 0.3), boost)
    with pytest.raises(DomainRestriction):
        chsh_zeta(tilted)
    unequal = ChshSettings(Y, X, Y, X, Boost(X, 0.3), Boost(X, 0.4))
    with pytest.raises(DomainRestriction):
        chsh_zeta(unequal)


def test_chsh_zeta_matches_spectrum():
    rng = np.random.default_rng(19)
    for beta in (0.0, 0.3, 0.6, 0.9, 0.99):
        for _ in range(40):
            settings = _random_chsh_xy(rng, beta)
            operator = chsh_operator(settings)
            top = hermitian_eigensystem(operator @ operator)[0][-1]
            zeta = chsh_zeta(settings)
            assert 4.0 - 1e-12 <= zeta <= 8.0 + 1e-12
            assert abs(top - zeta) < 1e-10


def test_chsh_zeta_degenerate_eigenstates():
    rng = np.random.default_rng(20)
    for _ in range(100):
        settings = _random_chsh_xy(rng, rng.uniform(0.0, 0.95))
        operator = chsh_operator(settings)
        square = operator @ operator
        zeta = chsh_zeta(settings)
        sin_a = math.sin(math.atan2(settings.a[1], settings.a[0])
                         - math.atan2(settings.a_prime[1], settings.a_prime[0]))
        sin_b = math.sin(math.atan2(settings.b[1], settings.b[0])
                         - math.atan2(settings.b_prime[1], settings.b_prime[0]))
        indices = (0, 3) if sin_a * sin_b >= 0.0 else (1, 2)
        for index in indices:
            basis = np.zeros(4, dtype=complex)
            basis[index] = 1.0
            assert max_abs(square @ basis - zeta * basis) < 1e-10


def test_mermin_operator_ghz_expectations():
    # Direct 8x8 computation: x-unprimed/y-primed gives the full magnitude,
    # the y-unprimed/x-primed assignment gives zero.
    swapped = mermin_collinear_settings(0.0, prime_swap=True)
    state = ghz_plus()
    operator = mermin_operator(swapped)
    oracle = complex(np.conj(state) @ (operator @ state)).real
    assert abs(oracle + 4.0) < 1e-12
    as_given = mermin_operator(mermin_collinear_settings(0.0))
    assert abs(complex(np.conj(state) @ (as_given @ state)).real) < 1e-12


def test_mermin_operator_collapsed_settings():
    rng = np.random.default_rng(21)
    n = random_unit(rng)
    boost = Boost(X, 0.0)
    settings = MerminSettings(n, n, n, n, n, n, boost, boost, boost)
    operator = mermin_operator(settings)
    single = observable_matrix(n, boost)
    assert max_abs(operator - 2.0 * kron3(single, single, single)) < 1e-13
    w, _ = hermitian_eigensystem(operator)
    assert abs(w[0] + 2.0) < 1e-12 and abs(w[-1] - 2.0) < 1e-12


def test_mermin_terms_reassemble_operator():
    rng = np.random.default_rng(22)
    settings = _random_mermin(rng, in_plane=False)
    total = np.zeros((8, 8), dtype=complex)
    for _, sign, (oa, ob, oc) in mermin_terms(settings):
        total += sign * kron3(oa, ob, oc)
    assert max_abs(total - mermin_operator(settings)) < 1e-14


def test_mermin_square_closed_form_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        settings = _random_mermin(rng, in_plane=False)
        operator = mermin_operator(settings)
        residual = max_abs(operator @ operator - mermin_square_closed_form(settings))
        assert residual < 1e-12


def test_mermin_square_commuting_settings_is_4i():
    rng = np.random.default_rng(24)
    a, b, c = random_unit(rng), random_unit(rng), random_unit(rng)
    boost = Boost(X, 0.5)
    settings = MerminSettings(a, a, b, b, c, c, boost, boost, boost)
    closed = mermin_square_closed_form(settings)
    assert np.array_equal(closed, 4.0 * np.eye(8, dtype=complex))


def test_mermin_square_peak_is_16():
    for beta in (0.0, 0.5, 0.9):
        settings = mermin_collinear_settings(beta)
        w, _ = hermitian_eigensystem(mermin_square_closed_form(settings))
        assert abs(w[-1] - 16.0) < 1e-12


def test_mermin_square_leg_placement():
    # Different per-particle commutators expose the wrong placement.
    boost = Boost(X, 0.0)
    angles = [(0.0, -math.pi / 2), (0.3, 0.3 - math.pi / 6), (1.0, 1.0 - math.pi / 3)]
    dirs = []
    for base, primed in angles:
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        dirs.append(np.array([math.cos(primed), math.sin(primed), 0.0]))
    settings = MerminSettings(*dirs, boost, boost, boost)
    operator = mermin_operator(settings)
    square = operator @ operator
    assert max_abs(square - mermin_square_closed_form(settings)) < 1e-12
    assert max_abs(square - mermin_square_swapped_legs(settings)) > 0.1


def test_mermin_lambda3_values():
    for beta in (0.0, 0.3, 0.7, 0.99):
        assert abs(mermin_lambda3(mermin_collinear_settings(beta)) - 16.0) < 1e-12
    rng = np.random.default_rng(25)
    a, b, c = random_xy(rng), random_xy(rng), random_xy(rng)
    boost = Boost(X, 0.4)
    collapsed = MerminSettings(a, a, b, b, c, c, boost, boost, boost)
    assert abs(mermin_lambda3(collapsed) - 4.0) < 1e-12


def test_mermin_lambda3_center_of_mass_value():
    # Frozen oracle: 4 (1 + 8 g / sqrt(d) + 16 g^2 / d) at beta = 0.6,
    # g = 0.8, d = 3.64 * 2.92 = 10.6288.
    from relbell.scenarios import mermin_com_settings
    d = 3.64 * 2.92
    expected = 4.0 * (1.0 + 8.0 * 0.8 / math.sqrt(d) + 16.0 * 0.64 / d)
    settings = mermin_com_settings(0.6)
    assert abs(mermin_lambda3(settings) - expected) < 1e-12
    operator = mermin_operator(settings)
    top = hermitian_eigensystem(operator @ operator)[0][-1]
    assert abs(top - expected) < 1e-10


def test_mermin_lambda3_matches_spectrum_random():
    rng = np.random.default_rng(26)
    for _ in range(60):
        settings = _random_mermin(rng, in_plane=True)
        operator = mermin_operator(settings)
        top = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(top - mermin_lambda3(settings)) < 1e-10


def test_mermin_lambda3_domain():
    boost = Boost(X, 0.2)
    settings = MerminSettings(Z, Y, Y, X, Y, X, boost, boost, boost)
    with pytest.raises(DomainRestriction):
        mermin_lambda3(settings)
    tilted = MerminSettings(Y, X, Y, X, Y, X, Boost(Z, 0.2), boost, boost)
    with pytest.raises(DomainRestriction):
        mermin_lambda3(tilted)


def test_mermin_square_zero_eigenvector():
    boost = Boost(X, 0.0)
    dirs = []
    for base in (0.2, 0.9, 2.0):
        dirs.append(np.array([math.cos(base), math.sin(base), 0.0]))
        shifted = base - math.pi / 2.0
        dirs.append(np.array([math.cos(shifted), math.sin(shifted), 0.0]))
    settings = MerminSettings(*dirs, boost, boost, boost)
    operator = mermin_operator(settings)
    basis = np.zeros(8, dtype=complex)
    basis[1] = 1.0  # |001>
    assert max_abs(operator @ (operator @ basis)) < 1e-10


def test_max_violation_examples():
    assert abs(max_violation(chsh_operator(chsh_collinear_settings(0.0))) - ROOT8) < 1e-12
    assert abs(max_violation(mermin_operator(mermin_collinear_settings(0.0))) - 4.0) < 1e-12
    assert abs(max_violation(kron(SIGMA_Z, SIGMA_Z)) - 1.0) < 1e-15


def test_spectral_windows_and_square_consistency():
    rng = np.random.default_rng(27)
    for _ in range(40):
        settings = _random_chsh_free(rng)
        operator = chsh_operator(settings)
        w, _ = hermitian_eigensystem(operator)
        assert w[0] >= -ROOT8 - 1e-10 and w[-1] <= ROOT8 + 1e-10
        top_sq = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(math.sqrt(top_sq) - max_violation(operator)) < 1e-10
    for _ in range(20):
        settings = _random_mermin(rng, in_plane=False)
        operator = mermin_operator(settings)
        w, _ = hermitian_eigensystem(operator)
        assert w[0] >= -4.0 - 1e-10 and w[-1] <= 4.0 + 1e-10
        top_sq = hermitian_eigensystem(operator @ operator)[0][-1]
        assert abs(math.sqrt(top_sq) - max_violation(operator)) < 1e-10


def test_commutator_antisymmetry():
    rng = np.random.default_rng(28)
    m1 = observable_matrix(random_unit(rng), Boost(X, 0.3))
    m2 = observable_matrix(random_unit(rng), Boost(X, 0.3))
    assert max_abs(commutator(m1, m2) + commutator(m2, m1)) == 0.0


# Property tests of the matrix-free operator norms over the whole domain:
# free directions, free boost directions and per-particle speeds.
_NORM_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                          database=None)
_unit_vectors = st.builds(
    lambda theta, phi: np.array([math.sin(theta) * math.cos(phi),
                                 math.sin(theta) * math.sin(phi),
                                 math.cos(theta)]),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
_boosts = st.builds(Boost, _unit_vectors, st.floats(0.0, 0.99))


def _spectral_norms(operator):
    lapack = float(np.max(np.abs(np.linalg.eigvalsh(operator))))
    return max_violation(operator), lapack


@_NORM_SETTINGS
@given(st.lists(_unit_vectors, min_size=4, max_size=4),
       st.lists(_boosts, min_size=2, max_size=2))
def test_chsh_operator_norm_matches_spectrum(directions, boosts):
    settings_ = ChshSettings(*directions, *boosts)
    closed = chsh_operator_norm(settings_)
    jacobi, lapack = _spectral_norms(chsh_operator(settings_))
    assert abs(closed - jacobi) < 1e-12
    assert abs(closed - lapack) < 1e-12
    assert 2.0 - 1e-12 <= closed <= ROOT8 + 1e-12


@_NORM_SETTINGS
@given(st.lists(_unit_vectors, min_size=6, max_size=6),
       st.lists(_boosts, min_size=3, max_size=3))
def test_mermin_operator_norm_matches_spectrum(directions, boosts):
    settings_ = MerminSettings(*directions, *boosts)
    closed = mermin_operator_norm(settings_)
    jacobi, lapack = _spectral_norms(mermin_operator(settings_))
    assert abs(closed - jacobi) < 1e-12
    assert abs(closed - lapack) < 1e-12
    assert 2.0 - 1e-12 <= closed <= 4.0 + 1e-12


def test_operator_norms_extend_restricted_closed_forms():
    rng = np.random.default_rng(29)
    for beta in (0.0, 0.3, 0.9):
        settings_ = _random_chsh_xy(rng, beta)
        assert abs(chsh_operator_norm(settings_)
                   - math.sqrt(chsh_zeta(settings_))) < 1e-12
    for _ in range(10):
        settings_ = _random_mermin(rng, in_plane=True)
        assert abs(mermin_operator_norm(settings_)
                   - math.sqrt(mermin_lambda3(settings_))) < 1e-12
    assert abs(chsh_operator_norm(chsh_collinear_settings(0.0)) - ROOT8) < 1e-15
    assert abs(mermin_operator_norm(mermin_collinear_settings(0.7)) - 4.0) < 1e-12
    boost = Boost(X, 0.5)
    collapsed = ChshSettings(Y, Y, Z, Z, boost, boost)
    assert chsh_operator_norm(collapsed) == 2.0
