"""Kernel tests: Kronecker products, the Jacobi eigensolver, expectations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relbell.linalg as linalg
from helpers import max_abs, random_hermitian, random_unit
from relbell.errors import DimensionMismatch, NoConvergence, NotHermitian
from relbell.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    hermitian_eigensystem,
    is_hermitian,
    kron,
    kron3,
    state_vector,
)
from relbell.states import phi_plus


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_diagonal_paulis():
    assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_xy_entry():
    # Hand expansion of the 4x4 product: row 0 of sigma_x is (0, 1), so the
    # top-right 2x2 block is sigma_y itself and entry (0, 3) is -i.
    assert kron(SIGMA_X, SIGMA_Y)[0, 3] == -1j


def test_kron_associativity_exact():
    for a, b, c in ((SIGMA_X, SIGMA_Y, SIGMA_Z), (SIGMA_Z, IDENTITY_2, SIGMA_X)):
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
        assert np.array_equal(kron3(a, b, c), kron(kron(a, b), c))


def test_eigensystem_sigma_z():
    w, v = hermitian_eigensystem(SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert max_abs(v @ v.conj().T - np.eye(2)) < 1e-12


def test_eigensystem_identity():
    w, _ = hermitian_eigensystem(np.eye(4))
    assert np.array_equal(w, np.ones(4))


def test_eigensystem_diagonal_readoff():
    # Oracle: the matrix is diagonal, so its spectrum is the sorted diagonal.
    m = kron(SIGMA_Z, SIGMA_Z)
    expected = np.sort(np.diag(m).real)
    w, _ = hermitian_eigensystem(m)
    assert np.allclose(w, expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eigensystem_reconstruction_random(dim):
    rng = np.random.default_rng(901 + dim)
    for _ in range(25):
        m = random_hermitian(rng, dim)
        w, v = hermitian_eigensystem(m)
        assert np.all(np.diff(w) >= 0.0)
        assert max_abs(v @ np.diag(w) @ v.conj().T - m) < 1e-10
        assert max_abs(v.conj().T @ v - np.eye(dim)) < 1e-11
        for k in range(dim):
            assert max_abs(m @ v[:, k] - w[k] * v[:, k]) < 1e-11
        # independent route: LAPACK spectrum
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10)


def test_eigensystem_unit_direction_spectrum():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = random_unit(rng)
        m = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        w, _ = hermitian_eigensystem(m)
        assert abs(w[0] + 1.0) < 1e-12 and abs(w[1] - 1.0) < 1e-12


def test_eigensystem_subnormal_off_diagonal():
    # 1 / 1e-310 overflows, so the phase of such an entry cannot be taken;
    # the entry is far below the stopping threshold and is left in place
    # while the normal-sized entry is rotated away.
    m = np.array([[1.0, 0.5, 1e-310j],
                  [0.5, 2.0, 0.0],
                  [-1e-310j, 0.0, 3.0]])
    w, v = hermitian_eigensystem(m)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-14)
    assert max_abs(v @ np.diag(w) @ v.conj().T - m) < 1e-14


@st.composite
def _hermitian_spectra(draw):
    """(matrix, kind): U diag(w) U^dag for a seeded random unitary U, with a
    generic, degenerate (at most three distinct levels) or clustered
    (gaps of 1e-10) spectrum w, scaled down, as is, or up to large norm."""
    dim = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(("generic", "degenerate", "clustered")))
    if kind == "generic":
        w = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    elif kind == "degenerate":
        levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
        w = [levels[i % len(levels)] for i in range(dim)]
    else:
        center = draw(st.floats(-1.0, 1.0))
        w = [center + 1e-10 * i for i in range(dim)]
    scale = draw(st.sampled_from((1e-6, 1.0, 1e8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (q * (scale * np.array(w))) @ q.conj().T
    return 0.5 * (m + m.conj().T), kind


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_hermitian_spectra())
def test_eigensystem_matches_lapack(case):
    m, kind = case
    w, v = hermitian_eigensystem(m)
    norm = max(1.0, float(np.linalg.norm(m, 2)))
    assert max_abs(w - np.linalg.eigvalsh(m)) <= 1e-12 * norm, kind
    assert max_abs(v.conj().T @ v - np.eye(len(m))) < 1e-11, kind


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_sweep_budget(monkeypatch):
    monkeypatch.setattr(linalg, "SWEEP_BUDGET", 0)
    with pytest.raises(NoConvergence):
        hermitian_eigensystem(SIGMA_X)


def test_expectation_basis():
    zero_zero = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert expectation(zero_zero, kron(SIGMA_Z, SIGMA_Z)) == 1.0


def test_expectation_phi_plus():
    state = phi_plus()
    for matrix, expected in ((kron(SIGMA_X, SIGMA_X), 1.0),
                             (kron(SIGMA_Y, SIGMA_Y), -1.0)):
        # matrix-vector oracle
        oracle = complex(np.conj(state) @ (matrix @ state)).real
        assert abs(oracle - expected) < 1e-12
        assert abs(expectation(state, matrix) - expected) < 1e-12


def test_expectation_identity_is_one():
    rng = np.random.default_rng(5)
    for dim in (4, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        assert abs(expectation(v, np.eye(dim)) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(phi_plus(), SIGMA_Z)


def test_expectation_flags_imaginary_residue():
    skew = np.array([[0.0, 1.0j], [1.0j, 0.0]])  # not Hermitian
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    with pytest.raises(NotHermitian):
        expectation(state, skew)


def test_predicates():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_vector_validation():
    v = state_vector(phi_plus())
    assert v.size == 4
    with pytest.raises(ValueError):
        state_vector(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        state_vector(np.array([1.0, 0.0]))
