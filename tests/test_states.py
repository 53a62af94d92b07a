"""State constructors and closed-form correlators against matrix oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import basis_state, ghz_minus, random_xy, same_bits
from relbell.errors import (
    DegenerateObservable,
    DomainError,
    DomainRestriction,
)
from relbell.linalg import expectation, kron, kron3
from relbell.observables import Boost, observable_matrix
from relbell.states import (
    ghz_correlator_closed_form,
    ghz_offdiagonal_closed_form,
    ghz_plus,
    phi_plus,
    phi_plus_correlator_closed_form,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def test_state_constructors():
    assert abs(np.linalg.norm(phi_plus()) - 1.0) < 1e-15
    assert abs(np.linalg.norm(ghz_plus()) - 1.0) < 1e-15
    assert abs(np.linalg.norm(ghz_minus()) - 1.0) < 1e-15
    assert np.array_equal(basis_state("01"), np.array([0, 1, 0, 0], dtype=complex))
    assert np.array_equal(basis_state("110"),
                          np.array([0, 0, 0, 0, 0, 0, 1, 0], dtype=complex))
    with pytest.raises(ValueError):
        basis_state("0")
    with pytest.raises(ValueError):
        basis_state("01a")


def test_phi_correlator_examples():
    assert phi_plus_correlator_closed_form(X, X, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi_plus_correlator_closed_form(Y, Y, 0.8) == pytest.approx(-1.0, abs=1e-15)


def test_phi_correlator_chsh_sum_equals_curve():
    # Summing the four correlators with the operator's signs must give the
    # closed-form peak value 2 (1 + sqrt(1 - b^2)) / sqrt(2 - b^2).
    beta = 0.6
    a = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    a_prime = np.array([-1.0, -1.0, 0.0]) / math.sqrt(2.0)
    total = (phi_plus_correlator_closed_form(a, Y, beta)
             + phi_plus_correlator_closed_form(a, X, beta)
             + phi_plus_correlator_closed_form(a_prime, Y, beta)
             - phi_plus_correlator_closed_form(a_prime, X, beta))
    assert total == pytest.approx(2.0 * 1.8 / math.sqrt(1.64), abs=1e-12)


def test_phi_correlator_matches_matrix():
    rng = np.random.default_rng(31)
    state = phi_plus()
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X, beta)
        for _ in range(334):
            a, b = random_xy(rng), random_xy(rng)
            closed = phi_plus_correlator_closed_form(a, b, beta)
            matrix = expectation(state, kron(observable_matrix(a, boost),
                                             observable_matrix(b, boost)))
            assert abs(closed - matrix) < 1e-12


def test_phi_correlator_domain():
    with pytest.raises(DomainRestriction):
        phi_plus_correlator_closed_form(np.array([0.0, 0.0, 1.0]), X, 0.5)
    with pytest.raises(DomainError):
        phi_plus_correlator_closed_form(X, X, 1.5)
    # beta = 1 is admitted as a limit; x measurements survive it
    assert phi_plus_correlator_closed_form(X, X, 1.0) == pytest.approx(1.0)
    # but y measurements degenerate exactly there
    with pytest.raises(DegenerateObservable):
        phi_plus_correlator_closed_form(Y, Y, 1.0)


def test_phi_correlator_z_coefficient_of_general_formula():
    # Outside the xy-plane the closed form refuses; the correct general
    # matrix result carries (1 - beta^2) on both the y and z products.
    rng = np.random.default_rng(32)
    state = phi_plus()
    for beta in (0.0, 0.4, 0.8):
        boost = Boost(X, beta)
        g = 1.0 - beta * beta
        for _ in range(50):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            factor_a = 1.0 + beta * beta * (a[0] ** 2 - 1.0)
            factor_b = 1.0 + beta * beta * (b[0] ** 2 - 1.0)
            general = ((a[0] * b[0] - g * a[1] * b[1] + g * a[2] * b[2])
                       / math.sqrt(factor_a * factor_b))
            matrix = expectation(state, kron(observable_matrix(a, boost),
                                             observable_matrix(b, boost)))
            assert abs(general - matrix) < 1e-12


def test_ghz_offdiagonal_examples():
    assert ghz_offdiagonal_closed_form(X, X, X, 0.7) == pytest.approx(1.0 + 0.0j)
    # three y factors at rest: i^3 = -i
    assert ghz_offdiagonal_closed_form(Y, Y, Y, 0.0) == pytest.approx(-1.0j)
    # (i 0.6)^2 / (0.6 * 0.6) = -1
    assert ghz_offdiagonal_closed_form(X, Y, Y, 0.8) == pytest.approx(-1.0 + 0.0j)


def test_ghz_offdiagonal_matches_matrix_element():
    rng = np.random.default_rng(33)
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X, beta)
        for _ in range(150):
            dirs = [random_xy(rng) for _ in range(3)]
            operator = kron3(*(observable_matrix(d, boost) for d in dirs))
            closed = ghz_offdiagonal_closed_form(*dirs, beta)
            assert abs(closed - operator[7, 0]) < 1e-12
            # Hermiticity pairing
            assert abs(np.conj(operator[0, 7]) - operator[7, 0]) < 1e-14


def test_ghz_correlator_examples():
    assert ghz_correlator_closed_form(X, X, X, 0.0) == pytest.approx(1.0)
    # 8x8 oracle for (x, y, y) at rest
    boost = Boost(X, 0.0)
    operator = kron3(observable_matrix(X, boost), observable_matrix(Y, boost),
                     observable_matrix(Y, boost))
    oracle = expectation(ghz_plus(), operator)
    assert oracle == pytest.approx(-1.0, abs=1e-14)
    assert ghz_correlator_closed_form(X, Y, Y, 0.0) == pytest.approx(oracle)
    # x and y are fixed points of the boost map, so beta drops out
    assert ghz_correlator_closed_form(X, Y, Y, 0.8) == pytest.approx(-1.0)


def test_ghz_correlator_matches_matrix():
    rng = np.random.default_rng(34)
    state = ghz_plus()
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X, beta)
        for _ in range(334):
            dirs = [random_xy(rng) for _ in range(3)]
            operator = kron3(*(observable_matrix(d, boost) for d in dirs))
            closed = ghz_correlator_closed_form(*dirs, beta)
            assert abs(closed - expectation(state, operator)) < 1e-12
            assert abs(closed - ghz_offdiagonal_closed_form(*dirs, beta).real) < 1e-12


def test_ghz_phase_flip_negates_correlator():
    rng = np.random.default_rng(35)
    plus, minus = ghz_plus(), ghz_minus()
    boost = Boost(X, 0.6)
    for _ in range(50):
        dirs = [random_xy(rng) for _ in range(3)]
        operator = kron3(*(observable_matrix(d, boost) for d in dirs))
        assert abs(expectation(plus, operator)
                   + expectation(minus, operator)) < 1e-12


def test_ghz_diagonal_elements_vanish_in_plane():
    # Effective directions of xy-plane settings under x boosts have no z
    # component, so every diagonal element of the triple product vanishes.
    rng = np.random.default_rng(36)
    for beta in (0.0, 0.6):
        boost = Boost(X, beta)
        for _ in range(50):
            dirs = [random_xy(rng) for _ in range(3)]
            operator = kron3(*(observable_matrix(d, boost) for d in dirs))
            assert abs(operator[0, 0]) < 1e-15
            assert abs(operator[7, 7]) < 1e-15


def test_ghz_closed_forms_domain():
    z_dir = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DomainRestriction):
        ghz_offdiagonal_closed_form(z_dir, X, X, 0.3)
    with pytest.raises(DomainRestriction):
        ghz_correlator_closed_form(X, z_dir, X, 0.3)
    with pytest.raises(DomainError):
        ghz_correlator_closed_form(X, X, X, -0.2)


#: Each closed form with a stacked form: its direction count and the type
#: of a lone call's value.
CLOSED_FORMS = [(phi_plus_correlator_closed_form, 2, float),
                (ghz_correlator_closed_form, 3, float),
                (ghz_offdiagonal_closed_form, 3, complex)]


def _xy(angles):
    angles = np.asarray(angles, dtype=float)
    return np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)


@pytest.mark.parametrize("closed_form, count, kind", CLOSED_FORMS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_stack_rows_are_lone_calls(closed_form, count, kind, data):
    # Directions (S, 3) per argument and speeds (S,): each row has the bits
    # of its lone call, and a lone call returns a Python scalar.
    rows = data.draw(st.integers(1, 6))
    angles = data.draw(st.lists(st.floats(0.0, 2.0 * math.pi),
                                min_size=rows * count, max_size=rows * count))
    directions = _xy(np.reshape(angles, (rows, count)))
    speeds = np.array(data.draw(st.lists(st.floats(0.0, 0.999), min_size=rows, max_size=rows)))
    stacked = closed_form(*np.moveaxis(directions, 1, 0), speeds)
    assert stacked.shape == (rows,)
    for row, beta, value in zip(directions, speeds.tolist(), stacked):
        lone = closed_form(*row, beta)
        assert type(lone) is kind
        assert same_bits(value, lone)


def _bad_stack(count):
    """Five rows of count valid xy directions at speed 0.5, to spoil."""
    return _xy(np.linspace(0.1, 6.0, 5 * count).reshape(5, count)), np.full(5, 0.5)


@pytest.mark.parametrize("closed_form, count, kind", CLOSED_FORMS)
def test_closed_form_stacks_refuse_their_first_bad_row(closed_form, count, kind):
    # One pass per test over the whole stack raises the lone call's error
    # type, and the message carries the first bad row in row-major order.
    def call(directions, speeds):
        return closed_form(*np.moveaxis(directions, 1, 0), speeds)

    directions, speeds = _bad_stack(count)
    directions[2, count - 1] *= 1.1
    directions[4, 0] *= 1.2
    first = float(directions[2, count - 1] @ directions[2, count - 1])
    with pytest.raises(ValueError, match=re.escape(f"|v|^2 = {first!r}")):
        call(directions, speeds)

    directions, speeds = _bad_stack(count)
    directions[1, 1] = [0.6, 0.0, 0.8]
    directions[3, 0] = [0.0, 0.6, 0.8]
    with pytest.raises(DomainRestriction, match=re.escape(f"direction {directions[1, 1]}")):
        call(directions, speeds)

    directions, speeds = _bad_stack(count)
    speeds[[2, 4]] = 1.5, -0.5
    with pytest.raises(DomainError, match="got 1.5$"):
        call(directions, speeds)

    for component in range(3):
        directions, speeds = _bad_stack(count)
        directions[3, count - 1, component] = math.nan
        with pytest.raises(ValueError, match="nan"):
            call(directions, speeds)
    directions, speeds = _bad_stack(count)
    speeds[3] = math.nan
    with pytest.raises(DomainError, match="nan"):
        call(directions, speeds)
