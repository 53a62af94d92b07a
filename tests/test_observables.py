"""Boosted-observable tests: effective directions and their 2x2 matrices."""

import math

import numpy as np
import pytest

import relbell.observables as observables
from helpers import max_abs, random_unit
from relbell.errors import DegenerateObservable, DomainError
from relbell.linalg import SIGMA_X, SIGMA_Y
from relbell.observables import (
    Boost,
    effective_direction,
    normalized3,
    observable_matrix,
    unit3,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def test_parallel_direction_is_fixed_point():
    assert np.array_equal(effective_direction(X, Boost(X, 0.9)), X)


def test_perpendicular_direction_is_fixed_point():
    assert np.allclose(effective_direction(Y, Boost(X, 0.8)), Y, atol=1e-15)


def test_effective_direction_diagonal_case():
    # Hand evaluation: parallel part (1/sqrt2) x, perpendicular (1/sqrt2) y
    # shrinks by 0.6; denominator sqrt(1 + 0.64 (1/2 - 1)) = sqrt(0.68).
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    expected = np.array([1.0, 0.6, 0.0]) / math.sqrt(1.36)
    result = effective_direction(a, Boost(X, 0.8))
    assert max_abs(result - expected) < 1e-12
    assert abs(float(result @ result) - 1.0) < 1e-12


def test_zero_beta_returns_input_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_unit(rng)
        out = effective_direction(a, Boost(random_unit(rng), 0.0))
        assert np.array_equal(out, a)


def test_fixed_points_all_speeds():
    rng = np.random.default_rng(4)
    for beta in (0.1, 0.5, 0.9, 0.999):
        e = random_unit(rng)
        boost = Boost(e, beta)
        assert max_abs(effective_direction(e, boost) - e) < 1e-12
        perp = np.cross(e, random_unit(rng))
        perp /= np.linalg.norm(perp)
        assert max_abs(effective_direction(perp, boost) - perp) < 1e-12


def test_result_is_unit():
    rng = np.random.default_rng(5)
    for _ in range(200):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        n = effective_direction(random_unit(rng), boost)
        assert abs(float(n @ n) - 1.0) < 1e-12


def test_direction_map_is_onto():
    # Invert by dividing the perpendicular component by sqrt(1 - beta^2),
    # renormalizing, and mapping forward again.
    rng = np.random.default_rng(6)
    for _ in range(200):
        target = random_unit(rng)
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.99))
        shrink = math.sqrt(1.0 - boost.beta ** 2)
        along = float(boost.direction @ target)
        preimage = along * boost.direction + (target - along * boost.direction) / shrink
        preimage /= np.linalg.norm(preimage)
        assert max_abs(effective_direction(preimage, boost) - target) < 1e-10


def test_observable_matrix_examples():
    assert max_abs(observable_matrix(X, Boost(X, 0.5)) - SIGMA_X) < 1e-15
    assert max_abs(observable_matrix(Y, Boost(X, 0.0)) - SIGMA_Y) < 1e-15
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    n = np.array([1.0, 0.6, 0.0]) / math.sqrt(1.36)
    expected = n[0] * SIGMA_X + n[1] * SIGMA_Y
    assert max_abs(observable_matrix(a, Boost(X, 0.8)) - expected) < 1e-12


def test_observable_matrix_contracts():
    rng = np.random.default_rng(7)
    identity = np.eye(2)
    for _ in range(300):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        m = observable_matrix(random_unit(rng), boost)
        assert max_abs(m - m.conj().T) < 1e-12
        assert abs(complex(np.trace(m))) < 1e-12
        assert max_abs(m @ m - identity) < 1e-12


def test_boost_validation():
    with pytest.raises(DomainError):
        Boost(X, 1.0)
    with pytest.raises(DomainError):
        Boost(X, -0.1)
    with pytest.raises(ValueError):
        Boost(np.array([1.0, 1.0, 0.0]), 0.5)


def test_unit3_and_normalized3():
    assert np.array_equal(unit3([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        unit3([1.0, 1.0, 0.0])
    assert max_abs(normalized3([2.0, 0.0, 0.0]) - X) == 0.0
    with pytest.raises(ValueError):
        normalized3([0.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit3_and_normalized3_reject_non_finite(bad):
    with pytest.raises(ValueError, match="not a unit vector"):
        unit3([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="cannot normalize"):
        normalized3([bad, 0.0, 1.0])
    with pytest.raises(ValueError):
        Boost(np.array([bad, 0.0, 0.0]), 0.5)
    with pytest.raises(DomainError):
        Boost(X, bad)


def test_degenerate_denominator_raises(monkeypatch):
    # The guard cannot fire for representable beta < 1 (the smallest
    # denominator is ~1.5e-8 at the largest double below 1), so raise the
    # floor to exercise the branch.
    monkeypatch.setattr(observables, "DENOMINATOR_FLOOR", 0.5)
    with pytest.raises(DegenerateObservable):
        effective_direction(Y, Boost(X, 0.9))
