"""Boosted-observable tests: effective directions and their 2x2 matrices."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relbell.observables as observables
from helpers import BETA_MAX, max_abs, ordered_sum, pauli_sum, random_unit, same_bits, unit_vectors
from relbell.errors import DegenerateObservable, DomainError, DomainRestriction
from relbell.linalg import SIGMA_X, SIGMA_Y
from relbell.observables import (
    DENOMINATOR_FLOOR,
    Boost,
    boost_denominator_sq,
    boost_map,
    boost_speeds,
    direction_matrix,
    direction_planes,
    inverse_boost_map,
    normalized3,
    require_unit_interval,
    require_xy_plane,
    unit3,
    unit3_stack,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
EPS = np.finfo(float).eps

_PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                              database=None)


def test_parallel_direction_is_fixed_point():
    assert np.array_equal(boost_map(X, X, 0.9), X)


def test_perpendicular_direction_is_fixed_point():
    assert np.allclose(boost_map(Y, X, 0.8), Y, atol=1e-15)


def test_effective_direction_diagonal_case():
    # Hand evaluation: parallel part (1/sqrt2) x, perpendicular (1/sqrt2) y
    # shrinks by 0.6; denominator sqrt(1 + 0.64 (1/2 - 1)) = sqrt(0.68).
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    expected = np.array([1.0, 0.6, 0.0]) / math.sqrt(1.36)
    result = boost_map(a, X, 0.8)
    assert max_abs(result - expected) < 1e-12
    assert abs(float(result @ result) - 1.0) < 1e-12


def test_zero_beta_returns_input_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_unit(rng)
        out = boost_map(a, random_unit(rng), 0.0)
        assert np.array_equal(out, a)


def test_fixed_points_all_speeds():
    rng = np.random.default_rng(4)
    for beta in (0.1, 0.5, 0.9, 0.999):
        e = random_unit(rng)
        boost = Boost(e, beta)
        assert max_abs(boost_map(e, boost.direction, boost.beta) - e) < 1e-12
        perp = np.cross(e, random_unit(rng))
        perp /= np.linalg.norm(perp)
        assert max_abs(boost_map(perp, boost.direction, boost.beta) - perp) < 1e-12


def test_result_is_unit():
    rng = np.random.default_rng(5)
    for _ in range(200):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        n = boost_map(random_unit(rng), boost.direction, boost.beta)
        assert abs(float(n @ n) - 1.0) < 1e-12


def test_direction_map_is_onto():
    # Invert by dividing the perpendicular component by sqrt(1 - beta^2),
    # renormalizing, and mapping forward again.
    rng = np.random.default_rng(6)
    for _ in range(200):
        target = random_unit(rng)
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.99))
        rest = inverse_boost_map(target, boost.direction, boost.beta)
        assert max_abs(boost_map(rest, boost.direction, boost.beta) - target) < 1e-10


@_PROPERTY_SETTINGS
@given(a=unit_vectors, e=unit_vectors, beta=st.floats(0.0, 0.999))
def test_effective_direction_is_unit_and_invertible(a, e, beta):
    boost = Boost(e, beta)
    n = boost_map(a, boost.direction, boost.beta)
    assert abs(float(n @ n) - 1.0) <= 1e-12
    assert max_abs(inverse_boost_map(n, boost.direction, boost.beta) - a) <= 1e-12


@_PROPERTY_SETTINGS
@given(samples=st.lists(st.tuples(unit_vectors, unit_vectors, st.floats(0.0, BETA_MAX)),
                        min_size=1, max_size=8))
def test_inverse_boost_map_rows_are_their_scalar_preimages(samples):
    # Each row of a stacked call has the bits of the scalar formula, with
    # along = e.t and the squared norm summed in order from the first term.
    targets, axes, speeds = (np.array(column) for column in zip(*samples))
    stacked = inverse_boost_map(targets, axes, speeds)
    for row, (t, e, beta) in zip(stacked, samples):
        if beta == 0.0:
            want = t
        else:
            along = ordered_sum(e * t)
            rest = along * e + (t - along * e) / math.sqrt(1.0 - beta * beta)
            want = rest / math.sqrt(ordered_sum(rest * rest))
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(inverse_boost_map(t, e, beta).view(np.uint64),
                              want.view(np.uint64))


@_PROPERTY_SETTINGS
@given(along=st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-8, 1e-8)),
       beta=st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
       floor=st.one_of(st.just(DENOMINATOR_FLOOR), st.floats(0.0, 1.0)))
# Exactly at the floor: 1 - 0.625^2 = 0.609375 = 0.7806247497997998^2 in floats.
@example(along=0.0, beta=0.625, floor=0.7806247497997998)
def test_degenerate_exactly_at_or_below_floor(along, beta, floor):
    # beta = 1 is admitted here, as in the closed forms: at the default floor
    # no representable beta < 1 degenerates.
    denom_sq = (1.0 - beta * beta) + beta * beta * (along * along)
    with mock.patch.object(observables, "DENOMINATOR_FLOOR", floor):
        if denom_sq <= floor * floor:
            with pytest.raises(DegenerateObservable):
                boost_denominator_sq(along, beta)
        else:
            assert boost_denominator_sq(along, beta) == denom_sq


def _with_along(e, p, along):
    """A unit direction with component ``along`` on the unit vector ``e``,
    the rest along the part of ``p`` perpendicular to ``e``."""
    perp = p - float(e @ p) * e
    perp /= np.linalg.norm(perp)
    a = along * e + math.sqrt(1.0 - along * along) * perp
    return a / np.linalg.norm(a)


@_PROPERTY_SETTINGS
@given(e=unit_vectors, p=unit_vectors,
       along=st.one_of(st.just(0.0), st.floats(-1e-4, 1e-4), st.floats(-1.0, 1.0)),
       beta=st.one_of(st.floats(0.0, BETA_MAX), st.floats(0.999999, BETA_MAX),
                      st.just(BETA_MAX)))
# A denominator formed as 1 + beta^2 (along^2 - 1) loses along^2 below about
# 1e-16 and gives |n|^2 = 0.967 here.
@example(e=X, p=Y, along=1e-8, beta=BETA_MAX)
def test_boost_map_output_is_unit_up_to_the_fastest_boost(e, p, along, beta):
    # 6 eps: the worst of 20,000 random draws over these ranges was 4 eps.
    assume(np.linalg.norm(p - float(e @ p) * e) > 1e-3)
    a = _with_along(e, p, along)
    for n in (boost_map(a, e, beta), boost_map(a[None], e[None], np.array([beta]))[0]):
        assert abs(float(n @ n) - 1.0) <= 6 * EPS


def test_observable_matrix_examples():
    assert max_abs(direction_matrix(boost_map(X, X, 0.5)) - SIGMA_X) < 1e-15
    assert max_abs(direction_matrix(boost_map(Y, X, 0.0)) - SIGMA_Y) < 1e-15
    a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    n = np.array([1.0, 0.6, 0.0]) / math.sqrt(1.36)
    expected = n[0] * SIGMA_X + n[1] * SIGMA_Y
    assert max_abs(direction_matrix(boost_map(a, X, 0.8)) - expected) < 1e-12


def test_observable_matrix_contracts():
    rng = np.random.default_rng(7)
    identity = np.eye(2)
    for _ in range(300):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        m = direction_matrix(boost_map(random_unit(rng), boost.direction, boost.beta))
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_validation_accepts_what_the_lone_path_accepts(data):
    # unit3_stack and boost_speeds test a whole (S, D) stack in one pass and
    # pass exactly what unit3 and Boost pass, row by row; the speed checks
    # take nested lists and tuples as the array they spell.
    directions, axes, speeds = _stack(data, (data.draw(st.integers(1, 4)), 2))
    assert same_bits(unit3_stack(directions), directions)
    for given_speeds in (speeds, speeds.tolist(), tuple(map(tuple, speeds.tolist()))):
        assert same_bits(boost_speeds(given_speeds), speeds)
        require_unit_interval(given_speeds)
    in_plane = directions * [1.0, 1.0, 0.0]
    assert same_bits(require_xy_plane(in_plane), in_plane)
    for direction, axis, beta in zip(directions.reshape(-1, 3), axes.reshape(-1, 3),
                                     speeds.ravel().tolist()):
        assert same_bits(unit3(direction), direction)
        assert Boost(axis, beta).beta == beta


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_stacked_validation_names_the_first_bad_row(shape):
    # The lone path's error types; the message carries the first failing row
    # in row-major order (row 2 of 6, before row 4), and NaN fails anywhere.
    directions = np.tile(X, shape + (1,))
    speeds = np.full(shape, 0.5)
    directions.reshape(-1, 3)[2] = [1.1, 0.0, 0.0]
    directions.reshape(-1, 3)[4] = [1.3, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"\|v\|\^2 = 1\.2100000000000002$"):
        unit3_stack(directions)
    speeds.reshape(-1)[2], speeds.reshape(-1)[4] = 1.0, 2.0
    for given_speeds in (speeds, speeds.tolist(), tuple(speeds.reshape(-1))):
        with pytest.raises(DomainError, match="got 1.0$"):
            boost_speeds(given_speeds)
        with pytest.raises(DomainError, match="got 2.0$"):
            require_unit_interval(given_speeds)
    for component in range(3):
        directions = np.tile(X, shape + (1,))
        directions.reshape(-1, 3)[3, component] = math.nan
        with pytest.raises(ValueError, match="nan"):
            unit3_stack(directions)
    speeds = np.full(shape, 0.5)
    speeds.reshape(-1)[3] = math.nan
    with pytest.raises(DomainError, match="nan"):
        boost_speeds(speeds)
    # require_xy_plane names the first vector whose z is NaN or off the
    # plane, a lone vector as well as a stack.
    directions = np.tile(X, shape + (1,))
    directions.reshape(-1, 3)[3, 2] = math.nan
    directions.reshape(-1, 3)[4, 2] = 0.5
    first = re.escape(f"direction {directions.reshape(-1, 3)[3]} leaves the xy-plane")
    with pytest.raises(DomainRestriction, match=first):
        require_xy_plane(directions)
    with pytest.raises(DomainRestriction, match=first):
        require_xy_plane(directions.reshape(-1, 3)[3])
    directions.reshape(-1, 3)[1, 2] = 2e-12
    with pytest.raises(DomainRestriction, match=re.escape(f"{directions.reshape(-1, 3)[1]}")):
        require_xy_plane(directions)


def test_degenerate_denominator_raises(monkeypatch):
    # The guard cannot fire for representable beta < 1 (the smallest
    # denominator is ~1.5e-8 at the largest double below 1), so raise the
    # floor to exercise the branch.
    monkeypatch.setattr(observables, "DENOMINATOR_FLOOR", 0.5)
    with pytest.raises(DegenerateObservable):
        boost_map(Y, X, 0.9)


def _stack(data, shape, max_beta=0.999):
    """Unit directions and boost axes of shape shape + (3,), and speeds of
    the given shape with exact zeros among them."""
    size = math.prod(shape)
    vectors = st.lists(unit_vectors, min_size=size, max_size=size)
    speeds = st.lists(st.one_of(st.just(0.0), st.floats(0.0, max_beta)),
                      min_size=size, max_size=size)
    return (np.reshape(data.draw(vectors), shape + (3,)),
            np.reshape(data.draw(vectors), shape + (3,)),
            np.reshape(data.draw(speeds), shape))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_boost_map_stack_matches_scalar_map_bit_for_bit(data):
    # Each sample with its own axes and speeds, as verify stacks them.
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
    a, e, beta = _stack(data, shape)
    n = boost_map(a, e, beta)
    assert n.shape == a.shape
    for index in np.ndindex(shape):
        assert same_bits(n[index], boost_map(a[index], e[index], float(beta[index])))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_boost_map_grid_broadcast_matches_scalar_map_bit_for_bit(data):
    # effective_directions_grid's shapes: (1, D, 3) directions and axes against
    # (R, 1) speeds.
    rows, count = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    a, e, _ = _stack(data, (count,))
    betas = _stack(data, (rows,))[2]
    n = boost_map(a[None], e[None], betas[:, None])
    assert n.shape == (rows, count, 3)
    for r, d in np.ndindex(rows, count):
        assert same_bits(n[r, d], boost_map(a[d], e[d], float(betas[r])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_boost_map_stack_raises_at_first_degenerate_element(data):
    # Under a floor of 0.5 no speed up to 0.5 degenerates.  Two elements are
    # made to: y against an x boost at 0.9 (denominator sqrt(0.19)) and
    # along = 0.3 at 0.95 (sqrt(0.178725)).  The stack must name the one a
    # scalar loop in row-major order meets first.
    shape = (data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6)))
    a, e, beta = _stack(data, shape, max_beta=0.5)
    first, second = data.draw(st.lists(st.integers(0, beta.size - 1),
                                       min_size=2, max_size=2, unique=True))
    a.reshape(-1, 3)[[first, second]] = [Y, [0.3, math.sqrt(0.91), 0.0]]
    e.reshape(-1, 3)[[first, second]] = X
    beta.reshape(-1)[[first, second]] = [0.9, 0.95]
    with mock.patch.object(observables, "DENOMINATOR_FLOOR", 0.5):
        with pytest.raises(DegenerateObservable) as scalar:
            for index in np.ndindex(shape):
                boost_map(a[index], e[index], float(beta[index]))
        with pytest.raises(DegenerateObservable) as stacked:
            boost_map(a, e, beta)
    assert str(stacked.value) == str(scalar.value)
    named = math.sqrt(0.19) if first < second else math.sqrt(0.178725)
    assert f"{named:g}" in str(stacked.value)


#: Components at the edges of the Pauli sum's signed zeros: both zeros, the
#: smallest subnormals, 1 and 1e300 of either sign.
_PAULI_COMPONENTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e300]),
                              st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(), (5,), (2, 3)]), data=st.data())
def test_direction_matrix_keeps_the_bits_of_the_pauli_sum(shape, data):
    # Entry by entry, with every signed zero of numpy's real-by-complex
    # products, for any finite components, lone or stacked.
    size = 3 * math.prod(shape)
    n = np.reshape(data.draw(st.lists(_PAULI_COMPONENTS, min_size=size, max_size=size)),
                   shape + (3,))
    assert same_bits(direction_matrix(n), pauli_sum(n))
    assert same_bits(direction_planes(n).matrices(), pauli_sum(n))
