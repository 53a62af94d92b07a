"""Monte Carlo measurement tests: distributions, sampling, estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from relbell.bell import bell_terms, mermin_terms
from relbell.errors import (
    DimensionMismatch,
    DomainError,
    InvalidObservable,
    MissingSetting,
)
from relbell.linalg import IDENTITY_2, SIGMA_X, SIGMA_Z, expectation, kron, kron3
from relbell.sampling import (
    BLOCK_SHOTS,
    OutcomeDistribution,
    ShotRecord,
    estimate_bell,
    exact_bell,
    joint_distribution,
    sample,
)
from relbell.scenarios import chsh_collinear_settings, mermin_collinear_settings
from relbell.states import basis_state, ghz_plus, phi_plus

ROOT8 = 2.0 * math.sqrt(2.0)


def test_joint_distribution_perfect_correlation():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z])
    assert np.allclose(dist.probabilities, [0.5, 0.0, 0.0, 0.5], atol=1e-14)
    assert dist.correlator() == pytest.approx(1.0)


def test_joint_distribution_unbiased_pair():
    # Projector arithmetic oracle: |<+|0>|^2 = 1/2 makes every outcome 1/4.
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    assert np.allclose(dist.probabilities, 0.25, atol=1e-14)


def test_joint_distribution_ghz_xxx():
    dist = joint_distribution(ghz_plus(), [SIGMA_X, SIGMA_X, SIGMA_X])
    oracle = expectation(ghz_plus(), kron3(SIGMA_X, SIGMA_X, SIGMA_X))
    assert dist.correlator() == pytest.approx(oracle, abs=1e-12)
    assert dist.correlator() == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_normalization_and_correlator():
    rng = np.random.default_rng(41)
    settings = chsh_collinear_settings(0.6)
    state = phi_plus()
    for _, _, observables in bell_terms(settings):
        dist = joint_distribution(state, observables)
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-12
        product = kron(observables[0], observables[1])
        assert abs(dist.correlator() - expectation(state, product)) < 1e-12


def test_joint_distribution_marginals():
    settings = mermin_collinear_settings(0.5, prime_swap=True)
    state = ghz_plus()
    for _, _, observables in mermin_terms(settings):
        dist = joint_distribution(state, observables)
        for particle in range(3):
            # direct single-particle oracle
            factors = [IDENTITY_2] * 3
            factors[particle] = 0.5 * (IDENTITY_2 + observables[particle])
            p_plus = expectation(state, kron3(*factors))
            marginal = dist.marginal(particle)
            assert abs(marginal[0] - p_plus) < 1e-12
            assert abs(marginal.sum() - 1.0) < 1e-12


def test_joint_distribution_validation():
    with pytest.raises(InvalidObservable):
        joint_distribution(phi_plus(), [2.0 * SIGMA_Z, SIGMA_Z])
    with pytest.raises(InvalidObservable):
        joint_distribution(phi_plus(), [IDENTITY_2, SIGMA_Z])
    with pytest.raises(DimensionMismatch):
        joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z, SIGMA_Z])
    with pytest.raises(ValueError):
        joint_distribution(2.0 * phi_plus(), [SIGMA_Z, SIGMA_Z])


def test_sample_point_mass():
    dist = joint_distribution(basis_state("00"), [SIGMA_Z, SIGMA_Z])
    record = sample(dist, 1000, seed=1)
    assert record.counts[0] == 1000
    assert record.shots == 1000


def test_sample_single_shot():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    record = sample(dist, 1, seed=9)
    assert record.counts.sum() == 1
    assert np.count_nonzero(record.counts) == 1


def test_sample_uniform_binomial_bound():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    shots = 10 ** 6
    record = sample(dist, shots, seed=2024)
    bound = 5.0 * math.sqrt(shots * 0.25 * 0.75)
    for count in record.counts:
        assert abs(count - shots / 4) < bound


def test_sample_determinism_and_setting_separation():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    first = sample(dist, 50000, seed=5, setting_index=2)
    second = sample(dist, 50000, seed=5, setting_index=2)
    assert np.array_equal(first.counts, second.counts)
    other = sample(dist, 50000, seed=5, setting_index=3)
    assert not np.array_equal(first.counts, other.counts)


def test_sample_block_merge_matches_manual_streams():
    # The counter scheme: block b draws from Philox(key=(seed, idx),
    # counter=(0,0,0,b)).  Recreate two blocks by hand and compare.
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    shots = BLOCK_SHOTS + 12345
    record = sample(dist, shots, seed=77, setting_index=1)
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    manual = np.zeros(4, dtype=np.int64)
    for block, block_shots in ((0, BLOCK_SHOTS), (1, 12345)):
        gen = Generator(Philox(key=[77, 1], counter=[0, 0, 0, block]))
        draws = gen.random(block_shots)
        manual += np.bincount(np.searchsorted(cdf, draws, side="right"),
                              minlength=4)
    assert np.array_equal(record.counts, manual)


def _reference_counts(probabilities, shots, key, reverse=False):
    """Per-draw searchsorted/bincount over the block streams of ``sample``,
    with the blocks visited in order or in reverse."""
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    blocks = list(enumerate(range(0, shots, BLOCK_SHOTS)))
    counts = np.zeros(cdf.size, dtype=np.int64)
    for block, start in reversed(blocks) if reverse else blocks:
        gen = Generator(Philox(key=key, counter=[0, 0, 0, block]))
        draws = gen.random(min(BLOCK_SHOTS, shots - start))
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"),
                              minlength=cdf.size)
    return counts


@st.composite
def _probabilities(draw):
    """4- or 8-outcome distributions: general weights with zero entries,
    point masses, and sums a few ulps above 1 ahead of a zero last entry,
    so that the cumulative sum passes 1 before its last entry."""
    size = draw(st.sampled_from([4, 8]))
    kind = draw(st.sampled_from(["weights", "point", "tail"]))
    if kind == "point":
        probabilities = np.zeros(size)
        probabilities[draw(st.integers(0, size - 1))] = 1.0
        return probabilities
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
                            min_size=size, max_size=size)
                   .filter(lambda w: sum(w[:-1]) > 0.0))
    probabilities = np.array(weights)
    if kind == "tail":
        probabilities[-1] = 0.0
    probabilities /= probabilities.sum()
    if kind == "tail":
        top = int(np.argmax(probabilities))
        ulps = draw(st.integers(1, 64))
        while np.cumsum(probabilities)[-2] <= 1.0:
            for _ in range(ulps):
                probabilities[top] = np.nextafter(probabilities[top], 2.0)
    return probabilities


_SHOTS = st.one_of(
    st.sampled_from([1, BLOCK_SHOTS - 1, BLOCK_SHOTS, BLOCK_SHOTS + 1,
                     3 * BLOCK_SHOTS + 17]),
    st.integers(1, 4 * BLOCK_SHOTS))
_SEEDS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(2 ** 63, 2 ** 64 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(probabilities=_probabilities(), shots=_SHOTS, seed=_SEEDS,
       setting_index=st.integers(0, 7))
def test_sample_matches_searchsorted_reference(probabilities, shots, seed,
                                               setting_index):
    dist = OutcomeDistribution(probabilities.size.bit_length() - 1, probabilities)
    record = sample(dist, shots, seed=seed, setting_index=setting_index)
    key = np.array([seed, setting_index], dtype=np.uint64)
    assert np.array_equal(record.counts, _reference_counts(probabilities, shots, key))


def test_sample_blocks_merge_in_reverse_order():
    settings_ = mermin_collinear_settings(0.3)
    _, _, observables = mermin_terms(settings_)[2]
    dist = joint_distribution(ghz_plus(), observables)
    shots = 3 * BLOCK_SHOTS + 101
    record = sample(dist, shots, seed=21, setting_index=2)
    key = np.array([21, 2], dtype=np.uint64)
    reverse = _reference_counts(dist.probabilities, shots, key, reverse=True)
    assert np.array_equal(record.counts, reverse)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 53 + 1, 2 ** 62 + 3,
                                  2 ** 63 - 1])
def test_sample_key_below_2_63_matches_list_key(seed):
    # Seeds below 2**63 keep the stream they had when the key was a list.
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    shots = BLOCK_SHOTS + 7
    record = sample(dist, shots, seed=seed, setting_index=3)
    assert np.array_equal(record.counts,
                          _reference_counts(dist.probabilities, shots, [seed, 3]))


def test_sample_rejects_zero_shots():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z])
    with pytest.raises(DomainError):
        sample(dist, 0, seed=0)


def test_estimate_bell_exact_rest_frame():
    settings = chsh_collinear_settings(0.0)
    terms = bell_terms(settings)
    dists = [joint_distribution(phi_plus(), obs) for _, _, obs in terms]
    signs = [sign for _, sign, _ in terms]
    assert exact_bell(dists, signs) == pytest.approx(ROOT8, abs=1e-12)


def test_estimate_bell_statistical_gate():
    settings = chsh_collinear_settings(0.0)
    terms = bell_terms(settings)
    state = phi_plus()
    records = []
    signs = []
    for index, (label, sign, observables) in enumerate(terms):
        dist = joint_distribution(state, observables)
        records.append(sample(dist, 10 ** 5, seed=31415, setting_index=index,
                              label=label))
        signs.append(sign)
    estimate, standard_error = estimate_bell(records, signs)
    assert standard_error > 0.0
    assert abs(estimate - ROOT8) < 5.0 * standard_error
    assert abs(estimate) <= ROOT8 + 5.0 * standard_error


def test_estimate_shrinks_with_shots():
    settings = chsh_collinear_settings(0.3)
    terms = bell_terms(settings)
    state = phi_plus()
    signs = [sign for _, sign, _ in terms]
    dists = [joint_distribution(state, obs) for _, _, obs in terms]
    exact = exact_bell(dists, signs)
    previous_error = None
    for shots in (10 ** 4, 10 ** 5, 10 ** 6):
        records = [sample(dist, shots, seed=99, setting_index=i)
                   for i, dist in enumerate(dists)]
        estimate, standard_error = estimate_bell(records, signs)
        assert abs(estimate - exact) < 5.0 * standard_error
        if previous_error is not None:
            assert standard_error < previous_error
        previous_error = standard_error


def test_estimate_product_state_classical_value():
    state = basis_state("00")
    records = []
    for index in range(4):
        dist = joint_distribution(state, [SIGMA_Z, SIGMA_Z])
        records.append(sample(dist, 1000, seed=3, setting_index=index))
    estimate, standard_error = estimate_bell(records, [1, 1, 1, -1])
    assert estimate == 2.0
    assert standard_error == 0.0


def test_estimate_bell_missing_setting():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z])
    record = sample(dist, 10, seed=0)
    with pytest.raises(MissingSetting):
        estimate_bell([record], [1, 1, 1, -1])
    with pytest.raises(MissingSetting):
        exact_bell([dist], [1, 1])


def test_mermin_swapped_sampling_is_deterministic_minus_four():
    settings = mermin_collinear_settings(0.5, prime_swap=True)
    terms = mermin_terms(settings)
    state = ghz_plus()
    records = []
    signs = []
    for index, (label, sign, observables) in enumerate(terms):
        dist = joint_distribution(state, observables)
        records.append(sample(dist, 20000, seed=8, setting_index=index,
                              label=label))
        signs.append(sign)
    estimate, standard_error = estimate_bell(records, signs)
    assert estimate == -4.0
    assert standard_error == 0.0


def test_shot_record_validation():
    with pytest.raises(ValueError):
        ShotRecord("x", np.array([1, 2, 3, 4]), 11)
    with pytest.raises(ValueError):
        ShotRecord("x", np.array([6, -1, 3, 2]), 10)
