"""Monte Carlo measurement tests: distributions, sampling, estimators."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from helpers import basis_state, marginal
from relbell import sampling
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
from relbell.scenarios import chsh_collinear_settings, mermin_collinear_settings, \
    mermin_com_settings
from relbell.states import ghz_plus, phi_plus

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
    settings = mermin_collinear_settings(0.5).prime_swapped()
    state = ghz_plus()
    for _, _, observables in mermin_terms(settings):
        dist = joint_distribution(state, observables)
        for particle in range(3):
            # direct single-particle oracle
            factors = [IDENTITY_2] * 3
            factors[particle] = 0.5 * (IDENTITY_2 + observables[particle])
            p_plus = expectation(state, kron3(*factors))
            probabilities = marginal(dist, particle)
            assert abs(probabilities[0] - p_plus) < 1e-12
            assert abs(probabilities.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n_particles", [2, 3])
def test_joint_distribution_takes_one_expectation(monkeypatch, n_particles):
    # One stacked kron/kron3 and one expectation call for every outcome, each
    # probability the value of the per-outcome Kronecker chain from [[1]].
    calls = []

    def counting(state, matrices):
        calls.append(np.shape(matrices))
        return expectation(state, matrices)

    monkeypatch.setattr(sampling, "expectation", counting)
    settings = (chsh_collinear_settings if n_particles == 2 else mermin_com_settings)(0.7)
    state = settings.family.state()
    size = 2 ** n_particles
    for _, _, observables in bell_terms(settings):
        calls.clear()
        dist = joint_distribution(state, observables)
        assert calls == [(size, size, size)]
        for signs, probability in zip(dist.outcome_signs(), dist.probabilities):
            projector = np.ones((1, 1), dtype=complex)
            for sign, o in zip(signs, observables):
                projector = kron(projector, 0.5 * (IDENTITY_2 + sign * o))
            assert probability == np.clip(expectation(state, projector), 0.0, None)


def test_outcome_labels_follow_the_outcome_signs():
    assert sampling.outcome_labels(2) == ["n_pp", "n_pm", "n_mp", "n_mm"]
    assert sampling.outcome_labels(3)[5] == "n_mpm"


def test_joint_distribution_validation():
    with pytest.raises(InvalidObservable):
        joint_distribution(phi_plus(), [2.0 * SIGMA_Z, SIGMA_Z])
    with pytest.raises(InvalidObservable):
        joint_distribution(phi_plus(), [IDENTITY_2, SIGMA_Z])
    with pytest.raises(DimensionMismatch):
        joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z, SIGMA_Z])
    with pytest.raises(ValueError):
        joint_distribution(2.0 * phi_plus(), [SIGMA_Z, SIGMA_Z])


def test_joint_distribution_rejects_nan_state():
    # A NaN amplitude used to give all-NaN probabilities, which sample
    # turned into counts.
    with pytest.raises(ValueError, match="not normalized"):
        joint_distribution([math.nan, 0.0, 0.0, 0.0], [SIGMA_Z, SIGMA_Z])


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


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("shots", [1, BLOCK_SHOTS - 1, BLOCK_SHOTS,
                                   BLOCK_SHOTS + 1, 3 * BLOCK_SHOTS + 17])
@pytest.mark.parametrize("seed", [2 ** 63 - 5, 2 ** 63 + 5])
def test_sample_counts_do_not_depend_on_worker_count(monkeypatch, workers,
                                                     shots, seed):
    # 7 workers exceed the blocks of every shot count here.
    monkeypatch.setattr(sampling, "_worker_count", lambda: workers)
    settings_ = mermin_collinear_settings(0.4)
    _, _, observables = mermin_terms(settings_)[1]
    dist = joint_distribution(ghz_plus(), observables)
    record = sample(dist, shots, seed=seed, setting_index=1)
    key = np.array([seed, 1], dtype=np.uint64)
    assert np.array_equal(record.counts,
                          _reference_counts(dist.probabilities, shots, key))


def test_sample_workers_under_frequent_switching(monkeypatch):
    # More workers than CPUs, each with several blocks, switched every
    # microsecond: a row lost or counted twice would change the counts.
    monkeypatch.setattr(sampling, "_worker_count", lambda: 7)
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    shots = 23 * BLOCK_SHOTS + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        record = sample(dist, shots, seed=13, setting_index=2)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(record.counts,
                          _reference_counts(dist.probabilities, shots, [13, 2]))


@pytest.mark.parametrize("workers, shots", [(1, 3 * BLOCK_SHOTS + 17),
                                            (4, BLOCK_SHOTS)])
def test_sample_one_worker_starts_no_thread(monkeypatch, workers, shots):
    # One CPU, or a single block, runs on the calling thread alone.
    def no_thread(*args, **kwargs):
        raise AssertionError("sample started a thread")

    monkeypatch.setattr(sampling, "_worker_count", lambda: workers)
    monkeypatch.setattr(threading, "Thread", no_thread)
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    record = sample(dist, shots, seed=4)
    assert np.array_equal(record.counts,
                          _reference_counts(dist.probabilities, shots, [4, 0]))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_block", [0, 2, 4])
def test_sample_worker_error_reaches_caller(monkeypatch, error, failing_block):
    # With three workers, block 0 runs on the calling thread and blocks 2
    # and 4 on the third worker, which the caller must join and re-raise.
    def failing_generator(bit_generator):
        if bit_generator.state["state"]["counter"][3] == failing_block:
            raise error(f"block {failing_block}")
        return Generator(bit_generator)

    monkeypatch.setattr(sampling, "_worker_count", lambda: 3)
    monkeypatch.setattr(sampling, "Generator", failing_generator)
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    threads_before = threading.active_count()
    with pytest.raises(error, match=f"block {failing_block}"):
        sample(dist, 6 * BLOCK_SHOTS, seed=11)
    assert threading.active_count() == threads_before


def test_worker_count_reads_affinity_or_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert sampling._worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert sampling._worker_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sampling._worker_count() == 1


@pytest.mark.parametrize("n_particles", [2, 3])
def test_outcome_signs_table_is_shared_and_read_only(n_particles):
    signs = OutcomeDistribution(n_particles, np.ones(2 ** n_particles)).outcome_signs()
    assert signs is sampling._outcome_signs(n_particles)
    assert not signs.flags.writeable
    assert signs.dtype == np.int64
    expected = [[1 - 2 * int(bit) for bit in format(index, f"0{n_particles}b")]
                for index in range(2 ** n_particles)]
    assert signs.tolist() == expected


def test_sample_rejects_zero_shots():
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z])
    with pytest.raises(DomainError):
        sample(dist, 0, seed=0)


@pytest.mark.parametrize("probabilities", [
    [0.7, 0.7, 0.7, 0.7],
    [0.5, 0.5 - 2e-12, 0.0, 0.0],
    [math.nan, 0.0, 0.0, 1.0],
    [math.inf, 0.0, 0.0, 0.0],
    [-0.25, 0.25, 0.0, 1.0],
    [0.25, 0.25, 0.25, 0.25, 0.0, 0.0, -1e-300, 0.0],
])
def test_sample_rejects_invalid_probabilities(probabilities):
    dist = OutcomeDistribution(len(probabilities).bit_length() - 1,
                               np.array(probabilities))
    with pytest.raises(InvalidObservable):
        sample(dist, 1000, seed=1)


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
    settings = mermin_collinear_settings(0.5).prime_swapped()
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
