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

from helpers import basis_state, marginal, same_bits
from relbell import sampling
from relbell.bell import bell_terms
from relbell.errors import (
    DimensionMismatch,
    DomainError,
    InvalidObservable,
    MissingSetting,
)
from relbell.linalg import IDENTITY_2, SIGMA_X, SIGMA_Z, expectation, kron
from relbell.sampling import (
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
    oracle = expectation(ghz_plus(), kron(SIGMA_X, SIGMA_X, SIGMA_X))
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
    for _, _, observables in bell_terms(settings):
        dist = joint_distribution(state, observables)
        for particle in range(3):
            # direct single-particle oracle
            factors = [IDENTITY_2] * 3
            factors[particle] = 0.5 * (IDENTITY_2 + observables[particle])
            p_plus = expectation(state, kron(*factors))
            probabilities = marginal(dist, particle)
            assert abs(probabilities[0] - p_plus) < 1e-12
            assert abs(probabilities.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n_particles", [2, 3])
def test_joint_distribution_takes_one_expectation(monkeypatch, n_particles):
    # One stacked kron and one expectation call for every outcome, each
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


# Dyadic distributions with every outcome possible: their sum is exactly 1,
# so sample's draw is the plain keyed multinomial call on them.
_DYADIC = (np.array([0.5, 0.25, 0.125, 0.125]),
           np.array([0.25, 0.125, 0.125, 0.125, 0.125, 0.125, 0.0625, 0.0625]))


def _keyed_counts(probabilities, shots, seed, setting_index):
    """The keyed multinomial draw over the outcomes with p > 0."""
    support = np.flatnonzero(probabilities)
    key = np.array([seed, setting_index], dtype=np.uint64)
    counts = np.zeros(probabilities.size, dtype=np.int64)
    counts[support] = Generator(Philox(key=key)).multinomial(
        shots, probabilities[support] / probabilities[support].sum())
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1])
def test_sample_is_the_keyed_multinomial_draw(seed):
    for probabilities in _DYADIC:
        dist = OutcomeDistribution(probabilities.size.bit_length() - 1, probabilities)
        for setting_index in range(8):
            key = np.array([seed, setting_index], dtype=np.uint64)
            expected = Generator(Philox(key=key)).multinomial(123457, probabilities)
            record = sample(dist, 123457, seed=seed, setting_index=setting_index)
            assert np.array_equal(record.counts, expected)


def test_sample_draws_over_the_outcomes_that_can_occur():
    # The swapped collinear Mermin scenario has zero-probability outcomes:
    # the draw runs over the others, with their probabilities rescaled to
    # sum to 1, and the zeros get no shot.
    for index, (_, _, observables) in enumerate(
            bell_terms(mermin_collinear_settings(0.3).prime_swapped())):
        p = joint_distribution(ghz_plus(), observables).probabilities
        support = np.flatnonzero(p)
        assert support.size < p.size
        record = sample(OutcomeDistribution(3, p), 10 ** 6, seed=11, setting_index=index)
        assert np.array_equal(record.counts, _keyed_counts(p, 10 ** 6, 11, index))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 53 + 1, 2 ** 62 + 3,
                                  2 ** 63 - 1])
def test_sample_key_below_2_63_matches_list_key(seed):
    # Seeds below 2**63 key Philox as a plain list of the two integers does.
    dist = OutcomeDistribution(2, _DYADIC[0])
    record = sample(dist, 65543, seed=seed, setting_index=3)
    expected = Generator(Philox(key=[seed, 3])).multinomial(65543, _DYADIC[0])
    assert np.array_equal(record.counts, expected)


_BLOCK_SHOTS = 1 << 16


def _reference_counts(probabilities, shots, key):
    """Per-shot oracle for the law of the counts: an inverse-CDF search of
    each uniform draw, in 64K-shot Philox blocks keyed like ``sample``."""
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    counts = np.zeros(cdf.size, dtype=np.int64)
    for block, start in enumerate(range(0, shots, _BLOCK_SHOTS)):
        gen = Generator(Philox(key=key, counter=[0, 0, 0, block]))
        draws = gen.random(min(_BLOCK_SHOTS, shots - start))
        counts += np.bincount(np.searchsorted(cdf, draws, side="right"),
                              minlength=cdf.size)
    return counts


def _run_concurrently(workers, call):
    """Start ``call`` on ``workers`` threads at once; return their results."""
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def run(index):
        barrier.wait(timeout=30)
        results[index] = call()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("shots", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 17])
@pytest.mark.parametrize("seed", [2 ** 63 - 5, 2 ** 63 + 5])
def test_sample_counts_do_not_depend_on_worker_count(workers, shots, seed):
    # ``workers`` threads sample the same setting at once: each call keys
    # its own generator, so every thread gets the keyed draw.
    _, _, observables = bell_terms(mermin_collinear_settings(0.4))[1]
    dist = joint_distribution(ghz_plus(), observables)
    results = _run_concurrently(
        workers, lambda: sample(dist, shots, seed=seed, setting_index=1).counts)
    expected = _keyed_counts(dist.probabilities, shots, seed, 1)
    for counts in results:
        assert np.array_equal(counts, expected)


def test_sample_workers_under_frequent_switching():
    # More threads than CPUs, each sampling four settings, switched every
    # microsecond: a generator shared between calls would change the counts.
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    shots = 23 * 2 ** 16 + 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _run_concurrently(7, lambda: [
            sample(dist, shots, seed=13, setting_index=index).counts
            for index in range(4)])
    finally:
        sys.setswitchinterval(interval)
    expected = [_keyed_counts(dist.probabilities, shots, 13, index) for index in range(4)]
    for counts in results:
        assert np.array_equal(counts, expected)


@pytest.mark.parametrize("workers, shots", [(1, 3 * 2 ** 16 + 17), (4, 2 ** 16)])
def test_sample_one_worker_starts_no_thread(monkeypatch, workers, shots):
    # Whatever number of CPUs the machine reports, sample draws on the
    # calling thread alone.
    def no_thread(*args, **kwargs):
        raise AssertionError("sample started a thread")

    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    monkeypatch.setattr(threading, "Thread", no_thread)
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    threads_before = threading.active_count()
    record = sample(dist, shots, seed=4)
    assert threading.active_count() == threads_before
    assert np.array_equal(record.counts, _keyed_counts(dist.probabilities, shots, 4, 0))


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_block", [0, 2, 4])
def test_sample_worker_error_reaches_caller(monkeypatch, error, failing_block):
    # The generator of setting ``failing_block`` raises: sample passes the
    # error itself to the caller, neither wrapped nor swallowed, leaves no
    # thread behind, and the settings before it keep their keyed counts.
    def failing_generator(bit_generator):
        if bit_generator.state["state"]["key"][1] == failing_block:
            raise error(f"block {failing_block}")
        return Generator(bit_generator)

    monkeypatch.setattr(sampling, "Generator", failing_generator)
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_X])
    threads_before = threading.active_count()
    for index in range(failing_block):
        assert np.array_equal(sample(dist, 6 * 2 ** 16, seed=11, setting_index=index).counts,
                              _keyed_counts(dist.probabilities, 6 * 2 ** 16, 11, index))
    with pytest.raises(error, match=f"block {failing_block}"):
        sample(dist, 6 * 2 ** 16, seed=11, setting_index=failing_block)
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("n_particles", [2, 3])
def test_sample_law_matches_per_shot_reference(n_particles):
    # Over 400 seeds at 1000 shots, each outcome's count has mean shots * p
    # and variance shots * p * (1 - p) under both samplers, within 5
    # standard errors of each estimate.
    if n_particles == 2:
        _, _, observables = bell_terms(chsh_collinear_settings(0.6))[1]
        dist = joint_distribution(phi_plus(), observables)
    else:
        _, _, observables = bell_terms(mermin_com_settings(0.45))[2]
        dist = joint_distribution(ghz_plus(), observables)
    p = dist.probabilities
    assert p.min() > 1e-3
    shots, runs = 1000, 400
    mean = shots * p
    variance = shots * p * (1.0 - p)
    # The binomial fourth central moment gives the variance's standard error.
    fourth = variance * (1.0 + 3.0 * (shots - 2) * p * (1.0 - p))
    for draw in (lambda seed: sample(dist, shots, seed=seed, setting_index=1).counts,
                 lambda seed: _reference_counts(p, shots, [seed, 1])):
        counts = np.array([draw(seed) for seed in range(runs)], dtype=float)
        assert np.all(np.abs(counts.mean(axis=0) - mean)
                      < 5.0 * np.sqrt(variance / runs))
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - variance)
                      < 5.0 * np.sqrt((fourth - variance ** 2) / runs))


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



_SEEDS = st.one_of(st.integers(0, 2 ** 63 - 1), st.integers(2 ** 63, 2 ** 64 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(probabilities=_probabilities(),
       shots=st.one_of(st.integers(1, 2 ** 62), st.integers(2 ** 60, 2 ** 62)),
       seed=_SEEDS, setting_index=st.integers(0, 7))
def test_sample_counts_are_exact(probabilities, shots, seed, setting_index):
    # Non-negative counts summing to the shots, none where p = 0, and every
    # shot on a point mass, also where the probabilities sum a few ulps above
    # 1 and the shots are far beyond what a per-shot loop could draw.
    dist = OutcomeDistribution(probabilities.size.bit_length() - 1, probabilities)
    counts = sample(dist, shots, seed=seed, setting_index=setting_index).counts
    assert counts.dtype == np.int64
    assert counts.min() >= 0
    assert int(counts.sum()) == shots
    assert np.all(counts[probabilities == 0.0] == 0)
    if np.count_nonzero(probabilities) == 1:
        assert counts[np.argmax(probabilities)] == shots


def test_sample_takes_the_most_shots_exactly():
    dist = joint_distribution(ghz_plus(), [SIGMA_X, SIGMA_X, SIGMA_Z])
    counts = sample(dist, sampling.MAX_SHOTS, seed=2 ** 64 - 1).counts
    assert sampling.MAX_SHOTS == 2 ** 63 - 1
    assert counts.min() >= 0
    assert int(counts.sum()) == 2 ** 63 - 1


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
    # Shots that are not integral, and a seed or setting index outside the
    # Philox key's [0, 2**64), are refused by name; numpy integers pass.
    for shots, seed, index, named in [(2.5, 0, 0, "shots"), (10.0, 0, 0, "shots"),
                                      (10, -1, 0, "seed"), (10, 2 ** 64, 0, "seed"),
                                      (10, 0.0, 0, "seed"), (10, 0, -1, "setting_index"),
                                      (10, 0, 2 ** 64, "setting_index")]:
        with pytest.raises(DomainError, match=f"^{named} must be .*, got "):
            sample(dist, shots, seed, setting_index=index)
    want = sample(dist, 10, 2 ** 64 - 1, setting_index=2 ** 64 - 1).counts
    got = sample(dist, np.int64(10), np.uint64(2 ** 64 - 1),
                 setting_index=np.uint64(2 ** 64 - 1)).counts
    assert same_bits(got, want)


@pytest.mark.parametrize("shots", [2 ** 63, 10 ** 19])
def test_sample_rejects_shots_above_2_63_minus_1(shots):
    # numpy's multinomial counts in int64, which these would overflow.
    dist = joint_distribution(phi_plus(), [SIGMA_Z, SIGMA_Z])
    with pytest.raises(DomainError, match=r"shots must be in \[1, 9223372036854775807\]"):
        sample(dist, shots, seed=0)


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
    for index, (_, sign, observables) in enumerate(terms):
        dist = joint_distribution(state, observables)
        records.append(sample(dist, 10 ** 5, seed=31415, setting_index=index))
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
    terms = bell_terms(settings)
    state = ghz_plus()
    records = []
    signs = []
    for index, (_, sign, observables) in enumerate(terms):
        dist = joint_distribution(state, observables)
        records.append(sample(dist, 20000, seed=8, setting_index=index))
        signs.append(sign)
    estimate, standard_error = estimate_bell(records, signs)
    assert estimate == -4.0
    assert standard_error == 0.0


def test_shot_record_validation():
    with pytest.raises(ValueError):
        ShotRecord(np.array([1, 2, 3, 4]), 11)
    with pytest.raises(ValueError):
        ShotRecord(np.array([6, -1, 3, 2]), 10)
