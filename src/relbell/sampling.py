"""Shot-level Monte Carlo simulation of joint projective measurements.

Outcome tuples over n particles are indexed by n-bit integers, most
significant bit first, with bit 0 meaning outcome +1 and bit 1 meaning -1.
Sampling uses a counter-based generator (Philox) keyed by the seed and the
setting index, with the counter advanced per fixed-size shot block.  The
blocks are counted on one worker per CPU available to the process, and the
counts depend only on (seed, setting index, BLOCK_SHOTS), never on the
worker count or the order in which blocks are counted.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, DomainError, InvalidObservable, MissingSetting
from .linalg import (
    IDENTITY_2,
    expectation,
    hermitian_eigensystem,
    is_hermitian,
    kron,
    kron3,
    state_vector,
)

#: Shots drawn per counter block.  The block size is part of the stream
#: definition: block b draws its shots from counter (0, 0, 0, b), so changing
#: it changes the counts.  Blocks are independent and merge by adding counts,
#: so the order in which they are processed does not matter.
BLOCK_SHOTS = 1 << 16

_SPECTRUM_TOL = 1e-10
_NEGATIVE_PROBABILITY_TOL = -1e-15
_TOTAL_PROBABILITY_TOL = 1e-12


@functools.cache
def _outcome_signs(n_particles: int) -> np.ndarray:
    """Read-only (2**n, n) array of +/-1 outcome tuples in index order,
    built once per particle count."""
    shifts = np.arange(n_particles - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(2 ** n_particles, dtype=np.int64)[:, None] >> shifts) & 1
    signs = 1 - 2 * bits
    signs.flags.writeable = False
    return signs


def outcome_labels(n_particles: int) -> list[str]:
    """Each outcome tuple's name, in index order: n_ then p (+1) or m (-1)."""
    return ["n_" + "".join("p" if s > 0 else "m" for s in row)
            for row in _outcome_signs(n_particles).tolist()]


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Joint outcome probabilities for one setting combination."""

    n_particles: int
    probabilities: np.ndarray

    def outcome_signs(self) -> np.ndarray:
        return _outcome_signs(self.n_particles)

    def correlator(self) -> float:
        """Expectation of the product of the +/-1 outcomes."""
        products = self.outcome_signs().prod(axis=1)
        return float(np.dot(self.probabilities, products))


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Counts per outcome tuple for one setting combination."""

    setting_label: str
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.shots:
            raise ValueError("counts do not sum to the number of shots")
        if self.counts.min() < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n_particles(self) -> int:
        return int(round(math.log2(self.counts.size)))

    def correlator(self) -> float:
        """Empirical expectation of the product of the +/-1 outcomes."""
        products = _outcome_signs(self.n_particles).prod(axis=1)
        return float(np.dot(self.counts, products)) / self.shots

    def correlator_variance(self) -> float:
        """Plug-in binomial variance of the empirical correlator (no
        small-sample correction)."""
        r = self.correlator()
        return max(1.0 - r * r, 0.0) / self.shots


def _check_observable(o: np.ndarray) -> None:
    if o.shape != (2, 2):
        raise InvalidObservable(f"per-particle observables must be 2x2, got {o.shape}")
    if not is_hermitian(o):
        raise InvalidObservable("observable is not Hermitian")
    eigenvalues, _ = hermitian_eigensystem(o)
    if abs(eigenvalues[0] + 1.0) > _SPECTRUM_TOL or abs(eigenvalues[1] - 1.0) > _SPECTRUM_TOL:
        raise InvalidObservable(
            f"observable spectrum {eigenvalues} is not {{-1, +1}} within {_SPECTRUM_TOL:g}")


def joint_distribution(state, observables) -> OutcomeDistribution:
    """Joint outcome distribution of one +/-1 observable per particle.

    The probability of an outcome tuple is the expectation of the product
    of per-particle projectors (I + s_i O_i)/2; the distribution's
    correlator therefore equals the expectation of the tensor product of
    the observables.  One kron/kron3 call over each particle's stack of
    projectors and one expectation call give every outcome's probability.
    """
    observables = [np.asarray(o, dtype=complex) for o in observables]
    n = len(observables)
    if n not in (2, 3):
        raise DimensionMismatch(f"expected 2 or 3 observables, got {n}")
    vec = state_vector(state)
    if vec.size != 2 ** n:
        raise DimensionMismatch(
            f"state dimension {vec.size} does not match {n} particles")
    for o in observables:
        _check_observable(o)

    # Particle i's projector per outcome; the first times 1.0, as a chain of
    # Kronecker products started from [[1]] gave it, to keep its signed zeros.
    signs = _outcome_signs(n)[:, :, None, None]
    projectors = [0.5 * (IDENTITY_2 + signs[:, i] * o) for i, o in enumerate(observables)]
    projectors[0] = 1.0 * projectors[0]
    probabilities = expectation(vec, (kron if n == 2 else kron3)(*projectors))

    if probabilities.min() < _NEGATIVE_PROBABILITY_TOL:
        raise InvalidObservable(
            f"probability {probabilities.min():g} is negative beyond round-off")
    probabilities = np.clip(probabilities, 0.0, None)
    total = float(probabilities.sum())
    if not abs(total - 1.0) <= _TOTAL_PROBABILITY_TOL:
        raise InvalidObservable(f"probabilities sum to {total!r}, not 1")
    return OutcomeDistribution(n, probabilities)


def _worker_count() -> int:
    """CPUs this process may run on, read on every call so that an affinity
    mask set after import (taskset) is respected."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample(distribution: OutcomeDistribution, shots: int, seed: int,
           setting_index: int = 0, label: str = "") -> ShotRecord:
    """Draw shot counts from a distribution, deterministically in
    (distribution, shots, seed, setting_index); probabilities that are not
    finite, are negative or do not sum to 1 within 1e-12 raise InvalidObservable.

    Inverse-CDF sampling over a Philox stream keyed by (seed,
    setting_index); the counter's top word is the block index, so the
    counts are fixed by (seed, setting_index, BLOCK_SHOTS) and do not depend
    on the order in which blocks are processed.  A draw u in [0, 1) lands on
    outcome #{k < size - 1 : cdf[k] <= u}.  Since u < cdf[k] is monotone in
    k, even where rounding lifts an entry of the cumulative sum above 1, the
    outcomes up to k take exactly the draws below cdf[k]: each block adds
    those counts into a running vector, and its differences are the counts.

    The blocks are dealt round-robin to one worker per available CPU: the
    calling thread and, when there is more than one block and CPU, plain
    threads that run while numpy's fill and compare loops release the GIL.
    Each worker refills one draw buffer and one mask buffer, and adds into
    its own row of counts; integer sums do not depend on order, so the rows
    add up to the serial counts.  No worker outlives the call, and a
    worker's error is raised here.
    """
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots!r}")
    p = distribution.probabilities
    if not (p.min() >= 0.0 and abs(float(p.sum()) - 1.0) <= _TOTAL_PROBABILITY_TOL):
        raise InvalidObservable(f"probabilities {p.tolist()} are not finite, non-negative "
                                f"and summing to 1 within {_TOTAL_PROBABILITY_TOL:g}")
    cdf = np.cumsum(p)
    key = np.array([seed, setting_index], dtype=np.uint64)
    n_blocks = -(-shots // BLOCK_SHOTS)
    workers = min(_worker_count(), n_blocks)
    below = np.zeros((workers, cdf.size), dtype=np.int64)
    buffers = np.empty((workers, min(BLOCK_SHOTS, shots)))
    masks = np.empty(buffers.shape, dtype=bool)
    stop = threading.Event()
    errors = []

    def count_blocks(worker: int) -> None:
        for block in range(worker, n_blocks, workers):
            if stop.is_set():
                return
            draws = buffers[worker, :min(BLOCK_SHOTS, shots - block * BLOCK_SHOTS)]
            Generator(Philox(key=key, counter=[0, 0, 0, block])).random(out=draws)
            mask = masks[worker, :draws.size]
            for k in range(cdf.size - 1):
                below[worker, k] += np.count_nonzero(np.less(draws, cdf[k], out=mask))

    def run_worker(worker: int) -> None:
        try:
            count_blocks(worker)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=run_worker, args=(worker,))
            thread.start()
            threads.append(thread)
        count_blocks(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    counts = below.sum(axis=0)
    counts[-1] = shots
    return ShotRecord(label, np.diff(counts, prepend=0), shots)


def estimate_bell(records, signs) -> tuple[float, float]:
    """Signed sum of empirical correlators and its standard error.

    One record per setting combination, in the same order as the signs;
    the standard error is the root of the summed per-setting plug-in
    variances.
    """
    records = list(records)
    signs = list(signs)
    if len(records) != len(signs):
        raise MissingSetting(
            f"{len(records)} records for {len(signs)} setting combinations")
    estimate = 0.0
    variance = 0.0
    for record, sign in zip(records, signs):
        estimate += sign * record.correlator()
        variance += record.correlator_variance()
    return estimate, math.sqrt(variance)


def exact_bell(distributions, signs) -> float:
    """Infinite-shot limit of estimate_bell: signed sum of the exact
    distribution correlators."""
    distributions = list(distributions)
    signs = list(signs)
    if len(distributions) != len(signs):
        raise MissingSetting(
            f"{len(distributions)} distributions for {len(signs)} setting combinations")
    return float(sum(sign * dist.correlator()
                     for dist, sign in zip(distributions, signs)))
