"""Shot-level Monte Carlo simulation of joint projective measurements.

Outcome tuples over n particles are indexed by n-bit integers, most
significant bit first, with bit 0 meaning outcome +1 and bit 1 meaning -1.
Sampling uses a counter-based generator (Philox) keyed by the seed and the
setting index, with the counter advanced per fixed-size shot block, so a
parallel block schedule reproduces the serial counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, DomainError, InvalidObservable, MissingSetting
from .linalg import IDENTITY_2, expectation, hermitian_eigensystem, is_hermitian, state_vector

#: Shots drawn per counter block.  The block size is part of the stream
#: definition: block b draws its shots from counter (0, 0, 0, b), so changing
#: it changes the counts.  Blocks are independent and merge by adding counts,
#: so the order in which they are processed does not matter.
BLOCK_SHOTS = 1 << 16

_SPECTRUM_TOL = 1e-10
_NEGATIVE_PROBABILITY_TOL = -1e-15


def _outcome_signs(n_particles: int) -> np.ndarray:
    """(2**n, n) array of +/-1 outcome tuples in index order."""
    signs = np.empty((2 ** n_particles, n_particles), dtype=np.int64)
    for index in range(2 ** n_particles):
        for particle in range(n_particles):
            bit = (index >> (n_particles - 1 - particle)) & 1
            signs[index, particle] = 1 - 2 * bit
    return signs


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

    def marginal(self, particle: int) -> np.ndarray:
        """[p(+1), p(-1)] for a single particle."""
        signs = self.outcome_signs()[:, particle]
        p_plus = float(self.probabilities[signs == 1].sum())
        p_minus = float(self.probabilities[signs == -1].sum())
        return np.array([p_plus, p_minus])


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
    the observables.
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

    signs = _outcome_signs(n)
    probabilities = np.empty(2 ** n)
    for index in range(2 ** n):
        projector = np.array([[1.0]], dtype=complex)
        for particle in range(n):
            factor = 0.5 * (IDENTITY_2 + signs[index, particle] * observables[particle])
            projector = np.kron(projector, factor)
        probabilities[index] = expectation(vec, projector)

    if probabilities.min() < _NEGATIVE_PROBABILITY_TOL:
        raise InvalidObservable(
            f"probability {probabilities.min():g} is negative beyond round-off")
    probabilities = np.clip(probabilities, 0.0, None)
    total = float(probabilities.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvalidObservable(f"probabilities sum to {total!r}, not 1")
    return OutcomeDistribution(n, probabilities)


def sample(distribution: OutcomeDistribution, shots: int, seed: int,
           setting_index: int = 0, label: str = "") -> ShotRecord:
    """Draw shot counts from a distribution, deterministically in
    (distribution, shots, seed, setting_index).

    Inverse-CDF sampling over a Philox stream keyed by (seed,
    setting_index); the counter's top word is the block index, so the
    counts are fixed by (seed, setting_index, BLOCK_SHOTS) and do not depend
    on the order in which blocks are processed.  A draw u in [0, 1) lands on
    outcome #{k < size - 1 : cdf[k] <= u}.  Since u < cdf[k] is monotone in
    k, even where rounding lifts an entry of the cumulative sum above 1, the
    outcomes up to k take exactly the draws below cdf[k]: each block adds
    those counts into a running vector, and its differences are the counts.
    """
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots!r}")
    cdf = np.cumsum(distribution.probabilities)
    key = np.array([seed, setting_index], dtype=np.uint64)
    below = np.zeros(cdf.size, dtype=np.int64)
    below[-1] = shots
    for block, start in enumerate(range(0, shots, BLOCK_SHOTS)):
        block_shots = min(BLOCK_SHOTS, shots - start)
        gen = Generator(Philox(key=key, counter=[0, 0, 0, block]))
        draws = gen.random(block_shots)
        for k in range(cdf.size - 1):
            below[k] += np.count_nonzero(draws < cdf[k])
    return ShotRecord(label, np.diff(below, prepend=0), shots)


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
