"""Shot-level Monte Carlo simulation of joint projective measurements.

Outcome tuples over n particles are indexed by n-bit integers, most
significant bit first, with bit 0 meaning outcome +1 and bit 1 meaning -1.
Each setting's shot counts are one multinomial draw from a counter-based
generator (Philox) keyed by the seed and the setting index, so they depend
only on (distribution, shots, seed, setting index) and on numpy's
``multinomial``/``binomial`` algorithms.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .errors import DimensionMismatch, DomainError, Frozen, InvalidObservable, MissingSetting
from .linalg import (
    IDENTITY_2,
    expectation,
    hermitian_eigenvalues,
    is_hermitian,
    kron,
    mm,
    state_vector,
)

#: The most shots one setting takes: numpy draws its counts as int64.
MAX_SHOTS = 2 ** 63 - 1
#: The largest seed or setting index: each is one word of the Philox key.
MAX_KEY = 2 ** 64 - 1

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


class OutcomeDistribution(NamedTuple):
    """Joint outcome probabilities for one setting combination."""

    n_particles: int
    probabilities: np.ndarray

    def outcome_signs(self) -> np.ndarray:
        return _outcome_signs(self.n_particles)

    def correlator(self) -> float:
        """Expectation of the product of the +/-1 outcomes."""
        products = self.outcome_signs().prod(axis=1)
        return float(mm(self.probabilities[None], products[:, None])[0, 0])


class ShotRecord(Frozen):
    """Counts per outcome tuple for one setting combination."""

    __slots__ = ("counts", "shots")

    def __init__(self, counts: np.ndarray, shots: int):
        if int(counts.sum()) != shots:
            raise ValueError("counts do not sum to the number of shots")
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", shots)

    @property
    def n_particles(self) -> int:
        return int(round(math.log2(self.counts.size)))

    def correlator(self) -> float:
        """Empirical expectation of the product of the +/-1 outcomes."""
        products = _outcome_signs(self.n_particles).prod(axis=1)
        return float(mm(self.counts[None], products[:, None])[0, 0]) / self.shots

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
    eigenvalues = hermitian_eigenvalues(o)
    if abs(eigenvalues[0] + 1.0) > _SPECTRUM_TOL or abs(eigenvalues[1] - 1.0) > _SPECTRUM_TOL:
        raise InvalidObservable(
            f"observable spectrum {eigenvalues} is not {{-1, +1}} within {_SPECTRUM_TOL:g}")


def joint_distribution(state, observables) -> OutcomeDistribution:
    """Joint outcome distribution of one +/-1 observable per particle: each
    outcome's probability is the expectation of the product of projectors
    (I + s_i O_i)/2, from one kron call over each particle's stack of
    projectors and one expectation call, so the correlator equals the
    expectation of the observables' tensor product."""
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

    signs = _outcome_signs(n)[:, :, None, None]
    projectors = [0.5 * (IDENTITY_2 + signs[:, i] * o) for i, o in enumerate(observables)]
    probabilities = expectation(vec, kron(*projectors))

    if probabilities.min() < _NEGATIVE_PROBABILITY_TOL:
        raise InvalidObservable(
            f"probability {probabilities.min():g} is negative beyond round-off")
    probabilities = np.clip(probabilities, 0.0, None)
    total = float(probabilities.sum())
    if not abs(total - 1.0) <= _TOTAL_PROBABILITY_TOL:
        raise InvalidObservable(f"probabilities sum to {total!r}, not 1")
    return OutcomeDistribution(n, probabilities)


def _integer(name: str, value, low: int, high: int) -> int:
    """value as an int, when it is an integer (numpy's included) in
    [low, high]; else DomainError naming it."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not low <= int(value) <= high:
        raise DomainError(f"{name} must be in [{low}, {high}], got {value!r}")
    return int(value)


def sample(distribution: OutcomeDistribution, shots: int, seed: int,
           setting_index: int = 0) -> ShotRecord:
    """Draw shot counts from a distribution, deterministically in
    (distribution, shots, seed, setting_index); shots that are not an
    integer in [1, MAX_SHOTS], or a seed or setting index that is not one in
    [0, MAX_KEY], raise DomainError, and probabilities that are not finite,
    are negative or do not sum to 1 within 1e-12 raise InvalidObservable.

    The counts are one exact draw from Multinomial(shots, p / sum(p)) over
    the outcomes with p > 0 (numpy's ``multinomial`` on a Philox generator
    keyed by (seed, setting_index)), at a cost that does not grow with the
    shots.  Outcomes with p = 0 stay out of the draw, where numpy's running
    remainder could hand them shots, and dividing by the sum keeps every
    probability at most 1.  Above 2**53 shots the counts are rounded.
    """
    shots = _integer("shots", shots, 1, MAX_SHOTS)
    key = [_integer("seed", seed, 0, MAX_KEY),
           _integer("setting_index", setting_index, 0, MAX_KEY)]
    p = distribution.probabilities
    if not (p.min() >= 0.0 and abs(float(p.sum()) - 1.0) <= _TOTAL_PROBABILITY_TOL):
        raise InvalidObservable(f"probabilities {p.tolist()} are not finite, non-negative "
                                f"and summing to 1 within {_TOTAL_PROBABILITY_TOL:g}")
    support = np.flatnonzero(p)
    generator = Generator(Philox(key=np.array(key, dtype=np.uint64)))
    counts = np.zeros(p.size, dtype=np.int64)
    counts[support] = generator.multinomial(shots, p[support] / p[support].sum())
    return ShotRecord(counts, shots)


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
