"""Shared helpers for the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

# One copy of the random-direction draws: the verify battery's.
from relbell.verify import _random_unit as random_unit  # noqa: F401
from relbell.verify import _random_xy as random_xy  # noqa: F401


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def max_abs(array):
    return float(np.max(np.abs(array)))


def ghz_minus():
    """The three-qubit state (|000> - |111>)/sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0 / math.sqrt(2.0)
    v[7] = -1.0 / math.sqrt(2.0)
    return v


def basis_state(bits):
    """Computational basis state |bits> for a 2- or 3-bit string."""
    if len(bits) not in (2, 3) or any(ch not in "01" for ch in bits):
        raise ValueError(f"expected a 2- or 3-bit string of 0/1, got {bits!r}")
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def marginal(distribution, particle):
    """[p(+1), p(-1)] for a single particle of an OutcomeDistribution."""
    signs = distribution.outcome_signs()[:, particle]
    p_plus = float(distribution.probabilities[signs == 1].sum())
    p_minus = float(distribution.probabilities[signs == -1].sum())
    return np.array([p_plus, p_minus])


#: Unit 3-vectors over the whole sphere, for hypothesis property tests.
unit_vectors = st.builds(
    lambda theta, phi: np.array([math.sin(theta) * math.cos(phi),
                                 math.sin(theta) * math.sin(phi),
                                 math.cos(theta)]),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
