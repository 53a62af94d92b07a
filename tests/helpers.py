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


#: Unit 3-vectors over the whole sphere, for hypothesis property tests.
unit_vectors = st.builds(
    lambda theta, phi: np.array([math.sin(theta) * math.cos(phi),
                                 math.sin(theta) * math.sin(phi),
                                 math.cos(theta)]),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
