"""Shared helpers for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import relbell
from relbell.bell import _chsh_in_plane, bell_operator, effective_observables, square_closed_form
from relbell.errors import NoConvergence, NotHermitian
from relbell.linalg import (
    HERMITICITY_TOL,
    OFF_DIAGONAL_TARGET,
    SIGMA_Z,
    SWEEP_BUDGET,
    is_hermitian,
    kron,
)
# One copy of the random-direction draws: the verify battery's.
from relbell.verify import _random_unit as random_unit  # noqa: F401
from relbell.verify import _random_xy as random_xy  # noqa: F401


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a child interpreter on args, with relbell importable from the same
    sources as in this process; stdout and stderr are captured as bytes."""
    src = str(Path(relbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def max_abs(array):
    return float(np.max(np.abs(array)))


def square_residual(settings) -> float:
    """Largest entry of |B^2 - square_closed_form| for the Bell operator B of
    one Settings, squared by brute force.  For two particles whose four
    directions lie in the xy-plane, both boosted along x at a common speed,
    B^2 is also compared with the reduced form 4 [I + coeff sigma_z (x) sigma_z],

        coeff = (1 - beta^2) sin(phi_a - phi_a') sin(phi_b - phi_b')
                / sqrt(prod_v (1 + beta^2 (v_x^2 - 1))),

    and the larger residual is returned."""
    operator = bell_operator(settings)
    square = operator @ operator
    residual = max_abs(square - square_closed_form(effective_observables(settings)))
    in_plane = _chsh_in_plane(settings) if settings.n_particles == 2 else None
    if in_plane is None:
        return residual
    shrink_sq, sin_a, sin_b, denom = in_plane
    coeff = shrink_sq * sin_a * sin_b / math.sqrt(denom)
    reduced = 4.0 * (np.eye(4) + coeff * kron(SIGMA_Z, SIGMA_Z))
    return max(residual, max_abs(square - reduced))


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


# The scalar cyclic Jacobi kernel, one matrix at a time, kept as the oracle
# that the package's eigensolver must match bit for bit.

_SMALLEST_NORMAL = sys.float_info.min


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int,
            c: float, s: float, phase: complex) -> None:
    # Unitary R differs from the identity only in rows/columns p, q:
    # R[p,p] = R[q,q] = c, R[p,q] = s*phase, R[q,p] = -s*conj(phase),
    # with phase the unit phase of a[p,q].  Applies a <- R^dag a R, v <- v R.
    s_minus = s * np.conj(phase)
    s_plus = s * phase

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s_minus * col_q
    a[:, q] = s_plus * col_p + c * col_q

    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s_plus * row_q
    a[q, :] = s_minus * row_p + c * row_q

    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vec_p = v[:, p].copy()
    vec_q = v[:, q].copy()
    v[:, p] = c * vec_p - s_minus * vec_q
    v[:, q] = s_plus * vec_p + c * vec_q


def scalar_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of one Hermitian matrix by cyclic Jacobi
    rotations: ``(w, v)`` with ``w`` ascending and ``v``'s columns the
    eigenvectors."""
    m = np.asarray(matrix, dtype=complex)
    if not is_hermitian(m):
        raise NotHermitian(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")

    n = m.shape[0]
    a = m.astype(complex, copy=True)
    v = np.eye(n, dtype=complex)
    threshold = OFF_DIAGONAL_TARGET * max(1.0, float(np.linalg.norm(m)))

    for _ in range(SWEEP_BUDGET):
        if _off_norm(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag < _SMALLEST_NORMAL:
                    continue
                phase = apq / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                _rotate(a, v, p, q, c, t * c, phase)
    else:
        if _off_norm(a) > threshold:
            raise NoConvergence(
                f"off-diagonal norm {_off_norm(a):g} above {threshold:g} "
                f"after {SWEEP_BUDGET} sweeps")

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]
