"""Dense complex linear algebra for operators on up to three qubits.

Matrices are square numpy ``complex128`` arrays in row-major order; states
are one-dimensional ``complex128`` arrays of unit norm.  The eigensolver is
a cyclic Jacobi iteration implemented directly on the Hermitian matrix, so
spectra do not depend on any external solver.  At dimension 8 and below
robustness matters more than speed, which is what the Jacobi scheme buys.

All operations are pure functions of their inputs and never mutate their
arguments, so values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

#: Hermiticity tolerance used as the eigensolver precondition.
HERMITICITY_TOL = 1e-10
#: Off-diagonal Frobenius norm at which the Jacobi sweeps stop.  Applied
#: relative to the matrix's Frobenius norm (absolute for norms <= 1) so the
#: round-off floor of large-entry matrices cannot stall convergence.
OFF_DIAGONAL_TARGET = 1e-14
#: Jacobi sweeps allowed before declaring non-convergence.  Dimension <= 8
#: converges in well under ten sweeps, so exhausting this signals a bug.
SWEEP_BUDGET = 100

#: Off-diagonal entries below the smallest normal double are left in place:
#: they cannot matter against the threshold, and the phase division
#: overflows on them.
_SMALLEST_NORMAL = sys.float_info.min
_STATE_NORM_TOL = 1e-12
_IMAG_RESIDUE_TOL = 1e-12


def as_operator(matrix) -> np.ndarray:
    """Coerce the input to a square complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def is_hermitian(matrix, tol: float = HERMITICITY_TOL) -> bool:
    m = as_operator(matrix)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the result dimension is the product of the inputs'."""
    return np.kron(as_operator(a), as_operator(b))


def kron3(a, b, c) -> np.ndarray:
    """Three-factor Kronecker product, associating left to right."""
    return np.kron(np.kron(as_operator(a), as_operator(b)), as_operator(c))


def state_vector(amplitudes) -> np.ndarray:
    """Validate and return a normalized state over two or three qubits."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size not in (4, 8):
        raise DimensionMismatch(f"state must have dimension 4 or 8, got {v.size}")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > _STATE_NORM_TOL:
        raise ValueError(f"state is not normalized: sum of |amplitude|^2 = {norm_sq!r}")
    return v


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


def hermitian_eigensystem(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix by cyclic Jacobi
    rotations.

    Returns ``(w, v)`` with ``w`` sorted ascending and the columns of ``v``
    orthonormal, satisfying ``matrix @ v[:, k] == w[k] * v[:, k]`` to the
    sweep tolerance.  Degenerate eigenvalues receive an arbitrary
    orthonormal basis of their eigenspace, so callers should compare
    spectra or subspace projectors, never individual degenerate vectors.

    Raises NotHermitian when the input fails the hermiticity precondition
    and NoConvergence if the sweep budget is exhausted.
    """
    m = as_operator(matrix)
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


def expectation(state, matrix) -> float:
    """Expectation value <state|matrix|state> of a Hermitian matrix.

    The raw inner product must be real up to a 1e-12 residue; a larger
    imaginary part means the matrix was not Hermitian and raises.
    """
    s = np.asarray(state, dtype=complex).reshape(-1)
    m = as_operator(matrix)
    if m.shape[0] != s.size:
        raise DimensionMismatch(
            f"state dimension {s.size} does not match matrix dimension {m.shape[0]}")
    raw = complex(np.vdot(s, m @ s))
    if abs(raw.imag) >= _IMAG_RESIDUE_TOL:
        raise NotHermitian(
            f"<s|M|s> has imaginary residue {raw.imag:g}; matrix is not Hermitian")
    return raw.real
