"""Dense complex linear algebra for operators on up to three qubits.

Matrices are square numpy ``complex128`` arrays in row-major order; states
are one-dimensional ``complex128`` arrays of unit norm.  The eigensolver is
a cyclic Jacobi iteration implemented directly on the Hermitian matrix, so
spectra do not depend on any external solver.  At dimension 8 and below
robustness matters more than speed, which is what the Jacobi scheme buys.
It takes a stack of matrices ``(..., n, n)`` and sweeps them together, a
2-D matrix being a stack of one: each matrix stops when its own off-diagonal
norm meets its own threshold, and each rotation touches only the matrices
whose pivot is at least the smallest normal double, so every matrix gets the
bits it would get alone.  The stop rule takes every Frobenius norm of the
stack at once, as sqrt(add.reduce(re*re + im*im)); that may differ from
np.linalg.norm in the last bit, so only an off-diagonal norm that ties its
threshold to the ulp could stop a sweep earlier or later.  One bad matrix (a
non-finite entry, not Hermitian, an overflowing norm, no convergence) fails
the whole call.  Kronecker products are one broadcast cmul per factor;
every Kronecker product in the package goes through kron, which takes any
number of factors, so no caller branches on the particle count.  lone turns
the value of a lone input to a stacked function into a Python scalar.
cmul takes every complex-by-complex product and magnitude every complex
magnitude that reaches an output, in real ufuncs, which round alike at every
SIMD level, as numpy's own complex multiply and abs do not.

All operations are pure functions of their inputs and never mutate their
arguments, so values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import functools
import math
import operator
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


def _as_operators(matrices) -> np.ndarray:
    """Coerce the input to a square complex matrix or a stack of them, of
    dimension at least 1 (a stack may hold no matrix)."""
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    return m


def is_hermitian(matrices) -> bool:
    """Whether the matrix, or every matrix of a stack, is Hermitian within
    HERMITICITY_TOL (largest entry of M - M^dag)."""
    m = _as_operators(matrices)
    with np.errstate(over="ignore"):
        skew = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0)
    return bool(skew <= HERMITICITY_TOL)


def cmul(a, b) -> np.ndarray:
    """The broadcast complex product (ar br - ai bi) + i (ar bi + ai br), each
    real operation rounded on its own, so no SIMD loop fuses a multiply into
    an add.  A complex array, 0-d for scalar operands."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    real, imag = out.real, out.imag
    np.subtract(np.multiply(a.real, b.real, out=real), a.imag * b.imag, out=real)
    np.add(np.multiply(a.real, b.imag, out=imag), a.imag * b.real, out=imag)
    return out


def magnitude(z) -> np.ndarray:
    """|z| elementwise, np.hypot of the parts: Python's abs but for a NaN's sign bit."""
    return np.hypot(np.real(z), np.imag(z))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[-1], b.shape[-1]
    product = cmul(a[..., :, None, :, None], b[..., None, :, None, :])
    return product.reshape(product.shape[:-4] + (n * m, n * m))


def kron(first, *rest) -> np.ndarray:
    """Kronecker product of square matrices, associating left to right; the
    result dimension is the product of the factors'.  Each factor is one
    broadcast cmul.  Stacks of matrices along leading axes multiply row by
    row; a lone factor comes back as a complex array."""
    product = _as_operators(first)
    for factor in rest:
        product = _kron(product, _as_operators(factor))
    return product


def kron3(a, b, c) -> np.ndarray:
    """kron(a, b, c).  No code in the package calls it; it stays only because
    the perfbench harness times and traces it by name."""
    return kron(a, b, c)


def state_vector(amplitudes) -> np.ndarray:
    """Validate and return a normalized state over two or three qubits."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if v.size not in (4, 8):
        raise DimensionMismatch(f"state must have dimension 4 or 8, got {v.size}")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if not abs(norm_sq - 1.0) <= _STATE_NORM_TOL:
        raise ValueError(f"state is not normalized: sum of |amplitude|^2 = {norm_sq!r}")
    return v


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (k, n, n) stack, as one reduction
    over each matrix's entries; an overflowing norm is inf."""
    flat = stack.reshape(len(stack), stack.shape[-1] ** 2)
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(flat.real * flat.real + flat.imag * flat.imag, axis=-1))


def _rotate(pairs: np.ndarray, c: np.ndarray, s_pair: np.ndarray) -> np.ndarray:
    # (c x_p - s_pair[1] x_q, c x_q + s_pair[0] x_p) for (m, 2, L) pairs (x_p, x_q).
    products = cmul(s_pair, pairs)
    rotated = c[:, None, None] * pairs
    rotated[:, 0] -= products[:, 1]
    rotated[:, 1] += products[:, 0]
    return rotated


def _sweep(av: np.ndarray, n: int) -> None:
    # One cyclic sweep over the (k, 2n, n) stack av: rows :n hold each
    # matrix a, rows n: its accumulated rotations v, so one column update
    # serves both.  The unitary R differs from the identity only in rows and
    # columns p, q: R[p,p] = R[q,q] = c, R[p,q] = s*phase,
    # R[q,p] = -s*conj(phase), with phase the unit phase of a[p,q].  Applies
    # a <- R^dag a R, v <- v R to the matrices whose |a[p,q]| is at least the
    # smallest normal double, entry by entry as one matrix at a time would,
    # so every matrix gets the same bits as when solved alone.
    columns = av.swapaxes(1, 2)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = av[:, p, q]
            mag = magnitude(apq)
            rotating = mag >= _SMALLEST_NORMAL
            count = np.count_nonzero(rotating)
            if not count:
                continue
            sel = slice(None)
            if count < len(rotating):
                sel = np.flatnonzero(rotating)
                apq, mag = apq[sel], mag[sel]
            phase = np.empty_like(apq)
            phase.real, phase.imag = apq.real / mag, apq.imag / mag
            tau = (av[sel, q, q].real - av[sel, p, p].real) / (2.0 * mag)
            # |tau| + hypot(1, tau) overflows when |a[p,q]| nears the smallest normal: t = 0.
            with np.errstate(over="ignore"):
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # (s phase, s conj(phase)) turns the columns; reversed, the rows.
            s_pair = (s * np.array((phase, phase.conj()))).T[:, :, None]
            pq = slice(p, q + 1, q - p)  # rows, or columns, p and q
            columns[sel, pq] = _rotate(np.ascontiguousarray(columns[sel, pq]), c, s_pair)
            rows = _rotate(av[sel, pq], c, s_pair[:, ::-1])
            rows[:, 0, q] = rows[:, 1, p] = 0.0
            rows.imag[:, 0, p] = rows.imag[:, 1, q] = 0.0
            av[sel, pq] = rows


def hermitian_eigensystem(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix, or of each matrix
    of a stack ``(..., n, n)``, by cyclic Jacobi rotations.

    Returns ``(w, v)`` of shapes ``(..., n)`` and ``(..., n, n)``: each
    ``w`` sorted ascending and the columns of each ``v`` orthonormal,
    satisfying ``matrix @ v[:, k] == w[k] * v[:, k]`` to the sweep
    tolerance.  Degenerate eigenvalues receive an arbitrary orthonormal
    basis of their eigenspace, so callers should compare spectra or
    subspace projectors, never individual degenerate vectors.

    A stack is swept as a whole, but each matrix stops at its own
    threshold and gets the bits it would get alone; a 2-D input is a stack
    of one, and an empty stack gives empty arrays.  The whole call raises
    NotHermitian if any matrix has a non-finite entry or fails the
    hermiticity precondition, and NoConvergence if any matrix's Frobenius
    norm overflows or its sweep budget is exhausted.
    """
    m = _as_operators(matrices)
    n = m.shape[-1]
    stack = m.reshape((-1, n, n))
    if not np.isfinite(stack).all():
        raise NotHermitian("matrix has entries that are not finite")
    if not is_hermitian(stack):
        raise NotHermitian(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")
    norms = _frobenius(stack)
    if not np.isfinite(norms).all():
        raise NoConvergence("Frobenius norm of a finite matrix overflows")
    thresholds = OFF_DIAGONAL_TARGET * np.maximum(1.0, norms)

    k, diagonal = len(stack), np.arange(n)
    av = np.zeros((k, 2 * n, n), dtype=complex)
    av[:, :n] = stack
    av[:, n + diagonal, diagonal] = 1.0
    live = np.arange(k)
    for sweeps in range(SWEEP_BUDGET + 1):
        off = av[live, :n]
        off[:, diagonal, diagonal] = 0.0
        off_norms = _frobenius(off)
        above = off_norms > thresholds[live]
        live = live[above]
        if not live.size:
            break
        if sweeps == SWEEP_BUDGET:
            raise NoConvergence(f"off-diagonal norm {off_norms[above][0]:g} above "
                                f"{thresholds[live[0]]:g} after {SWEEP_BUDGET} sweeps")
        work = av[live]
        _sweep(work, n)
        av[live] = work

    w = av[:, diagonal, diagonal].real
    order = np.argsort(w, axis=-1, kind="stable")
    rows = np.arange(k)[:, None]
    w = w[rows, order]
    v = av[rows[:, None], n + diagonal[:, None], order[:, None, :]]
    return w.reshape(m.shape[:-1]), v.reshape(m.shape)


_in_order = functools.partial(functools.reduce, operator.iadd)  # ((t0 + t1) + t2) + ..., into t0


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of a (..., n, k) and b (..., k, m), broadcast over
    the leading axes as a @ b is, each entry's k products added in order
    from the first, with no BLAS; complex products are cmul's.  An empty
    inner size gives the zero product."""
    if a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    a, b, ks = a[..., :, :, None], b[..., None, :, :], range(a.shape[-1])
    product = cmul if np.iscomplexobj(a) or np.iscomplexobj(b) else np.multiply
    if not ks:  # the sum of no terms
        return product(a, b).sum(axis=-2)
    return _in_order(product(a[..., k, :], b[..., k, :]) for k in ks)


def expectation(state, matrices):
    """Expectation value <state|M|state> of a Hermitian matrix M: a float for
    one matrix; for a stack (..., n, n), an array (...) of one value per
    matrix, each s^dag (M s) by mm.  A state or matrix entry that is not
    finite raises NotHermitian before any product is taken.  Each raw inner
    product must be real up to a 1e-12 residue; a larger or NaN imaginary
    part means the matrix was not Hermitian, and raises; so does a value
    that overflows.  The error names the first such value in row-major order.
    """
    s = np.asarray(state, dtype=complex).reshape(-1)
    m = _as_operators(matrices)
    if m.shape[-1] != s.size:
        raise DimensionMismatch(
            f"state dimension {s.size} does not match matrix dimension {m.shape[-1]}")
    if not (np.isfinite(s).all() and np.isfinite(m).all()):
        raise NotHermitian("<s|M|s> of a state or matrix with an entry that is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = mm(s.conj()[None], mm(m, s[:, None])).reshape(-1)
    bad = ~(np.isfinite(raw.real) & (np.abs(raw.imag) < _IMAG_RESIDUE_TOL))
    if bad.any():
        first = complex(raw[bad.argmax()])
        if not math.isfinite(first.real):
            raise NotHermitian(f"<s|M|s> overflows to {first!r} from finite entries")
        raise NotHermitian(
            f"<s|M|s> has imaginary residue {first.imag:g}; matrix is not Hermitian")
    return lone(raw.real.reshape(m.shape[:-2]))


def lone(values, kind=float):
    """values as a Python scalar of kind (float or complex) when they are not
    a stack: the lone input's value of a function that also takes stacks."""
    return kind(values) if np.ndim(values) == 0 else values
