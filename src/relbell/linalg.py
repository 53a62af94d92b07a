"""Dense complex linear algebra for operators on up to three qubits.

Matrices are square numpy ``complex128`` arrays in row-major order, alone
(n, n) or stacked (..., n, n); states are one-dimensional ``complex128``
arrays of unit norm.  kron, the eigensolvers, expectation and is_hermitian
also take a stack as Planes, a real and an imaginary float array (n, n, ...)
with the stack axes last, so each real ufunc runs one long loop over the
stack, not one short loop per row; kron hands Planes on as Planes.  The
layout moves no bit: each entry takes a complex product's real operations
in order, cmul's ar br - ai bi and ar bi + ai br, and numpy's real-by-complex
c z as (c zr - 0 zi) + i (c zi + 0 zr).  Real ufuncs round alike at every
SIMD level, as numpy's complex multiply and abs do not, so cmul takes every
other complex product and magnitude every complex magnitude on an output
path; mm sums each entry's products in order.

The eigensolver is a cyclic Jacobi iteration.  It sweeps a stack as a whole,
but each matrix stops at its own threshold and each rotation touches only the
matrices whose pivot is at least the smallest normal double, so every matrix
gets the bits it would get alone.  The stop rule's sqrt(add.reduce(re*re +
im*im)) may differ from np.linalg.norm in the last bit, so only a norm that
ties its threshold to the ulp could stop a sweep earlier or later.  One bad
matrix fails the whole call.  No function mutates its arguments.
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


class Planes:
    """Complex matrices (..., n, n) as float arrays re and im (n, n, ...);
    len and [] act on the first stack axis, + and - part by part."""

    __slots__ = ("re", "im")

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re, self.im = re, im

    def __len__(self) -> int:
        return len(self.re[0, 0])

    def __getitem__(self, index) -> "Planes":
        return Planes(self.re[:, :, index], self.im[:, :, index])

    def __add__(self, other: "Planes") -> "Planes":
        return Planes(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Planes") -> "Planes":
        return Planes(self.re - other.re, self.im - other.im)

    def matrices(self) -> np.ndarray:
        """The complex (..., n, n) array."""
        out = np.empty(self.re.shape[2:] + self.re.shape[:2], dtype=complex)
        axes = (*range(2, self.re.ndim), 0, 1)
        out.real, out.imag = self.re.transpose(axes), self.im.transpose(axes)
        return out


def planes(matrices) -> Planes:
    """A square complex matrix or a stack of them, of dimension at least 1
    (a stack may hold no matrix), as Planes that view it; Planes pass."""
    if isinstance(matrices, Planes):
        return matrices
    m = np.asarray(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    m = m.transpose((m.ndim - 2, m.ndim - 1, *range(m.ndim - 2)))
    return Planes(m.real, m.imag)


def is_hermitian(matrices) -> bool:
    """Whether the matrix, or every matrix of a stack, is Hermitian within
    HERMITICITY_TOL (largest entry of M - M^dag)."""
    m = planes(matrices)
    with np.errstate(over="ignore"):
        skew = np.hypot(m.re - m.re.swapaxes(0, 1), m.im + m.im.swapaxes(0, 1))
    return bool(np.max(skew, initial=0.0) <= HERMITICITY_TOL)


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


def _cmul(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """cmul's product of the parts of a and b, as its two parts."""
    re, im = ar * br, ar * bi
    re -= ai * bi
    im += ai * br
    return re, im


def magnitude(z) -> np.ndarray:
    """|z| elementwise, np.hypot of the parts: Python's abs but for a NaN's sign bit."""
    return np.hypot(np.real(z), np.imag(z))


def _kron(a: Planes, b: Planes) -> Planes:
    # Entry (i m + j, k m + l) is cmul's a[i, k] b[j, l]; stack axes
    # broadcast as they would in front of the matrix axes.
    n, m, width = len(a.re), len(b.re), max(a.re.ndim, b.re.ndim)

    def spread(part, axes):
        return part.reshape(axes + (1,) * (width - part.ndim) + part.shape[2:])

    product = _cmul(spread(a.re, (n, 1, n, 1)), spread(a.im, (n, 1, n, 1)),
                    spread(b.re, (1, m, 1, m)), spread(b.im, (1, m, 1, m)))
    return Planes(*[part.reshape((n * m, n * m) + part.shape[4:]) for part in product])


def kron(first, *rest):
    """Kronecker product of square matrices, associating left to right.
    Stacks along leading axes multiply row by row, and a lone factor
    broadcasts.  A complex array, or Planes when the first factor is Planes."""
    product = functools.reduce(_kron, map(planes, rest), planes(first))
    return product if isinstance(first, Planes) else product.matrices()


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


def _frobenius(re: np.ndarray, im: np.ndarray, off: bool = False) -> np.ndarray:
    """Frobenius norm of each matrix of (n, n, k) planes, or with off of its
    off-diagonal part, summed as one matrix alone would be; inf on overflow."""
    n, k = re.shape[0], re.shape[2]
    with np.errstate(over="ignore"):
        squares = re * re + im * im
        if off:
            squares[np.arange(n), np.arange(n)] = 0.0
        return np.sqrt(np.add.reduce(squares.reshape(n * n, k).T.copy(), axis=-1))


#: What a turned entry reads of a pair (x_p, x_q) and its parts: as they are,
#: parts swapped, pair swapped, both.
_READS_Q = np.array([[[0], [1]], [[0], [1]], [[1], [0]], [[1], [0]]]) * np.ones((1, 1, 2), int)
_PART_READ = np.array([[[0, 1]], [[1, 0]], [[0, 1]], [[1, 0]]]) * np.ones((1, 2, 1), int)
#: Signs of (phr, phi) in conj(phase) and phase; a real-by-complex product's zeros.
_CONJ_AND_PHASE = np.array([[[1.0], [-1.0]], [[1.0], [1.0]]])
_ZEROS = np.array([[-0.0], [0.0]])
_MINUS_PLUS = np.array([[-1.0], [1.0]])


@functools.cache
def _pairs(n: int) -> tuple:
    """(p, q, columns read) of an n x n sweep, in cyclic order."""
    return tuple((p, q, np.where(_READS_Q, q, p)) for p in range(n - 1) for q in range(p + 1, n))


def _turn(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # x (L, 4 arrangements, 2 outputs, 2 parts, m) to (L, 2, 2, m): output 0
    # is c x_p - u0 x_q and output 1 c x_q + u1 x_p, each part the sum of two
    # real products in a complex product's order, x - y taken as x + (-y).
    terms = coef * x
    turned, other = terms[:, 0] + terms[:, 1], terms[:, 2] + terms[:, 3]
    turned[:, 0] -= other[:, 0]
    turned[:, 1] += other[:, 1]
    return turned


def _sweep(w: np.ndarray, n: int) -> None:
    # One cyclic sweep over w (L, n, [re, im], m): rows :n hold each matrix a,
    # any rows n: its rotations v.  R is the identity but for R[p,p] = R[q,q]
    # = c, R[p,q] = s phase, R[q,p] = -s conj(phase), phase the unit phase of
    # a[p,q]; a <- R^dag a R, v <- v R where |a[p,q]| is at least the smallest
    # normal double.  coef: per output part, the factor of each arrangement:
    # c, the zeros of its real-by-complex product, ur and (-ui, ui) of u =
    # (s conj(phase), s phase) for the columns, reversed for the rows.
    coef = np.empty((4, 2, 2, w.shape[-1]))
    coef[1] = _ZEROS
    rows = w.swapaxes(0, 1)
    for p, q, reads in _pairs(n):
        if not w[p, q].any():
            continue
        mag = np.hypot(*w[p, q])
        rotating = mag >= _SMALLEST_NORMAL
        count = np.count_nonzero(rotating)
        if not count:
            continue
        sel = slice(None)
        if count < len(rotating):
            sel = np.flatnonzero(rotating)
            mag = mag[sel]
        phase = w[p, q][:, sel] / mag
        tau = (w[q, q, 0, sel] - w[p, p, 0, sel]) / (2.0 * mag)
        # |tau| + hypot(1, tau) overflows when |a[p,q]| nears the smallest normal: t = 0.
        with np.errstate(over="ignore"):
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        z = _CONJ_AND_PHASE * phase
        u = s * z + _ZEROS * z[:, ::-1]
        cf = coef[..., :len(c)]
        cf[0], cf[2], cf[3] = c, u[:, :1], u[:, 1:] * _MINUS_PLUS
        w[:, p:q + 1:q - p, :, sel] = _turn(w[:, reads, _PART_READ][..., sel], cf)
        turned = _turn(rows[:, reads, _PART_READ][..., sel], cf[:, ::-1])
        turned[q, 0] = turned[p, 1] = turned[p, 0, 1] = turned[q, 1, 1] = 0.0
        rows[:, p:q + 1:q - p, :, sel] = turned


def _jacobi(matrices, vectors: bool):
    """hermitian_eigensystem, or only its eigenvalues."""
    m = planes(matrices)
    n, lead = len(m.re), m.re.shape[2:]
    k = math.prod(lead)
    re, im = m.re.reshape(n, n, k), m.im.reshape(n, n, k)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise NotHermitian("matrix has entries that are not finite")
    if not is_hermitian(Planes(re, im)):
        raise NotHermitian(f"matrix is not Hermitian within {HERMITICITY_TOL:g}")
    norms = _frobenius(re, im)
    if not np.isfinite(norms).all():
        raise NoConvergence("Frobenius norm of a finite matrix overflows")
    thresholds = OFF_DIAGONAL_TARGET * np.maximum(1.0, norms)

    diagonal = np.arange(n)
    w = np.zeros((2 * n if vectors else n, n, 2, k))
    w[:n, :, 0], w[:n, :, 1] = re, im
    if vectors:
        w[n + diagonal, diagonal, 0] = 1.0
    live = np.arange(k)
    for sweeps in range(SWEEP_BUDGET + 1):
        off_norms = _frobenius(w[:n, :, 0], w[:n, :, 1], off=True)[live]
        above = off_norms > thresholds[live]
        live = live[above]
        if not live.size:
            break
        if sweeps == SWEEP_BUDGET:
            raise NoConvergence(f"off-diagonal norm {off_norms[above][0]:g} above "
                                f"{thresholds[live[0]]:g} after {SWEEP_BUDGET} sweeps")
        work = np.take(w, live, axis=-1)  # stack-last in memory, as w[..., live] is not
        _sweep(work, n)
        w[..., live] = work

    values = w[diagonal, diagonal, 0].T
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1).reshape(lead + (n,))
    if not vectors:
        return values
    v = np.empty((k, n, n), dtype=complex)
    v.real, v.imag = np.take_along_axis(np.moveaxis(w[n:], (2, 3), (0, 1)),
                                        order[None, :, None], axis=-1)
    return values, v.reshape(lead + (n, n))


def hermitian_eigensystem(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix, or of each matrix
    of a stack ``(..., n, n)`` or its Planes, by cyclic Jacobi rotations:
    ``(w, v)`` of shapes ``(..., n)`` and ``(..., n, n)``, each ``w``
    ascending, the columns of each ``v`` orthonormal eigenvectors to the
    sweep tolerance (any basis of a degenerate eigenspace).  Each matrix gets
    the bits it would get alone.  Raises NotHermitian if any matrix has a
    non-finite entry or fails the hermiticity precondition, and NoConvergence
    if a Frobenius norm overflows or the sweep budget runs out."""
    return _jacobi(matrices, vectors=True)


def hermitian_eigenvalues(matrices) -> np.ndarray:
    """hermitian_eigensystem(matrices)[0], bit for bit, with the same errors:
    the rotations touch only the matrices, not their eigenvectors."""
    return _jacobi(matrices, vectors=False)


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
    """<state|M|state> of a Hermitian M, s^dag (M s) with mm's products and
    sums: a float, or an array (...) for a stack (..., n, n) or its Planes.
    NotHermitian for a non-finite entry, before any product, and for a value
    that overflows or has an imaginary residue of 1e-12 or more or NaN,
    naming the first in row-major order."""
    s = np.asarray(state, dtype=complex).reshape(-1)
    m = planes(matrices)
    if len(m.re) != s.size:
        raise DimensionMismatch(
            f"state dimension {s.size} does not match matrix dimension {len(m.re)}")
    if not (np.isfinite(s).all() and np.isfinite(m.re).all() and np.isfinite(m.im).all()):
        raise NotHermitian("<s|M|s> of a state or matrix with an entry that is not finite")
    column = s.reshape((1, -1) + (1,) * (m.re.ndim - 2))  # s[k] against M[i, k]
    with np.errstate(over="ignore", invalid="ignore"):
        ms = [_in_order(list(part.swapaxes(0, 1)))  # (M s)[i], summed over k
              for part in _cmul(m.re, m.im, column.real, column.imag)]
        conj = column[0].conj()
        raw_r, raw_i = [_in_order(list(part)).reshape(-1) for part in _cmul(conj.real, conj.imag, *ms)]
    bad = ~(np.isfinite(raw_r) & (np.abs(raw_i) < _IMAG_RESIDUE_TOL))
    if bad.any():
        first = complex(raw_r[bad.argmax()], raw_i[bad.argmax()])
        if not math.isfinite(first.real):
            raise NotHermitian(f"<s|M|s> overflows to {first!r} from finite entries")
        raise NotHermitian(
            f"<s|M|s> has imaginary residue {first.imag:g}; matrix is not Hermitian")
    return lone(raw_r.reshape(m.re.shape[2:]))


def lone(values, kind=float):
    """values as a Python scalar of kind (float or complex) when they are not
    a stack: the lone input's value of a function that also takes stacks."""
    return kind(values) if np.ndim(values) == 0 else values
