"""Kernel tests: Kronecker products, the Jacobi eigensolver, expectations."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relbell.linalg as linalg
from helpers import (
    max_abs,
    ordered_mm,
    random_hermitian,
    random_unit,
    same_bits,
    scalar_eigensystem,
)
from relbell.errors import DimensionMismatch, NoConvergence, NotHermitian
from relbell.linalg import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expectation,
    hermitian_eigensystem,
    is_hermitian,
    kron,
    state_vector,
)
from relbell.states import phi_plus


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_diagonal_paulis():
    assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_xy_entry():
    # Hand expansion of the 4x4 product: row 0 of sigma_x is (0, 1), so the
    # top-right 2x2 block is sigma_y itself and entry (0, 3) is -i.
    assert kron(SIGMA_X, SIGMA_Y)[0, 3] == -1j


def test_kron_associativity_exact():
    for a, b, c in ((SIGMA_X, SIGMA_Y, SIGMA_Z), (SIGMA_Z, IDENTITY_2, SIGMA_X)):
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
        assert np.array_equal(kron(a, b, c), kron(kron(a, b), c))
        assert np.array_equal(kron(a, b, c, a), np.kron(np.kron(np.kron(a, b), c), a))


#: Real parts of 2x2 entries: exact zeros, and magnitudes from 1e-100 to
#: 1e100, so a three-factor product neither overflows nor loses its zeros.
_entries = st.one_of(st.just(0.0),
                     st.builds(lambda m, e: m * 10.0 ** e,
                               st.floats(-1.0, 1.0), st.integers(-100, 100)))


@st.composite
def _hermitian_2x2(draw):
    d0, d1, re, im = (draw(_entries) for _ in range(4))
    return np.array([[d0, complex(re, im)], [complex(re, -im), d1]])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_hermitian_2x2(), b=_hermitian_2x2(), c=_hermitian_2x2())
def test_kron_is_bit_identical_to_numpy(a, b, c):
    # Bit identity, not closeness: every operator, and with it every golden
    # output, is assembled by kron, for any number of factors.
    ab = np.kron(a, b)
    assert same_bits(kron(a, b), ab)
    assert same_bits(kron(a, b, c), np.kron(ab, c))
    assert same_bits(kron(a), a)
    assert same_bits(kron(ab, c), np.kron(ab, c))
    assert same_bits(kron(c, ab), np.kron(c, ab))
    # joint_distribution starts its projector product from a 1x1 identity.
    one = np.array([[1.0]], dtype=complex)
    assert same_bits(kron(one, a), np.kron(one, a))
    assert same_bits(kron(kron(one, a), b), np.kron(np.kron(one, a), b))
    # Stacks along a leading axis, as a sweep grid builds its operators:
    # every row carries np.kron's bits of its own factors, and a single
    # matrix broadcasts against a stack.
    x, y, z = np.stack([a, b, c]), np.stack([b, c, a]), np.stack([c, a, b])
    stacked2, stacked3 = kron(x, y), kron(x, y, z)
    assert stacked2.shape == (3, 4, 4) and stacked3.shape == (3, 8, 8)
    for r in range(3):
        assert same_bits(stacked2[r], np.kron(x[r], y[r]))
        assert same_bits(stacked3[r], np.kron(np.kron(x[r], y[r]), z[r]))
        assert same_bits(kron(a, y)[r], np.kron(a, y[r]))
        assert same_bits(kron(a, y, c)[r], np.kron(np.kron(a, y[r]), c))
    assert kron(x[:0], y[:0]).shape == (0, 4, 4)


def _numpy_kron_calls(path):
    """Line numbers of np.kron / numpy.kron references and numpy kron imports."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "kron"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
              and any(alias.name == "kron" for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_only_linalg_calls_numpy_kron():
    # kron is the package's one Kronecker kernel: the fast path stays the
    # only path, and tracing it sees every product.
    package = Path(linalg.__file__).parent
    offenders = {path.name: _numpy_kron_calls(path)
                 for path in sorted(package.glob("*.py")) if path.name != "linalg.py"}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


#: Attribute names of numpy's contractions, each summing in an order of its
#: own or BLAS's choosing.
_CONTRACTIONS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}
_BETA_SQUARED = ast.dump(ast.parse("beta * beta", mode="eval").body)


def _numpy_imports(node) -> list[str]:
    """The dotted names an import statement takes from numpy."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.split(".")[0] != "numpy":
            return []
        return [f"{module}.{alias.name}" for alias in node.names]
    return [alias.name for alias in node.names if alias.name.split(".")[0] == "numpy"]


def _unowned_products(source: str) -> list[int]:
    """Line numbers, in order, of every product not left to its owner: @ and
    @=, a contraction attribute (np.dot, x.dot, np.linalg, ...) or numpy
    import, all of which linalg.mm replaces, and 1 - beta * beta outside a
    function named shrink_sq."""
    tree = ast.parse(source)
    owned = {id(node) for function in ast.walk(tree)
             if isinstance(function, ast.FunctionDef) and function.name == "shrink_sq"
             for node in ast.walk(function)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _CONTRACTIONS:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                part in _CONTRACTIONS for name in _numpy_imports(node) for part in name.split(".")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
              and isinstance(node.left, ast.Constant) and node.left.value == 1
              and ast.dump(node.right) == _BETA_SQUARED
              and id(node) not in owned):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_product_guard_sees_a_planted_product():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nimport numpy.linalg\n"
              "from .linalg import mm\nfrom numpy import einsum\n"
              "def f(a, b, beta):\n    c = a @ b\n    c @= b\n    np.dot(a, b)\n"
              "    a.dot(b)\n    np.linalg.norm(a)\n    np.einsum('ij,jk', a, b)\n"
              "    return 1.0 - beta * beta, 4.0 - beta * beta, 1.0 - r * r\n"
              "def shrink_sq(beta):\n    return 1.0 - beta * beta\n")
    assert _unowned_products(source) == [2, 3, 5, 7, 8, 9, 10, 11, 12, 13]


def test_every_product_has_one_owner():
    # linalg.mm sums every matrix and inner product in a fixed order, so no
    # BLAS kernel picked for the CPU decides an output's bits, and shrink_sq
    # is the one spelling of 1 - beta^2.
    package = Path(linalg.__file__).parent
    offenders = {path.name: _unowned_products(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


#: mm's entries: signed zeros, infinities, and magnitudes from 1e-30 to 1e30,
#: so no sum of eight finite products overflows or leaves the normal range.
_mm_entries = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                        st.builds(lambda m, e: m * 10.0 ** e,
                                  st.floats(-1.0, 1.0), st.integers(-30, 30)))


@st.composite
def _mm_operands(draw):
    """a (..., n, k) and b (..., k, m) with broadcasting leading axes, each
    real or complex, k from 1 to 8."""
    n, k, m = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    lead_a, lead_b = draw(st.sampled_from([((), ()), ((2,), ()), ((), (3,)), ((2, 1), (3,)),
                                           ((1,), (2,))]))

    def operand(shape):
        size = math.prod(shape)
        parts = [np.reshape(draw(st.lists(_mm_entries, min_size=size, max_size=size)), shape)
                 for _ in range(1 + draw(st.booleans()))]
        if len(parts) == 1:
            return parts[0]
        out = np.empty(shape, dtype=complex)
        out.real, out.imag = parts
        return out

    return operand(lead_a + (n, k)), operand(lead_b + (k, m))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(operands=_mm_operands())
def test_mm_sums_each_entry_in_order_from_the_first_term(operands):
    a, b = operands
    with np.errstate(over="ignore", invalid="ignore"):
        got = linalg.mm(a, b)
        reference = np.matmul(a, b)
        scale = np.matmul(np.abs(a), np.abs(b))
    assert got.shape == reference.shape and got.dtype == reference.dtype
    # Bit for bit against the scalar loop, signed zeros and NaNs included.
    assert same_bits(got, ordered_mm(a, b))
    # np.matmul, an independent oracle that may sum in another order: where
    # it is finite, within (k + 2) eps of the sum of the products'
    # magnitudes; for real operands, the same infinities and NaNs too.  (A
    # complex BLAS kernel arranges its real products otherwise, and can turn
    # an infinite part into NaN: [[0, 1+1j]] times [[0], [inf]] gives nan+infj.)
    finite = np.isfinite(reference)
    bound = (a.shape[-1] + 2) * np.finfo(float).eps * scale[finite]
    assert np.all(np.abs(got[finite] - reference[finite]) <= bound)
    if not np.iscomplexobj(reference):
        assert np.array_equal(got[~finite], reference[~finite], equal_nan=True)


def test_mm_refuses_mismatched_inner_sizes():
    with pytest.raises(DimensionMismatch, match="cannot multiply"):
        linalg.mm(np.ones((2, 3)), np.ones((2, 3)))


def test_eigensystem_sigma_z():
    w, v = hermitian_eigensystem(SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    assert max_abs(v @ v.conj().T - np.eye(2)) < 1e-12


def test_eigensystem_identity():
    w, _ = hermitian_eigensystem(np.eye(4))
    assert np.array_equal(w, np.ones(4))


def test_eigensystem_diagonal_readoff():
    # Oracle: the matrix is diagonal, so its spectrum is the sorted diagonal.
    m = kron(SIGMA_Z, SIGMA_Z)
    expected = np.sort(np.diag(m).real)
    w, _ = hermitian_eigensystem(m)
    assert np.allclose(w, expected, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_eigensystem_reconstruction_random(dim):
    rng = np.random.default_rng(901 + dim)
    for _ in range(25):
        m = random_hermitian(rng, dim)
        w, v = hermitian_eigensystem(m)
        assert np.all(np.diff(w) >= 0.0)
        assert max_abs(v @ np.diag(w) @ v.conj().T - m) < 1e-10
        assert max_abs(v.conj().T @ v - np.eye(dim)) < 1e-11
        for k in range(dim):
            assert max_abs(m @ v[:, k] - w[k] * v[:, k]) < 1e-11
        # independent route: LAPACK spectrum
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-10)


def test_eigensystem_unit_direction_spectrum():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = random_unit(rng)
        m = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        w, _ = hermitian_eigensystem(m)
        assert abs(w[0] + 1.0) < 1e-12 and abs(w[1] - 1.0) < 1e-12


def test_eigensystem_subnormal_off_diagonal():
    # 1 / 1e-310 overflows, so the phase of such an entry cannot be taken;
    # the entry is far below the stopping threshold and is left in place
    # while the normal-sized entry is rotated away.
    m = np.array([[1.0, 0.5, 1e-310j],
                  [0.5, 2.0, 0.0],
                  [-1e-310j, 0.0, 3.0]])
    w, v = hermitian_eigensystem(m)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
    assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-14)
    assert max_abs(v @ np.diag(w) @ v.conj().T - m) < 1e-14


@st.composite
def _hermitian_spectra(draw):
    """(matrix, kind): U diag(w) U^dag for a seeded random unitary U, with a
    generic, degenerate (at most three distinct levels) or clustered
    (gaps of 1e-10) spectrum w, scaled down, as is, or up to large norm."""
    dim = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(("generic", "degenerate", "clustered")))
    if kind == "generic":
        w = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    elif kind == "degenerate":
        levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
        w = [levels[i % len(levels)] for i in range(dim)]
    else:
        center = draw(st.floats(-1.0, 1.0))
        w = [center + 1e-10 * i for i in range(dim)]
    scale = draw(st.sampled_from((1e-6, 1.0, 1e8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (q * (scale * np.array(w))) @ q.conj().T
    return 0.5 * (m + m.conj().T), kind


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_hermitian_spectra())
def test_eigensystem_matches_lapack(case):
    m, kind = case
    w, v = hermitian_eigensystem(m)
    norm = max(1.0, float(np.linalg.norm(m, 2)))
    assert max_abs(w - np.linalg.eigvalsh(m)) <= 1e-12 * norm, kind
    assert max_abs(v.conj().T @ v - np.eye(len(m))) < 1e-11, kind


#: How a member of a stack is drawn: dense at one scale, dense with every
#: entry at its own scale, with about half its off-diagonal pairs zero,
#: already diagonal, or with about half its off-diagonal pairs subnormal.
#: The members of one stack therefore need different numbers of sweeps.
_MEMBER_KINDS = ("dense", "mixed", "sparse", "diagonal", "subnormal")


def _stack_member(rng, dim, kind):
    scale = 10.0 ** rng.integers(-100, 101)
    if kind == "mixed":
        scale = 10.0 ** rng.integers(-100, 101, size=(dim, dim))
    x = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if kind == "sparse":
        x = x * np.triu(rng.integers(0, 2, size=(dim, dim)))
    elif kind == "diagonal":
        x = np.diag(np.diag(x))
    elif kind == "subnormal":
        tiny = np.triu(rng.integers(0, 2, size=(dim, dim)), 1) == 1
        x = np.where(tiny, 1e-310 * rng.normal(size=(dim, dim)), np.triu(x))
    return x + x.conj().T


@st.composite
def _hermitian_stacks(draw):
    """A (k, d, d) stack of Hermitian matrices, d = 2, 4 or 8, entries from
    1e-100 to 1e100 (and subnormal ones), one member kind each."""
    dim = draw(st.sampled_from((2, 4, 8)))
    kinds = draw(st.lists(st.sampled_from(_MEMBER_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.stack([_stack_member(rng, dim, kind) for kind in kinds])


def _solve_stack(stack):
    """(w, v) of every matrix of the stack, in stack order, from one call."""
    w, v = hermitian_eigensystem(stack)
    return list(zip(w, v))


def _near_underflow_pivot():
    """A live matrix whose (0, 1) entry is the smallest normal double,
    against a diagonal gap of 4."""
    m = np.diag([-2.0, 2.0, 0.0, 0.0]).astype(complex)
    m[0, 1] = m[1, 0] = np.finfo(float).tiny
    m[1, 2] = m[2, 1] = 1.0
    return m


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(stack=_hermitian_stacks())
@example(stack=np.stack([_near_underflow_pivot(), np.eye(4, dtype=complex)]))
def test_eigensystem_matches_scalar_oracle(stack):
    # Bit identity, not closeness: every sweep and verify residual, and with
    # them the golden outputs, come from these eigenvalues.
    for matrix, (w, v) in zip(stack, _solve_stack(stack)):
        want_w, want_v = scalar_eigensystem(matrix)
        assert same_bits(w, want_w) and same_bits(v, want_v)


#: Half-width, in ulps of the threshold, of the band around an exact tie
#: where the kernel's stop decision may differ from the oracle's.  The kernel
#: sums squares with np.add.reduce, the oracle takes np.linalg.norm; on
#: 20,000 random matrices per dimension (2, 4, 8) the two differed by at most
#: 2 ulps, so an off-diagonal norm and its threshold can move toward each
#: other by at most about 4 ulps.  The band is twice that.
_TIE_BAND_ULPS = 8


@st.composite
def _near_threshold_stacks(draw):
    """A (k, d, d) Hermitian stack, d = 2, 4 or 8, whose members' off-diagonal
    parts are rescaled so that the oracle's off-diagonal norm is a drawn
    ratio in [0.5, 2] of its stopping threshold."""
    dim = draw(st.sampled_from((2, 4, 8)))
    ratios = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = []
    for ratio in ratios:
        diagonal = np.diag(10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=dim))
        x = np.triu(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 1)
        off = x + x.conj().T
        threshold = linalg.OFF_DIAGONAL_TARGET * max(1.0, float(np.linalg.norm(diagonal)))
        members.append(diagonal + ratio * threshold / float(np.linalg.norm(off)) * off)
    return np.stack(members)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stack=_near_threshold_stacks())
def test_eigensystem_stop_rule_matches_scalar_oracle_near_threshold(stack):
    # Members below the threshold stop before any sweep, members above it
    # sweep: a stop decision that differed from the oracle's would change
    # the eigenvectors' bits.  Only a member within the stated band of an
    # exact tie is left out.
    for matrix, (w, v) in zip(stack, _solve_stack(stack)):
        threshold = linalg.OFF_DIAGONAL_TARGET * max(1.0, float(np.linalg.norm(matrix)))
        off_norm = float(np.linalg.norm(matrix - np.diag(np.diag(matrix))))
        if abs(off_norm - threshold) <= _TIE_BAND_ULPS * np.spacing(threshold):
            continue
        want_w, want_v = scalar_eigensystem(matrix)
        assert same_bits(w, want_w) and same_bits(v, want_v)


def test_eigensystem_stack_rejects_one_non_hermitian_member():
    stack = np.stack([SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z])
    with pytest.raises(NotHermitian):
        _solve_stack(stack)


def test_eigensystem_stack_sweep_budget(monkeypatch):
    monkeypatch.setattr(linalg, "SWEEP_BUDGET", 0)
    with pytest.raises(NoConvergence):
        _solve_stack(np.stack([SIGMA_Z, SIGMA_X]))


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensystem_sweep_budget(monkeypatch):
    monkeypatch.setattr(linalg, "SWEEP_BUDGET", 0)
    with pytest.raises(NoConvergence):
        hermitian_eigensystem(SIGMA_X)


def test_eigensystem_refuses_overflowing_norm():
    # Every entry is finite but the Frobenius norm is not, so no threshold
    # can be set; the true eigenvalues are +/-1.414e308, not the diagonal.
    huge = np.array([[1e308, 1e308], [1e308, -1e308]])
    for matrices in (huge, np.stack([SIGMA_X, huge, SIGMA_Z])):
        with pytest.raises(NoConvergence):
            hermitian_eigensystem(matrices)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_eigensystem_refuses_non_finite_entries(bad):
    # Refused before any arithmetic touches the entry, so no RuntimeWarning
    # (an error in this suite) precedes the exception.
    matrix = np.array([[1.0, bad], [bad, 2.0]])
    for matrices in (matrix, np.stack([SIGMA_Z, matrix])):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(matrices)


@pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 8, 8)])
def test_eigensystem_empty_stack(shape):
    w, v = hermitian_eigensystem(np.zeros(shape, dtype=complex))
    assert w.shape == shape[:-1] and v.shape == shape
    assert w.dtype == np.float64 and v.dtype == np.complex128


@pytest.mark.parametrize("shape", [(4,), (2, 3), (3, 2, 3), (0, 0), (3, 0, 0)])
def test_eigensystem_refuses_matrices_that_are_not_square(shape):
    # A stack may hold no matrix, but a matrix needs a dimension of 1 or more.
    with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
        hermitian_eigensystem(np.zeros(shape))


_NUMPY_EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")


def _numpy_eigensolver_calls(path):
    """Line numbers of numpy.linalg eigensolver references and imports."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _NUMPY_EIGENSOLVERS:
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
              and any(alias.name in _NUMPY_EIGENSOLVERS for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_no_module_calls_a_numpy_eigensolver():
    # The Jacobi kernel is the package's only eigensolver, so every spectrum
    # is independent of LAPACK (LAPACK is only a test oracle).
    package = Path(linalg.__file__).parent
    offenders = {path.name: _numpy_eigensolver_calls(path)
                 for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in offenders.items() if lines} == {}


def test_expectation_basis():
    zero_zero = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert expectation(zero_zero, kron(SIGMA_Z, SIGMA_Z)) == 1.0


def test_expectation_phi_plus():
    state = phi_plus()
    for matrix, expected in ((kron(SIGMA_X, SIGMA_X), 1.0),
                             (kron(SIGMA_Y, SIGMA_Y), -1.0)):
        # matrix-vector oracle
        oracle = complex(np.conj(state) @ (matrix @ state)).real
        assert abs(oracle - expected) < 1e-12
        assert abs(expectation(state, matrix) - expected) < 1e-12


def test_expectation_identity_is_one():
    rng = np.random.default_rng(5)
    for dim in (4, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        assert abs(expectation(v, np.eye(dim)) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expectation(phi_plus(), SIGMA_Z)


def test_expectation_flags_imaginary_residue():
    skew = np.array([[0.0, 1.0j], [1.0j, 0.0]])  # not Hermitian
    state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    with pytest.raises(NotHermitian):
        expectation(state, skew)


def test_expectation_rejects_nan_input():
    # A NaN product has a NaN imaginary part, which must fail the residue
    # check instead of passing through as a NaN expectation.
    with pytest.raises(NotHermitian):
        expectation(np.array([math.nan, 0.0, 0.0, 0.0]), np.eye(4))
    with pytest.raises(NotHermitian):
        expectation(phi_plus(), np.diag([math.nan, 0.0, 0.0, 0.0]))


def test_expectation_rejects_infinite_input_before_the_product():
    # inf * 0 in the product would warn (an error in this suite) before the
    # residue check could raise.
    with pytest.raises(NotHermitian):
        expectation(np.array([math.inf, 0.0, 0.0, 0.0]), np.eye(4))
    with pytest.raises(NotHermitian):
        expectation(phi_plus(), np.diag([math.inf, 0.0, 0.0, 0.0]))


def test_expectation_refuses_an_overflowing_value():
    # Finite entries whose <s|M|s> overflows, alone or as one matrix of a
    # stack: the value used to come back as inf, or the product's overflow
    # warned (an error in this suite) before any check.
    huge = np.full((4, 4), 1e308)
    for state in (phi_plus(), np.full(4, 0.5)):
        for matrices in (huge, np.stack([np.eye(4), huge])):
            with pytest.raises(NotHermitian, match="overflows"):
                expectation(state, matrices)


def test_expectation_of_a_stack_is_each_matrix_expectation():
    # One value per matrix, bit for bit; one non-Hermitian matrix fails the
    # whole stack.
    rng = np.random.default_rng(8)
    for dim in (4, 8):
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        stack = np.reshape([random_hermitian(rng, dim) for _ in range(6)], (2, 3, dim, dim))
        values = expectation(state, stack)
        assert values.shape == (2, 3)
        for index in np.ndindex(2, 3):
            assert values[index] == expectation(state, stack[index])
        stack[1, 2, 0, 1] += 1.0j
        with pytest.raises(NotHermitian):
            expectation(state, stack)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([2, 4, 8]), shape=st.sampled_from([(), (1,), (3,), (2, 5)]),
       seed=st.integers(0, 2 ** 64 - 1))
def test_expectation_is_each_matrix_fixed_order_sum_bit_for_bit(dim, shape, seed):
    # The stacked inner products s^dag (M s) against each matrix's products
    # summed in order from the first term, one entry at a time.
    rng = np.random.default_rng(seed)
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    stack = np.reshape([random_hermitian(rng, dim) for _ in range(math.prod(shape))],
                       shape + (dim, dim))
    want = np.reshape([ordered_mm(state.conj()[None], ordered_mm(matrix, state[:, None]))[0, 0].real
                       for matrix in stack.reshape(-1, dim, dim)], shape)
    values = np.asarray(expectation(state, stack), dtype=float)
    assert values.shape == shape
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))


def test_expectation_names_the_first_bad_value_of_a_stack():
    # An imaginary residue of 0.5 before an overflow, and an overflow before
    # a residue of 2: each error names the first in row-major order.
    state = np.full(4, 0.5, dtype=complex)
    half, two = (1.0 + 0.5j) * np.eye(4), (1.0 + 2.0j) * np.eye(4)
    huge = np.full((4, 4), 1e308)
    with pytest.raises(NotHermitian, match="imaginary residue 0.5"):
        expectation(state, np.stack([np.eye(4), half, huge, two]))
    with pytest.raises(NotHermitian, match="overflows"):
        expectation(state, np.stack([np.eye(4), huge, two]))
    with pytest.raises(NotHermitian, match="imaginary residue 2"):
        expectation(state, np.stack([[np.eye(4), two], [half, huge]]))


def test_predicates():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_vector_validation():
    v = state_vector(phi_plus())
    assert v.size == 4
    with pytest.raises(ValueError):
        state_vector(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        state_vector(np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_state_vector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not normalized"):
        state_vector([bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not normalized"):
        state_vector([1.0, 0.0, 0.0, bad * 1j, 0.0, 0.0, 0.0, 0.0])


def test_eigensystem_takes_a_near_underflow_rotation_without_overflow():
    # |tau| + hypot(1, tau) overflows to inf, and the rotation angle must
    # come out as its limit 0, with no warning.
    m = _near_underflow_pivot()
    w, v = hermitian_eigensystem(m)
    want_w, want_v = scalar_eigensystem(m)
    assert same_bits(w, want_w) and same_bits(v, want_v)
    assert max_abs(w - np.linalg.eigvalsh(m)) <= 1e-12
