"""Shared helpers for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import relbell
from relbell.bell import (
    Settings,
    bell_operator,
    chsh_in_plane_terms,
    chsh_zeta,
    effective_observables,
    square_closed_form,
)
from relbell.errors import DomainError, DomainRestriction, NoConvergence, NotHermitian
from relbell.linalg import (
    HERMITICITY_TOL,
    OFF_DIAGONAL_TARGET,
    SIGMA_Z,
    SWEEP_BUDGET,
    is_hermitian,
    kron,
)
from relbell.observables import Boost, unit3
from relbell.scenarios import X_AXIS
from relbell.search import _value
from relbell.verify import BETA_SAMPLES


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a child interpreter on args, with relbell importable from the same
    sources as in this process; stdout and stderr are captured as bytes."""
    src = str(Path(relbell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


# The verify battery's random samples, built one Settings or Boost at a time
# as the battery once built them: the oracle of the stream order its array
# draws must keep, bit for bit.

def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / math.sqrt(ordered_sum(v * v))


def random_xy(rng) -> np.ndarray:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([math.cos(t), math.sin(t), 0.0])


def random_chsh(rng, in_plane: bool) -> Settings:
    if in_plane:
        boost = Boost(X_AXIS, rng.uniform(0.0, 0.99))
        return Settings([random_xy(rng) for _ in range(4)], (boost, boost))
    return Settings([random_unit(rng) for _ in range(4)],
                    [Boost(random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(2)])


def random_mermin(rng, in_plane: bool) -> Settings:
    if in_plane:
        boosts = [Boost(random_xy(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [random_xy(rng) for _ in range(6)]
    else:
        boosts = [Boost(random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
        dirs = [random_unit(rng) for _ in range(6)]
    return Settings(dirs, boosts)


def random_chsh_xy_grid(rng) -> list[Settings]:
    """40 random xy-plane settings under x boosts at each of BETA_SAMPLES."""
    samples = []
    for beta in BETA_SAMPLES:
        boost = Boost(X_AXIS, beta)
        samples += [Settings([random_xy(rng) for _ in range(4)], (boost, boost))
                    for _ in range(40)]
    return samples


def random_xy_rows(rng, per_sample: int):
    """100 samples of per_sample random xy directions at each of beta = 0,
    0.5, 0.9 under x boosts, as boost_map takes them: (300, per_sample, 3)
    directions, the x axis and (300, 1) speeds."""
    directions, speeds = [], []
    for beta in (0.0, 0.5, 0.9):
        boost = Boost(X_AXIS, beta)
        for _ in range(100):
            directions.append([unit3(random_xy(rng)) for _ in range(per_sample)])
            speeds.append([boost.beta])
    return np.array(directions), X_AXIS, np.array(speeds)


def settings_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (S, D, 3) directions, (S, D, 3) boost axes and (S, D) speeds of
    Settings samples, one axis and speed per direction."""
    axes, speeds = zip(*[Settings._axes_and_speeds(s.boosts) for s in samples])
    return np.array([s.directions for s in samples]), np.array(axes), np.array(speeds)


def random_contracts(rng):
    """The observable-contracts row's samples: 2000 boosted (directions,
    axes, speeds), then 100 (directions, axes) at speed 0."""
    (directions, axes), speeds = np.empty((2, 2000, 3)), np.empty(2000)
    for i in range(2000):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        directions[i] = unit3(random_unit(rng))
        axes[i], speeds[i] = boost.direction, boost.beta
    rest_directions, rest_axes = np.empty((2, 100, 3))
    for i in range(100):
        rest_directions[i] = unit3(random_unit(rng))
        rest_axes[i] = Boost(random_unit(rng), 0.0).direction
    return (directions, axes, speeds), (rest_directions, rest_axes)


def random_roundtrip(rng):
    """The effective-direction-roundtrip row's 500 (targets, axes, speeds)."""
    (targets, axes), speeds = np.empty((2, 500, 3)), np.empty(500)
    for i in range(500):
        targets[i] = random_unit(rng)
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.99))
        axes[i], speeds[i] = boost.direction, boost.beta
    return targets, axes, speeds


# The fixed-order sum of linalg.mm, one entry at a time: the oracle of every
# matrix and inner product on an output path.

def ordered_sum(terms):
    """terms added in order from the first: ((t0 + t1) + t2) + ..."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def textbook_product(x, y):
    """x * y for Python floats, or (x.re y.re - x.im y.im) + i (x.re y.im +
    x.im y.re) when either is complex, each operation rounded on its own."""
    if not (isinstance(x, complex) or isinstance(y, complex)):
        return x * y
    x, y = complex(x), complex(y)
    return complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


def ordered_mm(a, b) -> np.ndarray:
    """The matrix product of a (..., n, k) and b (..., k, m), broadcast over
    the leading axes, one entry at a time in Python scalars: the k
    textbook_products of a row and a column, added by ordered_sum."""
    a, b = np.asarray(a), np.asarray(b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    out = np.empty(lead + (a.shape[-2], b.shape[-1]), np.result_type(a, b))
    for *index, i, j in np.ndindex(out.shape):
        row, column = a[(*index, i)].tolist(), b[(*index, slice(None), j)].tolist()
        out[(*index, i, j)] = ordered_sum([textbook_product(x, y) for x, y in zip(row, column)])
    return out


def same_bits(got, want) -> bool:
    """Equal dtype, shape and bytes, so -0.0 and 0.0 differ too."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# The scenario curves one speed at a time, in scalar math: the oracle each
# element of an array call must match bit for bit.

def scalar_epsilon2(beta: float) -> float:
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    return 2.0 * (1.0 + g) / math.sqrt(2.0 - beta * beta)


def scalar_lambda_com(beta: float) -> float:
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return 4.0 * (1.0 + 8.0 * g / math.sqrt(d) + 16.0 * (1.0 - beta * beta) / d)


def scalar_epsilon3_com(beta: float) -> float:
    g = math.sqrt(max(1.0 - beta * beta, 0.0))
    d = (4.0 - beta * beta) * (4.0 - 3.0 * beta * beta)
    return 2.0 * (1.0 + 4.0 * g / math.sqrt(d))


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
                / sqrt(prod_v ((1 - beta^2) + beta^2 v_x^2)),

    and the larger residual is returned."""
    operator = bell_operator(settings)
    square = operator @ operator
    residual = max_abs(square - square_closed_form(effective_observables(settings)))
    try:
        chsh_zeta(settings)
    except (DomainError, DomainRestriction):
        return residual
    shrink_sq, sin_a, sin_b, denom = chsh_in_plane_terms(settings.directions,
                                                         settings.boosts[0].beta)
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


#: The largest double below 1, the fastest boost a Boost admits.
BETA_MAX = math.nextafter(1.0, 0.0)


#: Unit 3-vectors over the whole sphere, for hypothesis property tests.
unit_vectors = st.builds(
    lambda theta, phi: np.array([math.sin(theta) * math.cos(phi),
                                 math.sin(theta) * math.sin(phi),
                                 math.cos(theta)]),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))

#: Boost axes of the three kinds optimal_settings tells apart under the
#: xy_plane constraint: in the xy-plane, along +z or -z, and anywhere.
boost_axes = st.one_of(
    st.builds(lambda phi: np.array([math.cos(phi), math.sin(phi), 0.0]),
              st.floats(0.0, 2.0 * math.pi)),
    st.sampled_from([np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]),
    unit_vectors)

#: The largest Bell value for two and for three particles.
BOUND = {2: 2.0 * math.sqrt(2.0), 3: 4.0}


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
                # |tau| + hypot(1, tau) overflows when |a[p,q]| nears the
                # smallest normal: t = 0, as in the package's kernel.
                with np.errstate(over="ignore"):
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


# The restarted coordinate-ascent search, kept as the oracle that finds no
# setting above the package's constructed optimum.  Directions are
# parametrized by angles (one azimuth per direction in the xy-plane
# constraint, polar plus azimuth on the free sphere).  Each restart starts
# from a jittered grid node and runs coordinate-wise ascent: a coarse scan of
# the jittered grid along one angle, then golden-section refinement of the
# winning bracket, cycling over angles until a full pass improves the
# objective by less than REFINEMENT_TOLERANCE.  Restart streams are seeded
# independently, so results are bit-reproducible.  Every evaluation builds
# the Settings its angles give and scores it with search._value.

#: A restart stops after a pass over every angle that improves the objective
#: by less than this; golden-section refinement stops at its square root.
REFINEMENT_TOLERANCE = 1e-8

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _directions_from_angles(angles: np.ndarray, constraint: str) -> list[np.ndarray]:
    if constraint == "xy_plane":
        return [np.array([math.cos(t), math.sin(t), 0.0]) for t in angles]
    dirs = []
    for k in range(0, angles.size, 2):
        theta, phi = angles[k], angles[k + 1]
        sin_t = math.sin(theta)
        dirs.append(np.array([sin_t * math.cos(phi),
                              sin_t * math.sin(phi),
                              math.cos(theta)]))
    return dirs


def _golden_max(f, lo: float, hi: float, xtol: float):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = f(c)
    fd = f(d)
    while hi - lo > xtol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def _maximize_over_angles(objective, n_angles: int, restarts: int,
                          grid_points: int, seed: int):
    """Shared restart / coordinate-ascent loop.  objective maps an angle
    vector to a float; ties between restarts break on first-found."""
    spacing = 2.0 * math.pi / grid_points
    xtol = math.sqrt(REFINEMENT_TOLERANCE)
    grid = spacing * np.arange(grid_points)

    best_angles = None
    best_value = -math.inf
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        offsets = rng.uniform(0.0, spacing, n_angles)
        start_nodes = rng.integers(0, grid_points, n_angles)
        x = offsets + spacing * start_nodes
        value = objective(x)
        while True:
            pass_start = value
            for k in range(n_angles):
                x, value = _improve_coordinate(objective, x, k, offsets[k],
                                               grid, spacing, xtol, value)
            if value - pass_start < REFINEMENT_TOLERANCE:
                break
        if value > best_value:
            best_value = value
            best_angles = x
    return best_angles, best_value


def _improve_coordinate(objective, x, k, offset, grid, spacing, xtol, current):
    candidates = offset + grid
    best_t = x[k]
    best_v = current
    probe = x.copy()
    for t in candidates:
        probe[k] = t
        v = objective(probe)
        if v > best_v:
            best_t, best_v = t, v

    def line(t):
        probe[k] = t
        return objective(probe)

    refined_t, refined_v = _golden_max(line, best_t - spacing, best_t + spacing, xtol)
    if refined_v > best_v:
        best_t, best_v = refined_t, refined_v
    out = x.copy()
    out[k] = best_t
    return out, best_v


def _angles_per_direction(constraint: str) -> int:
    """One azimuth in the xy-plane; polar and azimuth on the free sphere."""
    return 1 if constraint == "xy_plane" else 2


def coordinate_ascent(boost_directions, beta: float, *, constraint: str,
                      objective: str, restarts: int, grid_points: int, seed: int):
    """The restarted coordinate-ascent search over the 2 n directions of n
    particles, one boost along each of boost_directions at speed beta:
    (settings, value) of the best restart, value being search._value of
    settings."""
    boosts = tuple(Boost(d, beta) for d in boost_directions)

    def build(angles: np.ndarray) -> Settings:
        return Settings(_directions_from_angles(angles, constraint), boosts)

    angles, value = _maximize_over_angles(
        lambda angles: _value(build(angles), objective),
        2 * len(boosts) * _angles_per_direction(constraint), restarts, grid_points, seed)
    return build(angles), value
