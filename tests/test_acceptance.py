"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

import numpy as np

from helpers import max_abs, random_unit, random_xy, square_residual
from relbell.bell import (
    Settings,
    bell_operator,
    bell_terms,
    chsh_zeta,
    max_violation,
    mermin_lambda3,
)
from relbell.cli import main
from relbell.linalg import expectation, hermitian_eigensystem
from relbell.observables import Boost, boost_map, direction_matrix
from relbell.sampling import estimate_bell, exact_bell, joint_distribution, sample
from relbell.scenarios import (
    X_AXIS,
    chsh_collinear_settings,
    com_closed_form_directions,
    epsilon2,
    epsilon3_com,
    lambda_com,
    mermin_collinear_settings,
    mermin_com_settings,
)
from relbell.search import optimize
from relbell.states import ghz_plus, phi_plus
from relbell.verify import run_all_checks

ROOT8 = 2.0 * math.sqrt(2.0)
BETA_GRID = [round(0.01 * i, 2) for i in range(100)]  # 0.00 .. 0.99
CURVE_BETAS = [round(0.1 * i, 1) for i in range(10)] + [0.99]


def _report(criterion, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def _draw_chsh_xy(rng):
    boost = Boost(X_AXIS, rng.uniform(0.0, 0.99))
    return Settings((random_xy(rng), random_xy(rng), random_xy(rng), random_xy(rng)),
                    (boost, boost))


def _draw_mermin_free(rng):
    dirs = [random_unit(rng) for _ in range(6)]
    boosts = [Boost(random_unit(rng), rng.uniform(0.0, 0.99)) for _ in range(3)]
    return Settings(dirs, boosts)


def test_criterion_01_pair_curve_endpoints():
    failures = []
    if abs(epsilon2(0.0) - ROOT8) > 1e-12:
        failures.append(f"epsilon2(0) = {epsilon2(0.0)!r}")
    if abs(epsilon2(1.0) - 2.0) > 1e-12:
        failures.append(f"epsilon2(1) = {epsilon2(1.0)!r}")
    _report("criterion 1: pair curve endpoints 2*sqrt(2) and 2", failures)


def test_criterion_02_pair_curve_matches_spectra():
    failures = []
    state = phi_plus()
    for beta in CURVE_BETAS:
        closed = epsilon2(beta)
        operator = bell_operator(chsh_collinear_settings(beta))
        numeric = max_violation(operator)
        state_value = expectation(state, operator)
        if abs(numeric - closed) > 1e-10:
            failures.append(f"spectrum off at beta={beta}: {numeric} vs {closed}")
        if abs(state_value - closed) > 1e-10:
            failures.append(f"state path off at beta={beta}: {state_value}")
    _report("criterion 2: pair curve equals spectra and state expectation",
            failures)


def test_criterion_03_square_identities():
    failures = []
    rng = np.random.default_rng(1003)
    chsh_worst = 0.0
    for _ in range(1000):
        chsh_worst = max(chsh_worst, square_residual(_draw_chsh_xy(rng)))
    if chsh_worst > 1e-12:
        failures.append(f"two-qubit square residual {chsh_worst:g}")
    mermin_worst = 0.0
    for _ in range(1000):
        mermin_worst = max(mermin_worst, square_residual(_draw_mermin_free(rng)))
    if mermin_worst > 1e-12:
        failures.append(f"three-qubit square residual {mermin_worst:g}")
    _report("criterion 3: square identities on 1000 random settings each",
            failures)


def test_criterion_04_squared_peak_matches_spectrum():
    failures = []
    rng = np.random.default_rng(1003)  # the same draws as criterion 3
    worst_peak = 0.0
    worst_vector = 0.0
    for _ in range(1000):
        settings = _draw_chsh_xy(rng)
        operator = bell_operator(settings)
        square = operator @ operator
        peak = chsh_zeta(settings)
        top = hermitian_eigensystem(square)[0][-1]
        worst_peak = max(worst_peak, abs(top - peak))
        a, a_prime, b, b_prime = settings.directions
        sin_a = math.sin(math.atan2(a[1], a[0]) - math.atan2(a_prime[1], a_prime[0]))
        sin_b = math.sin(math.atan2(b[1], b[0]) - math.atan2(b_prime[1], b_prime[0]))
        indices = (0, 3) if sin_a * sin_b >= 0.0 else (1, 2)
        for index in indices:
            basis = np.zeros(4, dtype=complex)
            basis[index] = 1.0
            worst_vector = max(worst_vector,
                               max_abs(square @ basis - peak * basis))
    if worst_peak > 1e-9:
        failures.append(f"peak residual {worst_peak:g}")
    if worst_vector > 1e-10:
        failures.append(f"eigenstate sign rule residual {worst_vector:g}")
    _report("criterion 4: squared-operator peak closed form and eigenstates",
            failures)


def test_criterion_05_collinear_three_qubit_invariance():
    failures = []
    state = ghz_plus()
    for beta in BETA_GRID:
        value = mermin_lambda3(mermin_collinear_settings(beta))
        if abs(value - 16.0) > 1e-12:
            failures.append(f"peak {value!r} at beta={beta}")
        swapped = expectation(state, bell_operator(
            mermin_collinear_settings(beta).prime_swapped()))
        if abs(abs(swapped) - 4.0) > 1e-10:
            failures.append(f"GHZ magnitude {swapped!r} at beta={beta}")
    _report("criterion 5: collinear three-qubit invariance (peak 16, GHZ 4)",
            failures)


def test_criterion_06_center_of_mass_curve():
    failures = []
    if abs(epsilon3_com(0.0) - 4.0) > 1e-12:
        failures.append("epsilon3(0) != 4")
    if abs(epsilon3_com(1.0) - 2.0) > 1e-12:
        failures.append("epsilon3(1) != 2")
    for beta in BETA_GRID:
        operator = bell_operator(mermin_com_settings(beta))
        top = hermitian_eigensystem(operator @ operator)[0][-1]
        if abs(math.sqrt(top) - epsilon3_com(beta)) > 1e-10:
            failures.append(f"spectral mismatch at beta={beta}")
        if abs(epsilon3_com(beta) ** 2 - lambda_com(beta)) > 1e-12:
            failures.append(f"square consistency at beta={beta}")
    if abs(epsilon3_com(1.0) ** 2 - lambda_com(1.0)) > 1e-12:
        failures.append("square consistency at beta=1")
    _report("criterion 6: center-of-mass curve endpoints, spectra, square",
            failures)


def test_criterion_07_erratum_adjudications():
    failures = []
    checks = {c.check: c for c in run_all_checks()}
    for name in ("ghz-collinear-settings-expectation", "ghz-diagonal-element",
                 "com-primed-coefficient"):
        if name not in checks or checks[name].status != "ERRATUM":
            failures.append(f"missing erratum report {name}")
    # (a) the y-unprimed/x-primed assignment has vanishing GHZ expectation
    as_given = expectation(ghz_plus(),
                           bell_operator(mermin_collinear_settings(0.5)))
    if abs(as_given) > 1e-12:
        failures.append(f"as-given GHZ expectation {as_given!r}")
    # (b) diagonal elements vanish for xy-plane settings
    rng = np.random.default_rng(1007)
    boost = Boost(X_AXIS, 0.7)
    for _ in range(50):
        dirs = [random_xy(rng) for _ in range(3)]
        a, b, c = direction_matrix(boost_map(np.array(dirs), boost.direction, boost.beta))
        operator = np.kron(np.kron(a, b), c)
        if abs(operator[0, 0]) > 1e-14:
            failures.append("nonzero diagonal element")
            break
    # (c) derived primed coefficient matches the boost map; the alternative
    # does not normalize for beta > 0
    for beta in (0.3, 0.8, 0.99):
        effective = mermin_com_settings(beta).effective_directions()
        closed = com_closed_form_directions(beta)
        if max_abs(effective[3] - closed["b_prime_derived"]) > 1e-12:
            failures.append(f"derived coefficient off at beta={beta}")
        if abs(float(np.linalg.norm(closed["b_prime_alt"])) - 1.0) < 1e-6:
            failures.append(f"alternative coefficient unit at beta={beta}")
    _report("criterion 7: erratum adjudications (assignment, diagonal, "
            "primed coefficient)", failures)


def test_criterion_08_observable_contracts():
    failures = []
    rng = np.random.default_rng(1008)
    identity = np.eye(2)
    worst = 0.0
    for _ in range(10 ** 4):
        boost = Boost(random_unit(rng), rng.uniform(0.0, 0.999))
        matrix = direction_matrix(boost_map(random_unit(rng), boost.direction, boost.beta))
        worst = max(worst,
                    max_abs(matrix - matrix.conj().T),
                    abs(complex(np.trace(matrix))),
                    max_abs(matrix @ matrix - identity))
    if worst > 1e-12:
        failures.append(f"matrix contract residual {worst:g}")
    rest_worst = 0.0
    for _ in range(200):
        direction = random_unit(rng)
        rest = boost_map(direction, random_unit(rng), 0.0)
        rest_worst = max(rest_worst, max_abs(rest - direction))
    if rest_worst > 1e-12:
        failures.append(f"beta=0 reduction residual {rest_worst:g}")
    _report("criterion 8: observable contracts on 10^4 random draws", failures)


def test_criterion_09_optimizer():
    failures = []
    for beta in (0.0, 0.5, 0.9):
        _, value = optimize(2, (X_AXIS, X_AXIS), beta, constraint="free_sphere")
        if abs(value - ROOT8) > 1e-5:
            failures.append(f"free two-qubit optimum {value!r} at beta={beta}")
    _, value = optimize(3, (X_AXIS,) * 3, 0.0, constraint="free_sphere")
    if abs(value - 4.0) > 1e-5:
        failures.append(f"free three-qubit optimum {value!r}")
    for beta in (0.0, 0.8):
        _, value = optimize(2, (X_AXIS, X_AXIS), beta, constraint="xy_plane")
        if value < epsilon2(beta) - 1e-6:
            failures.append(f"xy optimum {value!r} below curve at beta={beta}")
        if value > ROOT8 + 1e-9:
            failures.append(f"xy optimum {value!r} above the spectral bound")
    _report("criterion 9: optimizer reaches the known peaks", failures)


def test_criterion_10_monte_carlo():
    failures = []
    shots = 10 ** 6

    settings = chsh_collinear_settings(0.0)
    terms = bell_terms(settings)
    signs = [sign for _, sign, _ in terms]
    state = phi_plus()
    dists = [joint_distribution(state, obs) for _, _, obs in terms]
    for dist in dists:
        if abs(float(dist.probabilities.sum()) - 1.0) > 1e-12:
            failures.append("distribution does not sum to 1")
    exact = exact_bell(dists, signs)
    if abs(exact - ROOT8) > 1e-12:
        failures.append(f"analytic two-qubit value {exact!r}")
    records = [sample(dist, shots, seed=271828, setting_index=i)
               for i, dist in enumerate(dists)]
    estimate, standard_error = estimate_bell(records, signs)
    # 1e-12 covers the float round-off of the analytic reference, which
    # matters only when deterministic outcomes drive the SE to zero
    if abs(estimate - exact) > 5.0 * standard_error + 1e-12:
        failures.append(f"two-qubit estimate {estimate!r} off by more than 5 SE")

    swapped = mermin_collinear_settings(0.5).prime_swapped()
    terms3 = bell_terms(swapped)
    signs3 = [sign for _, sign, _ in terms3]
    ghz = ghz_plus()
    dists3 = [joint_distribution(ghz, obs) for _, _, obs in terms3]
    exact3 = exact_bell(dists3, signs3)
    if abs(exact3 + 4.0) > 1e-12:
        failures.append(f"analytic three-qubit value {exact3!r}")
    for dist, (_, _, obs) in zip(dists3, terms3):
        product = np.kron(np.kron(obs[0], obs[1]), obs[2])
        if abs(dist.correlator() - expectation(ghz, product)) > 1e-12:
            failures.append("distribution correlator off")
    records3 = [sample(dist, shots, seed=271828, setting_index=i)
                for i, dist in enumerate(dists3)]
    estimate3, standard_error3 = estimate_bell(records3, signs3)
    if abs(estimate3 - exact3) > 5.0 * standard_error3 + 1e-12:
        failures.append(f"three-qubit estimate {estimate3!r} off (SE "
                        f"{standard_error3!r})")
    _report("criterion 10: Monte Carlo estimates within 5 standard errors",
            failures)


def test_criterion_11_cli_determinism(tmp_path):
    failures = []
    cases = {
        "sweep": ["sweep", "--scenario", "mermin-com", "--beta-min", "0",
                  "--beta-max", "1", "--beta-step", "0.1", "--format", "json",
                  "--no-meta-time"],
        "verify": ["verify", "--format", "json", "--seed", "9",
                   "--no-meta-time"],
        "optimize": ["optimize", "--beta", "0.4", "--constraint", "xy",
                     "--restarts", "2", "--seed", "21",
                     "--no-meta-time"],
        "sample": ["sample", "--scenario", "chsh-collinear", "--beta", "0.3",
                   "--shots", "20000", "--seed", "33", "--no-meta-time"],
    }
    for name, argv in cases.items():
        first = tmp_path / f"{name}_a.out"
        second = tmp_path / f"{name}_b.out"
        code_a = main(argv + ["--output", str(first)])
        code_b = main(argv + ["--output", str(second)])
        if code_a != 0 or code_b != 0:
            failures.append(f"{name} exited {code_a}/{code_b}")
            continue
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name} output differs between runs")
    _report("criterion 11: CLI commands re-run byte-identically", failures)


def test_criterion_07_report_is_emitted(tmp_path):
    # the erratum report reaches the CLI surface
    out = tmp_path / "verify.json"
    code = main(["verify", "--format", "json", "--output", str(out),
                 "--no-meta-time"])
    failures = []
    if code != 0:
        failures.append(f"verify exited {code}")
    else:
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        statuses = {row["check"]: row["status"] for row in rows}
        if statuses.get("mermin-square-leg-placement") != "ERRATUM":
            failures.append("leg placement erratum missing")
        if statuses.get("pair-correlator-z-term") != "ERRATUM":
            failures.append("z-term erratum missing")
        if any(status == "FAIL" for status in statuses.values()):
            failures.append("verify reported FAIL rows")
    _report("criterion 7 (report): verify command emits the erratum report",
            failures)
