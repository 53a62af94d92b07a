"""Boosted spin observables and Bell operators for two and three qubits:
exact small-dimension spectra, closed-form violation curves, settings
optimization and shot-level measurement simulation."""

__version__ = "0.1.0"

from .bell import (
    ChshSettings,
    MerminSettings,
    Settings,
    bell_operator,
    bell_terms,
    chsh_operator,
    chsh_square_identity_residual,
    chsh_zeta,
    max_violation,
    mermin_lambda3,
    mermin_operator,
    mermin_square_closed_form,
    operator_norm,
)
from .errors import (
    BellToolkitError,
    DegenerateObservable,
    DimensionMismatch,
    DomainError,
    DomainRestriction,
    InvalidObservable,
    MissingSetting,
    NoConvergence,
    NotHermitian,
)
from .linalg import expectation, hermitian_eigensystem, kron, state_vector
from .observables import Boost, effective_direction, observable_matrix, unit3
from .sampling import (
    OutcomeDistribution,
    ShotRecord,
    estimate_bell,
    exact_bell,
    joint_distribution,
    sample,
)
from .scenarios import (
    Scenario,
    ScenarioResult,
    com_boosts,
    com_setting_observables,
    epsilon2,
    epsilon3_com,
    lambda_com,
    scenario_curve,
)
from .search import SearchConfig, optimize_chsh, optimize_mermin
from .states import ghz_minus, ghz_plus, phi_plus
from .verify import CheckResult, run_all_checks
