"""The benchmark harness reaches into relbell by name: every name that
perfbench/layers.py imports from relbell, and every (module, function) pair
in its TRACED table, must resolve.  The file is parsed, never run.  The
names that only the harness still uses have no use in the package or in the
other tests, and each gives the bits of the general path it duplicates, so
deleting them once the harness drops them touches no program code."""

import ast
import importlib
import itertools
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

import relbell
from helpers import random_unit, same_bits
from relbell.bell import (
    ChshSettings,
    MerminSettings,
    Settings,
    bell_operator,
    bell_terms,
    chsh_operator,
    mermin_operator,
    mermin_terms,
)
from relbell.errors import DomainError
from relbell.linalg import kron, kron3
from relbell.observables import (
    Boost,
    boost_map,
    direction_matrix,
    effective_direction,
    observable_matrix,
    unit3,
)
from relbell.scenarios import SCENARIOS, X_AXIS, Scenario, com_boosts, scenario_curve, sweep
from relbell.search import CONSTRAINTS, OBJECTIVES, optimize, optimize_chsh, optimize_mermin

TESTS = Path(__file__).resolve().parent
LAYERS = TESTS.parent / "perfbench" / "layers.py"
PACKAGE = Path(relbell.__file__).resolve().parent
#: Names kept for the harness alone.
HARNESS_ONLY = {"kron3", "chsh_operator", "mermin_operator", "ChshSettings",
                "MerminSettings", "mermin_terms", "scenario_curve", "Scenario",
                "effective_direction", "observable_matrix", "optimize_chsh",
                "optimize_mermin"}


def _references():
    """(module, name) pairs from layers.py's relbell imports, and from TRACED."""
    imported, traced = set(), []
    for node in ast.walk(ast.parse(LAYERS.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "relbell":
            imported.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            traced = [(f"relbell.{module}", name)
                      for module, name in ast.literal_eval(node.value)]
    return sorted(imported), traced


def _resolves(module_name: str, name: str) -> bool:
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:  # ``from relbell import cli`` names a submodule
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_names_resolve():
    imported, traced = _references()
    assert imported and traced
    missing = [pair for pair in imported + traced if not _resolves(*pair)]
    assert missing == []


def _uses(tree, names):
    """(line, name) of each use of one of names: a plain or attribute name,
    called or not, or an imported name; uses inside the definition of any of
    names are left out."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside or node.name in names
        elif isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom)) and not inside:
            used = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                    else [getattr(node, "id", None) or node.attr])
            found.extend((node.lineno, name) for name in used if name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def test_package_does_not_call_harness_only_names():
    # Neither the package nor any test but this file's uses them.
    paths = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
    uses = {f"{path.parent.name}/{path.name}":
            _uses(ast.parse(path.read_text(encoding="utf-8")), HARNESS_ONLY)
            for path in sorted(paths) if path != Path(__file__).resolve()}
    assert {name: found for name, found in uses.items() if found} == {}


def _boost(rng) -> Boost:
    return Boost(random_unit(rng), float(rng.uniform(0.0, 0.99)))


def _draw(rng, n_particles: int):
    """Random directions and boosts of n_particles."""
    return ([random_unit(rng) for _ in range(2 * n_particles)],
            [_boost(rng) for _ in range(n_particles)])


def _arrays(settings: Settings):
    """What a Settings holds: its directions, boost axes and speeds."""
    return np.array(settings.directions), *Settings._axes_and_speeds(settings.boosts)


def _kron3(rng):
    factors = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    return [(kron3(*factors), kron(*factors))]


def _operator(old, n_particles):
    def case(rng):
        settings = Settings(*_draw(rng, n_particles))
        return [(old(settings), bell_operator(settings))]
    return case


def _settings(old):
    def case(rng):
        directions, boosts = _draw(rng, 2 if old is ChshSettings else 3)
        return [(_arrays(old(*directions, *boosts)), _arrays(Settings(directions, boosts)))]
    return case


def _mermin_terms(rng):
    settings = Settings(*_draw(rng, 3))
    return [(mermin_terms(settings), bell_terms(settings))]


def _scenario_curve(rng):
    # Scenario refuses an unknown kind and a speed outside [0, 1].
    for kind, beta in (("nonsense", 0.5), ("chsh-collinear", 1.5)):
        with pytest.raises(DomainError):
            Scenario(kind, beta)
    betas = (0.0, float(rng.uniform(0.0, 1.0)), 0.99, 1.0)
    return [(scenario_curve(Scenario(kind, beta)),
             next(sweep(build(0.0), [beta], peak)))
            for (kind, (build, peak)), beta in itertools.product(SCENARIOS.items(), betas)]


def test_scenario_is_read_only_and_keeps_its_refusals():
    # test_records.py's guard, for the one record class kept for the harness.
    scenario = Scenario("mermin-com", 0.25)
    for field in ("kind", "beta", "extra"):
        with pytest.raises(AttributeError):
            setattr(scenario, field, None)
        with pytest.raises(AttributeError):
            delattr(scenario, field)
    assert (scenario.kind, scenario.beta) == ("mermin-com", 0.25)
    assert repr(scenario) == "Scenario(kind='mermin-com', beta=0.25)"
    assert repr(pickle.loads(pickle.dumps(scenario))) == repr(scenario)
    # It checks its speed but keeps it as given.
    assert type(Scenario("chsh-collinear", 1).beta) is int
    refusals = {("nonsense", 0.5): "unknown scenario kind 'nonsense'",
                ("chsh-collinear", 1.5): "beta must lie in [0, 1], got 1.5",
                ("chsh-collinear", math.nan): "beta must lie in [0, 1], got nan"}
    for (kind, beta), text in refusals.items():
        with pytest.raises(DomainError) as refused:
            Scenario(kind, beta)
        assert type(refused.value) is DomainError and str(refused.value) == text


def _boosted(old, new):
    def case(rng):
        a, boost = random_unit(rng), _boost(rng)
        bad = 1.5 * a
        with pytest.raises(ValueError) as refused:
            old(bad, boost)
        with pytest.raises(ValueError) as unit3_refused:
            unit3(bad)
        assert str(refused.value) == str(unit3_refused.value)
        return [(old(a, boost), new(boost_map(a, boost.direction, boost.beta)))]
    return case


def _optimizer(old, n_particles):
    def case(rng):
        axes = (X_AXIS, X_AXIS) if n_particles == 2 else com_boosts()
        beta = float(rng.uniform(0.0, 0.99))
        pairs = []
        for constraint, objective in itertools.product(CONSTRAINTS, OBJECTIVES):
            options = dict(constraint=constraint, objective=objective)
            (found, value), (built, peak) = (old(axes, beta, **options),
                                             optimize(n_particles, axes, beta, **options))
            pairs.append(((_arrays(found), value), (_arrays(built), peak)))
        return pairs
    return case


#: Per harness-only name: a case drawing (harness-only result, general
#: result) pairs from a generator.
PARITY = {
    "kron3": _kron3,
    "chsh_operator": _operator(chsh_operator, 2),
    "mermin_operator": _operator(mermin_operator, 3),
    "ChshSettings": _settings(ChshSettings),
    "MerminSettings": _settings(MerminSettings),
    "mermin_terms": _mermin_terms,
    "scenario_curve": _scenario_curve,
    "Scenario": _scenario_curve,
    "effective_direction": _boosted(effective_direction, lambda n: n),
    "observable_matrix": _boosted(observable_matrix, direction_matrix),
    "optimize_chsh": _optimizer(optimize_chsh, 2),
    "optimize_mermin": _optimizer(optimize_mermin, 3),
}


def _assert_same(old, new):
    # Arrays bit for bit; floats, labels and None by repr, so -0.0 and 0.0
    # differ as well.
    if isinstance(new, (tuple, list)):
        assert len(old) == len(new)
        for got, want in zip(old, new):
            _assert_same(got, want)
    elif isinstance(new, np.ndarray):
        assert same_bits(old, new)
    else:
        assert repr(old) == repr(new)


@pytest.mark.parametrize("name", sorted(HARNESS_ONLY))
def test_harness_only_names_give_the_general_bits(name):
    rng = np.random.default_rng(list(name.encode()))
    for _ in range(20):
        for old, new in PARITY[name](rng):
            _assert_same(old, new)
