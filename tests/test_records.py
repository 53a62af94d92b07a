"""The package's record classes are read-only, and the validated ones refuse
bad input with a fixed type and text.

Plain records: bell.Family, verify.CheckResult and
sampling.OutcomeDistribution.  Validated classes, which check and convert
their input once, on construction: observables.Boost, bell.Settings,
sampling.ShotRecord and scenarios.Scenario.  Scenario is kept for the
benchmark harness alone, so its guard is in test_perfbench_imports.py.
"""

import math
import pickle

import numpy as np
import pytest

from relbell.bell import FAMILIES, Settings
from relbell.errors import DomainError
from relbell.observables import Boost
from relbell.sampling import OutcomeDistribution, ShotRecord
from relbell.verify import PASS, CheckResult

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])

#: Per class: a builder of one valid instance, and the names of its fields.
RECORDS = {
    "Family": (lambda: FAMILIES[2], ("name", "terms", "state")),
    "CheckResult": (lambda: CheckResult("row", PASS, 0.0, 1e-9, ""),
                    ("check", "status", "residual", "tolerance", "detail")),
    "OutcomeDistribution": (lambda: OutcomeDistribution(2, np.full(4, 0.25)),
                            ("n_particles", "probabilities")),
    "Boost": (lambda: Boost(X, 0.5), ("direction", "beta")),
    "Settings": (lambda: Settings((X, Y, X, Y), (Boost(X, 0.3), Boost(Y, 0.6))),
                 ("directions", "boosts")),
    "ShotRecord": (lambda: ShotRecord(np.array([4, 0, 1, 5]), 10), ("counts", "shots")),
}

#: Refusals of the validated classes: (builder, error type, exact text).
REFUSALS = {
    "Boost-direction-length": (lambda: Boost([1.0, 0.0], 0.5), ValueError,
                               "expected 3 components, got 2"),
    "Boost-direction-norm": (lambda: Boost([1.0, 1.0, 0.0], 0.5), ValueError,
                             "not a unit vector: |v|^2 = 2.0"),
    "Boost-speed-one": (lambda: Boost(X, 1.0), DomainError,
                        "boost speed must satisfy 0 <= beta < 1, got 1.0"),
    "Boost-speed-negative": (lambda: Boost(X, -0.5), DomainError,
                             "boost speed must satisfy 0 <= beta < 1, got -0.5"),
    "Boost-speed-nan": (lambda: Boost(X, math.nan), DomainError,
                        "boost speed must satisfy 0 <= beta < 1, got nan"),
    "Settings-directions": (lambda: Settings((X, Y, X), (Boost(X, 0.0),) * 2), DomainError,
                            "settings need 2 or 3 boosts and two directions per "
                            "particle, got 3 directions and 2 boosts"),
    "Settings-boosts": (lambda: Settings((X, Y), (Boost(X, 0.0),)), DomainError,
                        "settings need 2 or 3 boosts and two directions per "
                        "particle, got 2 directions and 1 boosts"),
    "Settings-direction-norm": (lambda: Settings((X, Y, X, 2 * Y), (Boost(X, 0.0),) * 2),
                                ValueError, "not a unit vector: |v|^2 = 4.0"),
    "ShotRecord-sum": (lambda: ShotRecord(np.array([1, 2, 3, 4]), 11), ValueError,
                       "counts do not sum to the number of shots"),
    "ShotRecord-sign": (lambda: ShotRecord(np.array([6, -1, 3, 2]), 10), ValueError,
                        "counts must be non-negative"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_read_only(name):
    build, fields = RECORDS[name]
    record = build()
    before = [getattr(record, field) for field in fields]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert all(getattr(record, field) is value for field, value in zip(fields, before))


@pytest.mark.parametrize("name", REFUSALS)
def test_refusals_keep_their_type_and_text(name):
    build, error, text = REFUSALS[name]
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error
    assert str(refused.value) == text


def test_validated_classes_convert_their_input():
    boost = Boost([0, 1, 0], np.float32(0.5))
    assert type(boost.direction) is np.ndarray and boost.direction.dtype == float
    assert type(boost.beta) is float and boost.beta == 0.5
    assert type(Boost(X, 0).beta) is float
    settings = Settings([[1, 0, 0], Y, X, Y], [boost, boost])
    assert type(settings.directions) is tuple and type(settings.boosts) is tuple
    assert all(type(d) is np.ndarray and d.dtype == float for d in settings.directions)
    assert settings.boosts == (boost, boost)


def test_records_print_their_fields():
    boost = Boost(X, 0.5)
    assert repr(boost) == "Boost(direction=array([1., 0., 0.]), beta=0.5)"
    assert repr(Settings((X,) * 4, (boost, boost))) == (
        f"Settings(directions=({', '.join([repr(X)] * 4)}), boosts=({boost!r}, {boost!r}))")
    assert repr(ShotRecord(np.array([1, 2]), 3)) == "ShotRecord(counts=array([1, 2]), shots=3)"
    assert repr(CheckResult("row", PASS, 0.0, None, "")) == (
        "CheckResult(check='row', status='PASS', residual=0.0, tolerance=None, detail='')")


@pytest.mark.parametrize("name", RECORDS)
def test_records_survive_a_pickle_round_trip(name):
    record = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert repr(copy) == repr(record)
