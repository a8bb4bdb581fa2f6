"""Every value class of the package is a `Record`: it pickles back to an
equal value, refuses a wrong field count, and refuses assignment (except
`Circuit`, the mutable gate accumulator)."""
import pickle

import numpy as np
import pytest

from shallowfp import analysis, circuit, coeffsets, optimize, qfa
from shallowfp.record import Record


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _examples() -> dict:
    K = coeffsets.gen_gap(1013, 3, seed=1).expanded
    cfg = optimize.DescentConfig(seed=3)
    general = optimize.coordinate_descent(13, 4, cfg)
    shallow = optimize.coordinate_descent(13, 2, optimize.DescentConfig(3, 100, "shallow"))
    report = analysis.analyze(K)
    gate = circuit.Gate("cry", 1, 0.5, ((0, True),))
    return {
        coeffsets.CoefficientSet: K,
        coeffsets.GapFingerprint: coeffsets.gen_gap(1013, 3, seed=1),
        qfa.QfaState: qfa.QfaState(K, np.ones((K.d, 2))),
        circuit.Gate: gate,
        circuit.Circuit: circuit.Circuit(2, [circuit.Gate("h", 0), gate], "c"),
        analysis.BoundCheck: report.bounds[0],
        analysis.AnalysisReport: report,
        optimize.DescentConfig: cfg,
        optimize.DescentResult: general,
        optimize.ComparisonRecord: optimize.ComparisonRecord(13, 1.0, general, shallow),
    }


EXAMPLES = _examples()


def test_every_record_class_has_an_example():
    assert set(_subclasses(Record)) == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_record_round_trip_count_and_freeze(cls):
    value = EXAMPLES[cls]
    back = pickle.loads(pickle.dumps(value))
    assert back is not value
    if cls is qfa.QfaState:  # == on an array field has no single truth value
        assert back.coefficients == value.coefficients
        assert np.array_equal(back.amplitudes, value.amplitudes)
    else:
        assert back == value
    fields = value._fields()
    with pytest.raises(TypeError):
        cls(*fields, None)
    if cls.__init__ is Record.__init__:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    name = cls.__slots__[0]
    if cls is circuit.Circuit:
        setattr(back, name, 3)
        assert getattr(back, name) == 3
    else:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
