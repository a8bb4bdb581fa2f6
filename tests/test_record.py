"""Every value class of the package is a `Record`: it pickles back to an
equal value, refuses a wrong field count, and refuses assignment."""
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
        circuit.Circuit: circuit.Circuit(2, (circuit.Gate("h", 0), gate), "c", "deep"),
        analysis.BoundCheck: report.bounds[0],
        analysis.AnalysisReport: report,
        optimize.DescentConfig: cfg,
        optimize.DescentResult: general,
        optimize.ComparisonRecord: optimize.ComparisonRecord(13, general, shallow),
    }


EXAMPLES = _examples()


def test_every_record_class_has_an_example():
    assert set(_subclasses(Record)) == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_record_round_trip_count_and_freeze(cls):
    value = EXAMPLES[cls]
    back = pickle.loads(pickle.dumps(value))
    assert back is not value
    assert back == value
    if cls.__hash__ is not None:  # equal values hash equally
        assert hash(back) == hash(value)
    fields = value._fields()
    with pytest.raises(TypeError):
        cls(*fields, None)
    if cls.__init__ is Record.__init__:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], fields[0])


def test_derived_fields_are_read_from_the_stored_ones():
    comparison = EXAMPLES[optimize.ComparisonRecord]
    general, shallow = comparison.general, comparison.shallow
    assert general.best_point == general.best_set.coefficients
    assert len(general.best_point) == 4
    assert shallow.best_point == shallow.best_set.params["T"]
    assert len(shallow.best_point) == 2
    assert comparison.ratio == shallow.best_epsilon / general.best_epsilon
    assert "best_point" not in optimize.DescentResult.__slots__
    assert "ratio" not in optimize.ComparisonRecord.__slots__


def test_qfa_state_compares_amplitudes_by_value():
    K = coeffsets.gen_cyclic(13, 4)
    amps = np.arange(8.0).reshape(4, 2)
    state = qfa.QfaState(K, amps)
    assert state == qfa.QfaState(K, amps.copy())
    assert state != qfa.QfaState(K, amps + 1.0)
    assert state != qfa.QfaState(coeffsets.gen_cyclic(17, 4), amps.copy())
    with pytest.raises(TypeError):
        hash(state)


def test_equal_coefficient_sets_hash_equally():
    # params is a dict, so the hash leaves it out
    assert hash(coeffsets.gen_cyclic(13, 4)) == hash(coeffsets.gen_cyclic(13, 4))
    first, again = coeffsets.gen_gap(1013, 3, seed=1), coeffsets.gen_gap(1013, 3, seed=1)
    assert first == again and hash(first) == hash(again)
    assert len({first.expanded, again.expanded, coeffsets.gen_cyclic(13, 4)}) == 2
