"""Every value class of the package is a `Record`: it pickles back to an
equal value, refuses a wrong field count, and refuses assignment."""
import pickle

import pytest

from shallowfp import analysis, circuit, coeffsets, optimize
from shallowfp.record import Record
from shallowfp.zmod import PrimeModulus


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
    gate = circuit.Gate("ry", 1, 0.5, ((0, True),))
    return {
        coeffsets.CoefficientSet: K,
        coeffsets.GapFingerprint: coeffsets.gen_gap(1013, 3, seed=1),
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
    assert hash(back) == hash(value)  # equal values hash equally
    fields = value._fields()
    with pytest.raises(TypeError):
        cls(*fields, None)
    if cls.__init__ is Record.__init__:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], fields[0])


@pytest.mark.parametrize("cls", [coeffsets.CoefficientSet, circuit.Gate,
                                 optimize.DescentConfig], ids=lambda cls: cls.__name__)
def test_repr_evaluates_back_to_the_value(cls):
    value = EXAMPLES[cls]
    names = {"CoefficientSet": coeffsets.CoefficientSet, "PrimeModulus": PrimeModulus,
             "Gate": circuit.Gate, "DescentConfig": optimize.DescentConfig}
    back = eval(repr(value), names)
    assert back == value and back is not value
    if cls is coeffsets.CoefficientSet:
        assert repr(value.p) == "PrimeModulus(1013)" and isinstance(back.p, PrimeModulus)


def test_derived_fields_are_read_from_the_stored_ones():
    comparison = EXAMPLES[optimize.ComparisonRecord]
    general, shallow = comparison.general, comparison.shallow
    assert comparison.ratio == shallow.best_epsilon / general.best_epsilon
    assert general.sweeps_used == len(general.history) - 1
    assert "sweeps_used" not in optimize.DescentResult.__slots__
    assert "ratio" not in optimize.ComparisonRecord.__slots__


def test_equal_coefficient_sets_hash_equally():
    # params is a dict, so the hash leaves it out
    assert hash(coeffsets.gen_cyclic(13, 4)) == hash(coeffsets.gen_cyclic(13, 4))
    first, again = coeffsets.gen_gap(1013, 3, seed=1), coeffsets.gen_gap(1013, 3, seed=1)
    assert first == again and hash(first) == hash(again)
    assert len({first.expanded, again.expanded, coeffsets.gen_cyclic(13, 4)}) == 2
