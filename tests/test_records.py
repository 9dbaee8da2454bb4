"""The immutable value classes: what frozen dataclasses gave, written out.

One sample of each record class checks that equal fields give equal
objects with equal hashes, a changed field an unequal one, and a record of
another class with the same values an unequal one; that no field can be
assigned or deleted; and that pickle, copy and deepcopy give back an equal
object of the same class.
"""

import copy
import pickle

import pytest

from polyprod._record import Record
from polyprod.abelian import ZERO_GRADED, Z_GROUP, FgAbelianGroup, GradedGroup
from polyprod.complexes import SimplicialComplex, make_complex
from polyprod.documents import ComplexDocument
from polyprod.hochster import (
    DualityWitness,
    PieceReport,
    PieceVerdict,
    alexander_duality_witness,
)
from polyprod.homology import FieldCoeff, InducedDegreeMap
from polyprod.spaces import (
    FiniteSpacePair,
    LedgerEntry,
    SpaceHomologyReport,
    SpherePairSystem,
    Verdict,
)
from polyprod.verify import SuiteResult, SuiteSpec, Trial

ONE = GradedGroup(((1, Z_GROUP),))

# each record class with the fields of its sample and one field changed
SAMPLES = [
    (FgAbelianGroup, dict(rank=1, torsion=(2,)), dict(torsion=(4,))),
    (GradedGroup, dict(groups=((1, Z_GROUP),)), dict(groups=((2, Z_GROUP),))),
    (SimplicialComplex, dict(ground=0b111, faces=frozenset({0, 1, 2, 3, 4})),
     dict(ground=0b1111)),
    (ComplexDocument, dict(ground=(1, 2, 3), facets=((1, 2), (3,)), blocks=(2, 1)),
     dict(blocks=(1, 2))),
    (DualityWitness, dict(sigma=0, omega=7, nonfaces=0b10000000, omega_code=7),
     dict(nonfaces=0b11000000)),
    (PieceVerdict, dict(sigma=1, omega=2, lhs=ONE, rhs=ONE), dict(rhs=ZERO_GRADED)),
    (PieceReport, dict(verdicts=(PieceVerdict(1, 2, ONE, ONE),), pairs=27), dict(pairs=9)),
    (FieldCoeff, dict(p=2), dict(p=3)),
    (InducedDegreeMap, dict(matrix=((1, 0),), kernel_dim=1, image_dim=1, cokernel_dim=0),
     dict(kernel_dim=0)),
    (FiniteSpacePair, dict(points=frozenset({1, 2}), sub=frozenset({1})),
     dict(sub=frozenset())),
    (Verdict, dict(ok=False, detail="mismatch"), dict(ok=True)),
    (SpherePairSystem, dict(params=((1, 0), (2, 1))), dict(params=((1, 1), (2, 1)))),
    (LedgerEntry, dict(kind="bar", sigma=1, omega=2, shift=3, source_degree=0,
                       group=Z_GROUP, degree=3), dict(degree=4)),
    (SpaceHomologyReport, dict(hat=ONE, bar=ZERO_GRADED, total=ONE, ledger=()),
     dict(bar=ONE)),
    (Trial, dict(seed=3, suite="dual", ok=False, counterexample="x"), dict(seed=4)),
    (SuiteResult, dict(suite="dual", trials=(Trial(1, "dual", True),)),
     dict(suite="alexander")),
    (SuiteSpec, dict(check=len, trials=10, max_vertices=4, census=True), dict(census=False)),
]


def test_every_record_class_has_a_sample():
    assert len(SAMPLES) == 17
    assert {cls for cls, _, _ in SAMPLES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, fields, change", SAMPLES,
                         ids=[cls.__name__ for cls, _, _ in SAMPLES])
class TestRecord:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls, fields, change):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_a_changed_field_gives_an_unequal_object(self, cls, fields, change):
        assert cls(**fields) != cls(**{**fields, **change})

    def test_another_record_class_with_the_same_values_is_unequal(self, cls, fields,
                                                                   change):
        twin = type(f"Twin{cls.__name__}", (cls,), {})
        a, b = cls(**fields), twin(**fields)
        assert a != b and b != a
        assert not a == b

    def test_no_field_can_be_assigned_or_deleted(self, cls, fields, change):
        record = cls(**fields)
        for name, value in {**fields, **change}.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)

    @pytest.mark.parametrize("clone", [
        lambda record: pickle.loads(pickle.dumps(record)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_a_clone_is_an_equal_object_of_the_same_class(self, cls, fields, change,
                                                          clone):
        record = cls(**fields)
        twin = clone(record)
        assert type(twin) is cls
        assert twin == record


# as the frozen dataclasses printed them
REPRS = [
    (FgAbelianGroup(1, (2,)), "FgAbelianGroup(rank=1, torsion=(2,))"),
    (ONE, "GradedGroup(groups=((1, FgAbelianGroup(rank=1, torsion=())),))"),
    (alexander_duality_witness(make_complex([1, 2, 3], [[1, 2], [3]]), (), (1, 2, 3)),
     "DualityWitness(sigma=0, omega=7)"),
    (FieldCoeff(2), "FieldCoeff(p=2)"),
    (Verdict(True), "Verdict(ok=True, detail='')"),
    (Trial(3, "dual", False, "x"), "Trial(seed=3, suite='dual', ok=False, counterexample='x')"),
    (SuiteResult("dual", (Trial(1, "dual", True), Trial(2, "dual", True))),
     "SuiteResult(suite='dual', trials=TrialLog('dual', [range(1, 3)]))"),
    (ComplexDocument((1, 2), ((1,), (2,))),
     "ComplexDocument(ground=(1, 2), facets=((1,), (2,)), blocks=None)"),
    (FiniteSpacePair.of([1, 2], [1]),
     "FiniteSpacePair(points=frozenset({1, 2}), sub=frozenset({1}))"),
]


@pytest.mark.parametrize("record, text", REPRS,
                         ids=[type(record).__name__ for record, _ in REPRS])
def test_repr_names_the_class_and_its_fields(record, text):
    assert repr(record) == text


def test_a_complex_is_neither_a_tuple_nor_iterable():
    K = SimplicialComplex(0b1, frozenset({0, 1}))
    assert K != (0b1, frozenset({0, 1}))
    with pytest.raises(TypeError):
        iter(K)


class TestBaseConstructor:
    """``Record.__init__`` stores the fields of the records without their own."""

    def test_fields_by_position_by_keyword_and_mixed(self):
        assert Verdict(False, "x") == Verdict(detail="x", ok=False)
        spec = SuiteSpec(len, 1, max_vertices=2, census=True)
        assert (spec.check, spec.trials, spec.max_vertices, spec.census) == (len, 1, 2, True)

    def test_a_trailing_field_left_out_takes_its_default(self):
        assert Verdict(True).detail == ""
        assert SuiteSpec(len, 1, 1).census is False

    @pytest.mark.parametrize("call, message", [
        (lambda: Verdict(True, "", 3), "Verdict() takes 2 fields, got 3"),
        (lambda: Verdict(True, colour="red"), "Verdict() got unknown field 'colour'"),
        (lambda: Verdict(True, ok=False), "Verdict() got repeated field 'ok'"),
        (lambda: SuiteSpec(len, 1), "SuiteSpec() missing field 'max_vertices'"),
    ], ids=["extra-positional", "unknown-keyword", "repeated-field", "missing-field"])
    def test_a_bad_call_raises_type_error_naming_the_class(self, call, message):
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == message

    def test_only_records_that_validate_or_are_built_on_a_hot_path_write_one(self):
        own = {cls.__name__ for cls in Record.__subclasses__() if "__init__" in vars(cls)}
        assert own == {
            # validate their input
            "FgAbelianGroup", "FieldCoeff", "FiniteSpacePair", "SpherePairSystem",
            "ComplexDocument", "SuiteResult",
            # built on a hot path
            "SimplicialComplex", "Trial", "DualityWitness", "GradedGroup",
        }
