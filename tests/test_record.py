"""The package's records are plain slotted classes (`tgw.record.Record`):
frozen, equal when their fields are equal, and hashed alike then."""
import pytest

from tgw.categorical import TrivialisationCertificate
from tgw.errors import PreconditionError
from tgw.formula import TRUE, Eq, VarRef
from tgw.groupoid import ClopenSet, Refusal, SubGroupoid
from tgw.models import DTuple
from tgw.reconstruction import SortClass
from tgw.rich import DPhiLevel, RichSequence, SectionSchedule
from tgw.theories import CompleteType

SEQ = RichSequence("dlo")
DIAGONAL = Eq(VarRef(0, 0), VarRef(1, 0))


def point(*classes):
    return CompleteType("dlo", 2, 1, tuple(classes), tuple([1] * (max(classes) > 0)))


def dtuple(*elements):
    return DTuple(tuple(elements), tuple([True] * len(elements)))


# record -> a function building its fields afresh, and other fields
RECORDS = {
    CompleteType: (lambda: ("dlo", 2, 1, tuple([0, 1]), tuple([1])),
                   ("dlo", 2, 1, (0, 1), (2,))),
    ClopenSet: (lambda: (SEQ, 2, DIAGONAL, 1), (SEQ, 2, TRUE, 1)),
    SubGroupoid: (lambda: (ClopenSet(SEQ, 2, DIAGONAL, 1),), (ClopenSet(SEQ, 2, TRUE, 1),)),
    Refusal: (lambda: ("symmetric", point(0, 1)), ("symmetric", point(0, 0))),
    DTuple: (lambda: (tuple([0, 1]), tuple([True, False])), ((0, 1), (True, True))),
    SortClass: (lambda: (tuple([dtuple(0), dtuple(1)]),), ((dtuple(0),),)),
    DPhiLevel: (lambda: (DIAGONAL, TRUE), (DIAGONAL, DIAGONAL)),
    SectionSchedule: (lambda: (tuple([3]), tuple([(0, 1)]), tuple([0, 1]), tuple([0, 1, 2])),
                      ((3,), ((0, 1),), (0, 1), (0, 1, 1))),
    TrivialisationCertificate: (lambda: (tuple([0]), tuple([(1, True)]), tuple([(0, 0)])),
                                ((0,), ((1, True),), ((0, None),))),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_and_compared_by_fields(cls):
    fields, other = RECORDS[cls]
    a, b = cls(*fields()), cls(*fields())
    assert a is not b and a == b and hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in cls.__slots__) == fields()
    assert a != cls(*other) and a != fields()
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b
    if cls is ClopenSet:
        # the window check runs on every construction
        with pytest.raises(PreconditionError, match="^y0 outside the 1x1 window$"):
            ClopenSet(SEQ, 1, DIAGONAL, 1)
