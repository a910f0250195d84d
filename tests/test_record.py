"""The contract every value record of the package keeps: equality by class
and field values, a hash that follows it, no assignment or deletion, a
repr that names the class, and copies that compare equal."""
import copy
import gc
import pickle

import pytest

from singlink._record import Record
from singlink.families import Cusp, Elliptic
from singlink.invariants import FamilyReduction
from singlink.linalg import AbelianGroup, SnfResult, smith_normal_form
from singlink.sl2z import Sl2Matrix

# (build, another): each call of build makes a new record with the same field
# values; another() makes one that must compare unequal to it
RECORDS = [
    (lambda: Elliptic(3), lambda: Elliptic(4)),
    (lambda: Cusp((2, 3)), lambda: Cusp((3, 2))),
    (lambda: Sl2Matrix(2, 1, 1, 1), lambda: Sl2Matrix(1, 1, 1, 2)),
    (lambda: smith_normal_form(((2, 0), (0, 3))), lambda: smith_normal_form(((2, 0), (0, 5)))),
    (lambda: AbelianGroup(1, (2,)), lambda: AbelianGroup(1, (3,))),
    (lambda: Cusp((2, 3)).graph(), lambda: Cusp((2, 4)).graph()),
    (lambda: FamilyReduction(Cusp((2, 3))), lambda: FamilyReduction(Cusp((3, 2)))),
]


def test_every_record_class_is_listed():
    listed = [type(build()) for build, _ in RECORDS]
    assert len(listed) == len(set(listed)) == 7
    assert set(listed) == set(Record.__subclasses__())


def test_a_record_has_a_field():
    # equality and hash read the fields, so a class without one is refused
    # when it is defined
    with pytest.raises(TypeError):

        class Empty(Record):
            __slots__ = ()

    gc.collect()  # free the refused class, which Record.__subclasses__ still lists
    assert all(cls.__slots__ for cls in Record.__subclasses__())


@pytest.mark.parametrize(
    "build, another", RECORDS, ids=[type(build()).__name__ for build, _ in RECORDS]
)
def test_record_contract(build, another):
    a, b = build(), build()
    cls = type(a)
    assert a is not b
    assert a == b and not a != b
    values = tuple(getattr(a, name) for name in cls.__slots__)
    try:
        hash(values)
    except TypeError:  # a dict field: the record is as unhashable as its values
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    other = another()
    assert a != other and other != a
    assert a != values and values != a

    for name in (*cls.__slots__, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert tuple(getattr(a, name) for name in cls.__slots__) == values == tuple(
        getattr(b, name) for name in cls.__slots__
    )
    assert repr(a).startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in repr(a) for name in cls.__slots__)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a


@pytest.mark.parametrize(
    "first, second",
    [
        # a bare tuple stands for a record of another class with the same
        # fields and these values, made in the test so that its class is
        # freed after it
        (SnfResult(1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
        (Sl2Matrix(1, 0, 0, 1), (1, 0, 0, 1)),
        (Elliptic(2), Elliptic(3)),
    ],
)
def test_records_of_another_class_or_value_are_unequal(first, second):
    if type(second) is tuple:
        twin = type("Twin", (Record,), {"__slots__": type(first).__slots__})
        second = twin(*second)
        del twin
        assert hash(second) == hash(first)  # so the dict compares the two
    assert first != second and second != first
    assert {first: 1, second: 2}[first] == 1
    del second
    gc.collect()  # free a twin's class, which Record.__subclasses__ still lists
    assert len(Record.__subclasses__()) == len(RECORDS)
