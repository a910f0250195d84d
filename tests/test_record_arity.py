"""The base constructor of the records that only store their values: one
value per field, positionally, and a TypeError naming the class otherwise."""
import pytest

import singlink.invariants  # noqa: F401  (imports every module that defines a record)
from singlink._record import Record

STORE_ONLY = sorted(
    (cls for cls in Record.__subclasses__() if "__init__" not in vars(cls)),
    key=lambda cls: cls.__name__,
)


def test_store_only_records_are_the_expected_classes():
    assert [cls.__name__ for cls in STORE_ONLY] == ["SnfResult"]


@pytest.mark.parametrize("cls", STORE_ONLY, ids=lambda cls: cls.__name__)
def test_store_only_record_takes_one_value_per_field(cls):
    values = tuple(f"value {i}" for i in range(len(cls.__slots__)))
    record = cls(*values)
    assert tuple(getattr(record, name) for name in cls.__slots__) == values
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*values, "one too many")
    if values:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(cls.__slots__, values)))
