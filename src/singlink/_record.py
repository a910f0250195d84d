"""The base of the package's immutable value records.

A record class names its fields in ``__slots__``.  A record that only
stores its values defines no ``__init__``: the base one takes exactly one
value per field, positionally and in ``__slots__`` order.  A record that
validates or derives its fields sets each one once, in its own
``__init__``, through ``object.__setattr__``.  A value one attribute step
away from a field is a property, not another field.

The base gives every record the rest: assigning or deleting an attribute
raises AttributeError, two records are equal when they are of the same
class and their fields are equal, the hash follows that equality, the repr
is ``Name(field=value, ...)``, and copy and pickle work.
"""
from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # one getter per class keeps __eq__ and __hash__ to a single C call
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} values "
                f"({', '.join(names)}), got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, not through __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
