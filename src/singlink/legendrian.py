"""Legendrian realizations of the handle diagrams of the two link families.

Stein 2-handles are attached along Legendrian unknots with smooth framing
tb - 1.  Stabilizing trades tb for rotation number, two units of rot per
pair of zigzags, so a handle whose attaching circle has maximal
Thurston-Bennequin invariant tb_max and prescribed framing f realizes
exactly the rotation numbers {-s, -s+2, ..., s} with s = tb_max - 1 - f.
"""
from __future__ import annotations

import itertools
from operator import index

from ._record import Record
from .families import (
    ELLIPTIC_CORE,  # for the rotation_range doctest
    Family,
    HandleTag,
    SizeLimitExceeded,
)

__all__ = [
    "DIAGRAM_LIMIT",
    "FramingTooLarge",
    "tb_max",
    "rotation_range",
    "TwoHandleSpec",
    "SteinHandleDiagram",
    "filling_rot_vectors",
    "enumerate_stein_fillings",
    "canonical_filling",
]


# Most Stein diagrams filling_rot_vectors lists, compared with the family's
# filling_count.  A larger family is refused before any handle is built.
DIAGRAM_LIMIT = 100_000


class FramingTooLarge(ValueError):
    """No Legendrian realization exists with the requested framing."""


def tb_max(tag: HandleTag) -> int:
    """Maximal Thurston-Bennequin invariant of the attaching circle.

    The bound 2*genus - 1: -1 for a plain unknot, 1 for the two genus-one
    attaching circles.
    """
    return 2 * tag.genus - 1


def rotation_range(tag: HandleTag, framing: int) -> tuple[int, ...]:
    """All realizable rotation numbers at the given smooth framing.

    >>> rotation_range(ELLIPTIC_CORE, -3)
    (-3, -1, 1, 3)
    """
    s = _stabilization_budget(tag, framing)
    return tuple(range(-s, s + 1, 2))


def _stabilization_budget(tag: HandleTag, framing: int) -> int:
    """s = tb_max - 1 - framing, the largest realizable |rot|."""
    s = tb_max(tag) - 1 - framing
    if s < 0:
        raise FramingTooLarge(
            f"framing {framing} exceeds tb_max - 1 = {tb_max(tag) - 1} for {tag}"
        )
    return s


def _check_rot(tag: HandleTag, framing: int, rot) -> int:
    """rot as an int, refused unless |rot| <= s and s - rot is even, with s
    the stabilization budget of the slot (tag, framing)."""
    rot = index(rot)
    s = _stabilization_budget(tag, framing)
    if abs(rot) > s or (s - rot) % 2:
        raise ValueError(f"rot {rot} not realizable at framing {framing} for {tag}")
    return rot


class TwoHandleSpec(Record):
    """A Stein 2-handle: rotation within the realizable set, tb = framing + 1
    and the surface genus of its tag."""

    __slots__ = ("tag", "smooth_framing", "rot")

    def __init__(self, tag: HandleTag, smooth_framing: int, rot: int):
        smooth_framing = index(smooth_framing)
        rot = _check_rot(tag, smooth_framing, rot)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "smooth_framing", smooth_framing)
        object.__setattr__(self, "rot", rot)

    @property
    def tb(self) -> int:
        return self.smooth_framing + 1

    @property
    def surface_genus(self) -> int:
        return self.tag.genus

    def to_json_dict(self) -> dict:
        return {
            "framing": self.smooth_framing,
            "tb": self.tb,
            "rot": self.rot,
            "genus": self.surface_genus,
        }


_set = object.__setattr__


class SteinHandleDiagram(Record):
    """A Legendrian handle diagram of a Stein filling of the link.

    In Gompf's standard form the family's handle slots and one rotation
    number per slot fix the diagram, so that is all it stores: each rot is
    checked against its slot's stabilization budget, and the 2-handles
    are built from the slots on each read.  The 1-handle count is the
    family's.
    """

    __slots__ = ("family", "rot_vector")

    def __init__(self, family: Family, rot_vector: tuple[int, ...]):
        slots = family.handle_slots()
        rots = tuple(rot_vector)
        if len(rots) != len(slots):
            raise ValueError(f"{len(rots)} rotation numbers for the {len(slots)} slots of {family}")
        _set(self, "family", family)
        _set(self, "rot_vector", tuple([_check_rot(*slot, r) for slot, r in zip(slots, rots)]))

    @property
    def one_handle_count(self) -> int:
        return self.family.one_handle_count

    @property
    def handles(self) -> tuple[TwoHandleSpec, ...]:
        slots = self.family.handle_slots()
        return tuple([TwoHandleSpec(*slot, r) for slot, r in zip(slots, self.rot_vector)])

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "one_handles": self.one_handle_count,
            "handles": [h.to_json_dict() for h in self.handles],
        }

    def to_text(self) -> str:
        parts = []
        for h in self.handles:
            s = _stabilization_budget(h.tag, h.smooth_framing)
            left = (s - h.rot) // 2
            right = (s + h.rot) // 2
            parts.append(
                f"framing {h.smooth_framing}, tb {h.tb}, rot {h.rot} "
                f"({left} left / {right} right zigzags)"
            )
        return f"{self.one_handle_count} one-handles; " + "; ".join(parts)


def _realized(family: Family, rot_vector: tuple[int, ...]) -> SteinHandleDiagram:
    """A diagram of rots taken off the slots' budgets, so not checked again."""
    diagram = object.__new__(SteinHandleDiagram)
    _set(diagram, "family", family)
    _set(diagram, "rot_vector", rot_vector)
    return diagram


def filling_rot_vectors(family: Family) -> itertools.product:
    """The rot vectors of all Stein handle diagrams, in lexicographic order.

    A plain function, so a family whose ``filling_count`` is over
    DIAGRAM_LIMIT raises SizeLimitExceeded at the call, before any vector is
    made.  Returns the lazy product of the slots' rotation ranges, one
    tuple at a time, so no rot is checked again and no diagram is built.
    """
    if family.filling_count > DIAGRAM_LIMIT:
        raise SizeLimitExceeded(
            f"{family.label} has more Stein diagrams than the limit of {DIAGRAM_LIMIT:,}"
        )
    return itertools.product(*[rotation_range(*slot) for slot in family.handle_slots()])


def enumerate_stein_fillings(family: Family) -> tuple[SteinHandleDiagram, ...]:
    """All Stein handle diagrams, ordered lexicographically by rot vector:
    one diagram per vector of ``filling_rot_vectors``, which refuses a
    family over DIAGRAM_LIMIT before any diagram is built."""
    return tuple([_realized(family, r) for r in filling_rot_vectors(family)])


def canonical_filling(family: Family, sign: str = "min") -> SteinHandleDiagram:
    """The diagram with every rotation number at its minimum (or maximum).

    These are the two adjunction-realizing diagrams; their rot vectors are
    negatives of each other.  Each rotation number is -s or s, taken from
    the stabilization budget without listing the range between.
    """
    if sign not in ("min", "max"):
        raise ValueError(f"sign must be 'min' or 'max', got {sign!r}")
    unit = -1 if sign == "min" else 1
    rots = tuple([unit * _stabilization_budget(*slot) for slot in family.handle_slots()])
    return _realized(family, rots)
