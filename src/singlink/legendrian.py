"""Legendrian realizations of the handle diagrams of the two link families.

Stein 2-handles are attached along Legendrian unknots with smooth framing
tb - 1.  Stabilizing trades tb for rotation number, two units of rot per
pair of zigzags.  A handle in the slot (g, f), its attaching circle of
capped genus g and so of maximal Thurston-Bennequin invariant
tb_max = 2g - 1, at smooth framing f, realizes exactly the rotation
numbers {-s, -s+2, ..., s} with s = tb_max - 1 - f.  A 2-handle is no
record of its own: it is the triple (g, f, rot) of its slot and its
rotation number, and ``handle_json`` writes it out with tb = f + 1.

A Stein handle diagram is no record either.  In Gompf's standard form
the family's handle slots and one rotation number per slot fix it, so a
diagram is its rot vector, a tuple of ints read together with the family
it belongs to; its 1-handle count is the family's.  ``check_rot_vector``
refuses a vector that is not realizable, and ``handle_text`` writes a
handle with its zigzags.
"""
from __future__ import annotations

import itertools
from operator import index

from .families import Family, InvalidParameter, SizeLimitExceeded

__all__ = [
    "DIAGRAM_LIMIT",
    "FramingTooLarge",
    "tb_max",
    "rotation_range",
    "check_rot_vector",
    "handle_json",
    "handle_text",
    "filling_rot_vectors",
    "enumerate_stein_fillings",
    "canonical_filling",
]


# Most Stein diagrams filling_rot_vectors lists, compared with the family's
# filling_count.  A larger family is refused before any handle is built.
DIAGRAM_LIMIT = 100_000


class FramingTooLarge(ValueError):
    """No Legendrian realization exists with the requested framing."""


def tb_max(genus: int) -> int:
    """Maximal Thurston-Bennequin invariant 2*genus - 1 of an attaching
    circle of that capped genus: TypeError unless the genus is an int,
    InvalidParameter if it is negative."""
    genus = index(genus)
    if genus < 0:
        raise InvalidParameter(f"genus must be nonnegative, got {genus}")
    return 2 * genus - 1


def rotation_range(genus: int, framing: int) -> tuple[int, ...]:
    """All realizable rotation numbers at the given genus and smooth framing.

    >>> rotation_range(1, -3)
    (-3, -1, 1, 3)
    """
    s = _stabilization_budget(genus, framing)
    return tuple(range(-s, s + 1, 2))


def _stabilization_budget(genus: int, framing: int) -> int:
    """s = tb_max - 1 - framing, the largest realizable |rot|: TypeError
    unless the framing is an int, as for the genus."""
    s = tb_max(genus) - 1 - index(framing)
    if s < 0:
        raise FramingTooLarge(
            f"framing {framing} exceeds tb_max - 1 = {tb_max(genus) - 1} for genus {genus}"
        )
    return s


def _check_rot(genus: int, framing: int, rot) -> int:
    """rot as an int, refused unless |rot| <= s and s - rot is even, with s
    the stabilization budget of the slot (genus, framing)."""
    rot = index(rot)
    s = _stabilization_budget(genus, framing)
    if abs(rot) > s or (s - rot) % 2:
        raise ValueError(f"rot {rot} not realizable at framing {framing} for genus {genus}")
    return rot


def check_rot_vector(family: Family, rot_vector) -> tuple[int, ...]:
    """The rot vector of a Stein diagram of the family, as a tuple of ints:
    one rot per handle slot, each refused unless it is realizable at its
    slot, and a bool returned as the int it stands for.

    >>> from singlink.families import Cusp
    >>> check_rot_vector(Cusp((3, 3)), [True, -1])
    (1, -1)
    """
    slots = family.handle_slots()
    rots = tuple(rot_vector)
    if len(rots) != len(slots):
        raise ValueError(f"{len(rots)} rotation numbers for the {len(slots)} slots of {family}")
    return tuple([_check_rot(*slot, r) for slot, r in zip(slots, rots)])


def handle_json(genus: int, framing: int, rot: int) -> dict:
    """The JSON of the 2-handle (genus, framing, rot), with tb = framing + 1.

    >>> handle_json(0, -3, -1)
    {'framing': -3, 'tb': -2, 'rot': -1, 'genus': 0}
    """
    return {"framing": framing, "tb": framing + 1, "rot": rot, "genus": genus}


def handle_text(genus: int, framing: int, rot: int) -> str:
    """The text of the 2-handle (genus, framing, rot): its tb and how many of
    its s stabilizations zigzag left, (s - rot)/2, and right, (s + rot)/2.

    >>> handle_text(0, -3, -1)
    'framing -3, tb -2, rot -1 (1 left / 0 right zigzags)'
    """
    s = _stabilization_budget(genus, framing)
    tb = handle_json(genus, framing, rot)["tb"]
    left, right = (s - rot) // 2, (s + rot) // 2
    return f"framing {framing}, tb {tb}, rot {rot} ({left} left / {right} right zigzags)"


def filling_rot_vectors(family: Family) -> itertools.product:
    """The rot vectors of all Stein handle diagrams, in lexicographic order.

    A plain function, so a family whose ``filling_count`` is over
    DIAGRAM_LIMIT raises SizeLimitExceeded at the call, before any vector is
    made.  Returns the lazy product of the slots' rotation ranges, one
    tuple at a time, each realizable by construction, so no rot is checked
    again.
    """
    if family.filling_count > DIAGRAM_LIMIT:
        raise SizeLimitExceeded(
            f"{family.label} has more Stein diagrams than the limit of {DIAGRAM_LIMIT:,}"
        )
    return itertools.product(*[rotation_range(*slot) for slot in family.handle_slots()])


def enumerate_stein_fillings(family: Family) -> tuple[tuple[int, ...], ...]:
    """The rot vectors of ``filling_rot_vectors`` as one tuple, which
    refuses a family over DIAGRAM_LIMIT before any vector is made."""
    return tuple(filling_rot_vectors(family))


def canonical_filling(family: Family, sign: str = "min") -> tuple[int, ...]:
    """The rot vector with every rotation number at its minimum (or maximum).

    These are the two adjunction-realizing diagrams; their rot vectors are
    negatives of each other.  Each rotation number is -s or s, taken from
    the stabilization budget without listing the range between.
    """
    if sign not in ("min", "max"):
        raise ValueError(f"sign must be 'min' or 'max', got {sign!r}")
    unit = -1 if sign == "min" else 1
    return tuple([unit * _stabilization_budget(*slot) for slot in family.handle_slots()])
