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

First Chern class evaluations on the handle surfaces equal the rotation
numbers, so adjunction equality is a property of the diagram alone.  The
adjunction formula framing - 2*genus + 2 is written once, as the
adjunction vector of a handle pattern: the rot vector at which every
handle has zero adjunction defect.  A diagram's defects are its rot
vector minus that vector, and it is canonical when its whole rot vector
equals the adjunction vector or its negative.  These helpers and
``canonical_filling``, which sets every rot at an end of its slot's range,
take the handle slots, not the family, so a caller reads a family's
``handle_slots()`` once and hands them to all four.  None of this reads the
intersection form, so ``canonical`` runs this module alone:
``canonical_report`` writes its output, as ``enumerate_report`` writes
the ``enumerate`` subcommand's.
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
    "enumerate_report",
    "canonical_filling",
    "adjunction_vector",
    "adjunction_defects",
    "is_canonical",
    "canonical_report",
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


def enumerate_report(family: Family, as_json: bool = False) -> dict | str:
    """Every Stein diagram of the family: as JSON its rot vector, c1 (the
    same vector, since c1 evaluates to the rotation numbers) and handles,
    or as the diagram count and then one line per diagram.

    >>> from singlink.families import Elliptic
    >>> print(enumerate_report(Elliptic(1)))
    count 2
    rot=(-1) c1=(-1)
    rot=(1) c1=(1)
    """
    rot_vectors = filling_rot_vectors(family)
    if as_json:
        # each slot's handle dict is built once per realizable rot and shared
        slot_json = [
            {r: handle_json(*slot, r) for r in rotation_range(*slot)}
            for slot in family.handle_slots()
        ]
        entries = []
        for rots in rot_vectors:
            rot = list(rots)
            handles = [by_rot[r] for by_rot, r in zip(slot_json, rot)]
            entries.append({"rot": rot, "c1": rot, "handles": handles})
        return {"family": family.to_json_dict(), "count": len(entries), "fillings": entries}
    lines = []
    for rots in rot_vectors:
        rot = ", ".join(map(str, rots))
        lines.append(f"rot=({rot}) c1=({rot})")
    return "\n".join([f"count {len(lines)}", *lines])


def canonical_filling(slots, sign: str = "min") -> tuple[int, ...]:
    """The rot vector with every rotation number at its minimum (or maximum),
    for the (genus, smooth framing) slots of a family's ``handle_slots()``.

    These are the two adjunction-realizing diagrams; their rot vectors are
    negatives of each other.  Each rotation number is -s or s, taken from
    the stabilization budget without listing the range between.

    >>> canonical_filling([(0, -2), (0, -3), (0, -4)], "max")  # cusp (2, 3, 4)
    (0, 1, 2)
    """
    if sign not in ("min", "max"):
        raise ValueError(f"sign must be 'min' or 'max', got {sign!r}")
    unit = -1 if sign == "min" else 1
    return tuple([unit * _stabilization_budget(*slot) for slot in slots])


def adjunction_vector(slots) -> tuple[int, ...]:
    """The adjunction vector c of a handle pattern: framing - 2*genus + 2
    for each (genus, smooth framing) slot, the rot vector at which every
    handle has zero adjunction defect.

    >>> adjunction_vector([(0, -n) for n in (3, 4, 5)])  # cusp (3, 4, 5)
    (-1, -2, -3)
    """
    return tuple([framing - 2 * genus + 2 for genus, framing in slots])


def adjunction_defects(slots, rot_vector) -> tuple[int, ...]:
    """The rot vector minus the adjunction vector of the slots, one defect
    per handle; a handle's defect is zero exactly at adjunction equality.

    >>> adjunction_defects([(0, -2), (0, -3), (0, -4)], (0, -1, 0))
    (0, 0, 2)
    """
    c = adjunction_vector(slots)
    return tuple([r - x for r, x in zip(rot_vector, c)])


def is_canonical(slots, rot_vector) -> bool:
    """True when the rot vector is the slots' adjunction vector c or -c.

    At c every handle realizes adjunction equality; -c is the same diagram
    with the orientation of every attaching circle reversed, which negates
    the whole rot vector.  The defect rot - c equals 2*rot exactly when
    rot = -c, so this is adjunction equality on every handle after a
    possible reversal, decided by one comparison of whole vectors.
    """
    c = adjunction_vector(slots)
    return tuple(rot_vector) in (c, tuple(-x for x in c))


def canonical_report(
    family: Family, sign: str | None = None, as_json: bool = False
) -> dict | str:
    """The canonical diagram of the sign, or of both signs: as JSON keyed by
    sign, its handles, 1-handle count, adjunction defects and whether it is
    canonical, or one line per sign with the handles' zigzags.

    >>> from singlink.families import Elliptic
    >>> print(canonical_report(Elliptic(1), "min"))
    min: 2 one-handles; framing -1, tb 0, rot -1 (1 left / 0 right zigzags); adjunction defects (0)
    """
    slots = family.handle_slots()
    data, lines = {}, []
    for s in (sign,) if sign else ("min", "max"):
        rots = canonical_filling(slots, s)
        handles = [(*slot, r) for slot, r in zip(slots, rots)]
        defects = adjunction_defects(slots, rots)
        if as_json:
            data[s] = {
                "family": family.to_json_dict(),
                "one_handles": family.one_handle_count,
                "handles": [handle_json(*h) for h in handles],
                "defects": list(defects),
                "is_canonical": is_canonical(slots, rots),
            }
        else:
            text = "; ".join([handle_text(*h) for h in handles])
            lines.append(
                f"{s}: {family.one_handle_count} one-handles; {text}; "
                f"adjunction defects ({', '.join(map(str, defects))})"
            )
    return data if as_json else "\n".join(lines)
