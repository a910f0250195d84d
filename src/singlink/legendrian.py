"""Legendrian realizations of the handle diagrams of the two link families.

Stein 2-handles are attached along Legendrian unknots with smooth framing
tb - 1.  Stabilizing trades tb for rotation number, two units of rot per
pair of zigzags, so a handle whose attaching circle has maximal
Thurston-Bennequin invariant tb_max and prescribed framing f realizes
exactly the rotation numbers {-s, -s+2, ..., s} with s = tb_max - 1 - f.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from enum import Enum
from operator import attrgetter

from .families import (
    ChainUnknot,
    EllipticCore,
    Family,
    HandleTag,
    NodalDoublePass,
    SizeLimitExceeded,
)
from .linalg import IntMatrix, is_symmetric

__all__ = [
    "DIAGRAM_LIMIT",
    "ChainUnknot",
    "EllipticCore",
    "NodalDoublePass",
    "HandleTag",
    "FramingTooLarge",
    "tb_max",
    "rotation_range",
    "TwoHandleSpec",
    "SteinHandleDiagram",
    "PresentationKind",
    "ContactSurgeryComponent",
    "ContactSurgeryDiagram",
    "enumerate_stein_fillings",
    "canonical_filling",
    "to_contact_surgery",
]


# Most Stein diagrams enumerate_stein_fillings lists: n + 1 for Elliptic(n)
# and prod(n_i - 1) for a cusp word.  A larger family is refused before any
# handle is built.
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

    >>> rotation_range(EllipticCore(), -3)
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


@dataclass(frozen=True)
class TwoHandleSpec:
    """A Stein 2-handle: rotation within the realizable set, tb = framing + 1
    and the surface genus of its tag."""

    tag: HandleTag
    smooth_framing: int
    rot: int
    tb: int = field(init=False)
    surface_genus: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tb", self.smooth_framing + 1)
        object.__setattr__(self, "surface_genus", self.tag.genus)
        s = _stabilization_budget(self.tag, self.smooth_framing)
        if abs(self.rot) > s or (s - self.rot) % 2:
            raise ValueError(
                f"rot {self.rot} not realizable at framing {self.smooth_framing} for {self.tag}"
            )

    def to_json_dict(self) -> dict:
        return {
            "framing": self.smooth_framing,
            "tb": self.tb,
            "rot": self.rot,
            "genus": self.surface_genus,
        }


_slot_of = attrgetter("tag", "smooth_framing")


@dataclass(frozen=True)
class SteinHandleDiagram:
    """A Legendrian handle diagram of a Stein filling of the link.

    The handles are checked against ``family.handle_slots()``.  An
    enumeration that has just built that pattern passes it as ``_slots``,
    so that each of its diagrams is checked without rebuilding it.  The
    1-handle count is the family's.
    """

    family: Family
    handles: tuple[TwoHandleSpec, ...]
    one_handle_count: int = field(init=False)
    _slots: InitVar[tuple[tuple[HandleTag, int], ...] | None] = field(default=None, kw_only=True)

    def __post_init__(self, _slots):
        object.__setattr__(self, "handles", tuple(self.handles))
        object.__setattr__(self, "one_handle_count", self.family.one_handle_count)
        slots = self.family.handle_slots() if _slots is None else _slots
        got = tuple(map(_slot_of, self.handles))
        if got != slots:
            raise ValueError(f"handles {got} do not match the {self.family} pattern {slots}")

    @property
    def rot_vector(self) -> tuple[int, ...]:
        return tuple(h.rot for h in self.handles)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "one_handles": self.one_handle_count,
            "handles": [h.to_json_dict() for h in self.handles],
        }

    def to_text(self) -> str:
        parts = []
        for h in self.handles:
            s = tb_max(h.tag) - h.tb
            left = (s - h.rot) // 2
            right = (s + h.rot) // 2
            parts.append(
                f"framing {h.smooth_framing}, tb {h.tb}, rot {h.rot} "
                f"({left} left / {right} right zigzags)"
            )
        return f"{self.one_handle_count} one-handles; " + "; ".join(parts)


def enumerate_stein_fillings(family: Family) -> tuple[SteinHandleDiagram, ...]:
    """All Stein handle diagrams, ordered lexicographically by rot vector.

    There are n + 1 of them for the elliptic family and prod(n_i - 1) for a
    cusp word; more than DIAGRAM_LIMIT raises SizeLimitExceeded before any
    handle is built.  Each realizable handle of each slot is built once per
    call; the diagrams are the product of these per-slot choices and share
    them.
    """
    slots = family.handle_slots()
    diagrams = 1
    for tag, f in slots:
        diagrams *= _stabilization_budget(tag, f) + 1  # the length of rotation_range
        if diagrams > DIAGRAM_LIMIT:
            raise SizeLimitExceeded(
                f"{family.label} has more Stein diagrams than the limit of {DIAGRAM_LIMIT:,}"
            )
    choices = [
        tuple(TwoHandleSpec(tag, f, rot) for rot in rotation_range(tag, f)) for tag, f in slots
    ]
    return tuple(
        SteinHandleDiagram(family, handles, _slots=slots)
        for handles in itertools.product(*choices)
    )


def canonical_filling(family: Family, sign: str = "min") -> SteinHandleDiagram:
    """The diagram with every rotation number at its minimum (or maximum).

    These are the two adjunction-realizing diagrams; their rot vectors are
    negatives of each other.  Each rotation number is -s or s, taken from
    the stabilization budget without listing the range between.
    """
    if sign not in ("min", "max"):
        raise ValueError(f"sign must be 'min' or 'max', got {sign!r}")
    unit = -1 if sign == "min" else 1
    handles = tuple(
        TwoHandleSpec(tag, f, unit * _stabilization_budget(tag, f))
        for tag, f in family.handle_slots()
    )
    return SteinHandleDiagram(family, handles)


class PresentationKind(Enum):
    LITERAL_LINKING = "literal_linking"
    PLUMBING_PRESENTATION = "plumbing_presentation"


@dataclass(frozen=True)
class ContactSurgeryComponent:
    """One surgery curve: contact coefficient +1 or -1 on a Legendrian knot."""

    tb: int
    rot: int
    contact_coefficient: int

    def __post_init__(self):
        if self.contact_coefficient not in (1, -1):
            raise ValueError("contact coefficient must be +1 or -1")
        if self.contact_coefficient == 1 and (self.tb, self.rot) != (-1, 0):
            raise ValueError("+1 components are standard Legendrian unknots (tb -1, rot 0)")

    @property
    def smooth_framing(self) -> int:
        return self.tb + self.contact_coefficient

    def to_json_dict(self) -> dict:
        return {
            "tb": self.tb,
            "rot": self.rot,
            "coefficient": self.contact_coefficient,
            "framing": self.smooth_framing,
        }


@dataclass(frozen=True)
class ContactSurgeryDiagram:
    """Contact surgery presentation with its homology presentation matrix."""

    components: tuple[ContactSurgeryComponent, ...]
    presentation_matrix: IntMatrix
    presentation_kind: PresentationKind
    family: Family | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self, "presentation_matrix", tuple(tuple(r) for r in self.presentation_matrix)
        )
        if not is_symmetric(self.presentation_matrix):
            raise ValueError("presentation matrix must be symmetric")
        if len(self.presentation_matrix) != len(self.components):
            raise ValueError("presentation matrix size must match component count")

    @property
    def rot_vector(self) -> tuple[int, ...]:
        return tuple(c.rot for c in self.components)

    @property
    def plus_count(self) -> int:
        return sum(1 for c in self.components if c.contact_coefficient == 1)

    def to_json_dict(self) -> dict:
        return {
            "family": None if self.family is None else self.family.to_json_dict(),
            "components": [c.to_json_dict() for c in self.components],
            "presentation": {
                "kind": self.presentation_kind.value,
                "matrix": [list(r) for r in self.presentation_matrix],
            },
        }


def to_contact_surgery(diagram: SteinHandleDiagram) -> ContactSurgeryDiagram:
    """Trade every 1-handle for a contact (+1)-surgery on a standard unknot.

    The family's presentation is literal linking data when it has a row for
    every surgery component, as the elliptic Borromean diag(0, 0, -n) does;
    a cusp presentation has rows for the 2-handles only, so the plumbing
    intersection matrix is extended by a zero row and column for the (+1)
    component, which presents the homology but is not the literal linking
    data.
    """
    plus = tuple(
        ContactSurgeryComponent(-1, 0, 1) for _ in range(diagram.one_handle_count)
    )
    minus = tuple(
        ContactSurgeryComponent(h.tb, h.rot, -1) for h in diagram.handles
    )
    q = diagram.family.presentation()
    pad = len(plus) + len(minus) - len(q)
    matrix: IntMatrix = tuple((0,) * (pad + len(q)) for _ in range(pad)) + tuple(
        (0,) * pad + row for row in q
    )
    kind = PresentationKind.PLUMBING_PRESENTATION if pad else PresentationKind.LITERAL_LINKING
    return ContactSurgeryDiagram(plus + minus, matrix, kind, diagram.family)
