"""The two link families everything downstream is indexed by.

Each family knows its label, JSON form, monodromy, plumbing graph, open
book page and boundary count, Stein handle pattern, surgery picture,
diagram count and whether its d3 is supported (Q is read off the graph);
outside the family-specific checks of verify.py, no module tests which
family it holds.  The open book and the surgery picture are functions of
the family.  A handle pattern is one (genus, smooth framing) slot per
Stein 2-handle.  ``check_d3_supported`` refuses a cusp's d3 here, next to
the constant it reads and the exception it raises, so the command line
refuses ``--d3`` on a cusp before it imports any module that computes.
"""
from __future__ import annotations

from operator import index

from ._record import Record
from .sl2z import CycleWord, Sl2Matrix, cycle_monodromy

__all__ = [
    "InvalidParameter",
    "SizeLimitExceeded",
    "UnsupportedPresentation",
    "Elliptic",
    "Cusp",
    "Family",
    "check_d3_supported",
]


class InvalidParameter(ValueError):
    """A numeric parameter outside the allowed range."""


class SizeLimitExceeded(InvalidParameter):
    """The object asked for is larger than a documented limit; raised
    before any part of it is built."""


class UnsupportedPresentation(ValueError):
    """d3 of a cusp, refused: Gompf's formula on Q applies to it, but its
    value waits for a cross-check against the resolution graph (see
    ``check_d3_supported``)."""


class Elliptic(Record):
    """Link of a simple elliptic singularity; minimal resolution weight -n.

    >>> Elliptic(3).handle_slots(), Elliptic(3).surgery_picture
    (((1, -3),), 'borromean')
    """

    __slots__ = ("n",)
    one_handle_count = 2
    surgery_picture = "borromean"
    d3_supported = True

    def __init__(self, n: int):
        n = index(n)
        if n < 1:
            raise InvalidParameter(f"elliptic parameter must be >= 1, got {n}")
        object.__setattr__(self, "n", n)

    @property
    def label(self) -> str:
        return f"elliptic({self.n})"

    @property
    def filling_count(self) -> int:
        """Stein handle diagrams: n + 1, one per rot of the elliptic core."""
        return self.n + 1

    @property
    def boundary_count(self) -> int:  # of the open-book page
        return self.n

    def to_json_dict(self) -> dict:
        return {"kind": "elliptic", "n": self.n}

    def monodromy(self) -> Sl2Matrix:
        """Parabolic monodromy [[1, n], [0, 1]] of the Euler-number -n torus bundle."""
        return Sl2Matrix(1, self.n, 0, 1)

    def graph(self):
        """One genus-one vertex of weight -n."""
        from .plumbing import PlumbingGraph

        return PlumbingGraph(((-self.n, 1),), ())

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: one piece with n boundaries, not cut along any delta."""
        return 0, (self.n,)

    def handle_slots(self) -> tuple[tuple[int, int], ...]:
        """(genus, smooth framing) of the 2-handle over both 1-handles."""
        return ((1, -self.n),)


class Cusp(Record):
    """Link of a cusp singularity, indexed by its cycle word.

    >>> for family in (Cusp((4,)), Cusp((2, 3))):
    ...     print(family.handle_slots(), family.surgery_picture)
    ((1, -2),) nodal-double-pass
    ((0, -2), (0, -3)) chain-with-ring
    """

    __slots__ = ("word",)
    one_handle_count = 1
    d3_supported = False

    def __init__(self, word: CycleWord):
        if not isinstance(word, CycleWord):
            word = CycleWord(tuple(word))
        object.__setattr__(self, "word", word)

    @property
    def label(self) -> str:
        return "cusp(" + ",".join(str(n) for n in self.word) + ")"

    @property
    def filling_count(self) -> int:
        """Stein handle diagrams: prod(n_i - 1), n_i - 1 rots per handle."""
        from math import prod

        return prod([n - 1 for n in self.word])

    @property
    def boundary_count(self) -> int:  # of the open-book page
        return sum([n - 2 for n in self.word])

    def to_json_dict(self) -> dict:
        return {"kind": "cusp", "word": self.word.to_json_list()}

    def monodromy(self) -> Sl2Matrix:
        return cycle_monodromy(self.word)

    def graph(self):
        """Circular plumbing with weights -n_i; loop for k = 1, double edge for k = 2."""
        from .plumbing import PlumbingGraph

        k = len(self.word)
        if k == 1:
            edges = ((0, 0),)
        elif k == 2:
            edges = ((0, 1), (0, 1))
        else:
            edges = tuple((i, (i + 1) % k) for i in range(k))
        return PlumbingGraph(tuple([(-n, 0) for n in self.word]), edges)

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: k deltas cut it into k pieces, piece i with n_i - 2 boundaries."""
        return len(self.word), tuple(n - 2 for n in self.word)

    @property
    def surgery_picture(self) -> str:
        return "nodal-double-pass" if len(self.word) == 1 else "chain-with-ring"

    def handle_slots(self) -> tuple[tuple[int, int], ...]:
        """(genus, smooth framing) of each Stein 2-handle: for k = 1 an unknot
        running twice over the 1-handle, capped genus 1; else chain unknots."""
        entries = self.word.entries
        if len(entries) == 1:
            return ((1, 2 - entries[0]),)
        return tuple([(0, -n) for n in entries])


Family = Elliptic | Cusp


def check_d3_supported(family: Family) -> None:
    """Raise UnsupportedPresentation unless ``family.d3_supported``: a
    cusp's d3 waits for the resolution-graph cross-check, and is refused
    before anything is built for it."""
    if not family.d3_supported:
        message = f"d3 of {family.label} waits for the resolution-graph cross-check"
        raise UnsupportedPresentation(message)
