"""The two link families everything downstream is indexed by.

Each family knows its label, JSON form, monodromy, plumbing graph, open
book page and Stein handle pattern (Q is read off the graph); outside the
family-specific checks of verify.py, no module tests which family it holds.
A handle pattern pairs each smooth framing with one of three tag constants.
"""
from __future__ import annotations

from operator import index

from ._record import Record
from .sl2z import CycleWord, Sl2Matrix, cycle_monodromy

__all__ = [
    "InvalidParameter",
    "SizeLimitExceeded",
    "UnsupportedPresentation",
    "ChainUnknot",
    "EllipticCore",
    "NodalDoublePass",
    "HandleTag",
    "CHAIN_UNKNOT",
    "ELLIPTIC_CORE",
    "NODAL_DOUBLE_PASS",
    "Elliptic",
    "Cusp",
    "Family",
]


class InvalidParameter(ValueError):
    """A numeric parameter outside the allowed range."""


class SizeLimitExceeded(InvalidParameter):
    """The object asked for is larger than a documented limit; raised
    before any part of it is built."""


class UnsupportedPresentation(ValueError):
    """Q has no row for a cusp's cycle 1-handle, so it is not the contact
    surgery linking matrix (a row per 1-handle and per 2-handle) that
    ``invariants.FamilyReduction.d3_invariants`` evaluates d3 on."""


class ChainUnknot(Record):
    """An unknot of the cusp surgery chain; genus 0."""

    __slots__ = ()
    genus = 0
    picture = "chain-with-ring"


class EllipticCore(Record):
    """The 2-handle over both 1-handles of the elliptic diagram; capped genus 1."""

    __slots__ = ()
    genus = 1
    picture = "borromean"


class NodalDoublePass(Record):
    """The k = 1 unknot running twice over the 1-handle; capped genus 1."""

    __slots__ = ()
    genus = 1
    picture = "nodal-double-pass"


HandleTag = ChainUnknot | EllipticCore | NodalDoublePass

# the one instance of each tag, with its genus and surgery picture name
CHAIN_UNKNOT = ChainUnknot()
ELLIPTIC_CORE = EllipticCore()
NODAL_DOUBLE_PASS = NodalDoublePass()


class Elliptic(Record):
    """Link of a simple elliptic singularity; minimal resolution weight -n."""

    __slots__ = ("n",)
    one_handle_count = 2

    def __init__(self, n: int):
        n = index(n)
        if n < 1:
            raise InvalidParameter(f"elliptic parameter must be >= 1, got {n}")
        object.__setattr__(self, "n", n)

    @property
    def label(self) -> str:
        return f"elliptic({self.n})"

    def to_json_dict(self) -> dict:
        return {"kind": "elliptic", "n": self.n}

    def monodromy(self) -> Sl2Matrix:
        """Parabolic monodromy [[1, n], [0, 1]] of the Euler-number -n torus bundle."""
        return Sl2Matrix(1, self.n, 0, 1)

    def graph(self):
        """One genus-one vertex of weight -n."""
        from .plumbing import PlumbingGraph, PlumbingVertex

        return PlumbingGraph((PlumbingVertex(-self.n, genus=1),), ())

    def openbook(self):
        from .openbook import OpenBookDescription

        return OpenBookDescription(self)

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: one piece with n boundaries, not cut along any delta."""
        return 0, (self.n,)

    def handle_slots(self) -> tuple[tuple[HandleTag, int], ...]:
        """(tag, smooth framing) of each Stein 2-handle."""
        return ((ELLIPTIC_CORE, -self.n),)


class Cusp(Record):
    """Link of a cusp singularity, indexed by its cycle word."""

    __slots__ = ("word",)
    one_handle_count = 1

    def __init__(self, word: CycleWord):
        if not isinstance(word, CycleWord):
            word = CycleWord(tuple(word))
        object.__setattr__(self, "word", word)

    @property
    def label(self) -> str:
        return "cusp(" + ",".join(str(n) for n in self.word) + ")"

    def to_json_dict(self) -> dict:
        return {"kind": "cusp", "word": self.word.to_json_list()}

    def monodromy(self) -> Sl2Matrix:
        return cycle_monodromy(self.word)

    def graph(self):
        """Circular plumbing with weights -n_i; loop for k = 1, double edge for k = 2."""
        from .plumbing import PlumbingGraph, PlumbingVertex

        k = len(self.word)
        if k == 1:
            edges = ((0, 0),)
        elif k == 2:
            edges = ((0, 1), (0, 1))
        else:
            edges = tuple((i, (i + 1) % k) for i in range(k))
        return PlumbingGraph(tuple(PlumbingVertex(-n) for n in self.word), edges)

    def openbook(self):
        from .openbook import OpenBookDescription

        return OpenBookDescription(self)

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: k deltas cut it into k pieces, piece i with n_i - 2 boundaries."""
        return len(self.word), tuple(n - 2 for n in self.word)

    def handle_slots(self) -> tuple[tuple[HandleTag, int], ...]:
        """(tag, smooth framing) of each Stein 2-handle."""
        entries = self.word.entries
        if len(entries) == 1:
            return ((NODAL_DOUBLE_PASS, -entries[0] + 2),)
        return tuple([(CHAIN_UNKNOT, -n) for n in entries])


Family = Elliptic | Cusp
