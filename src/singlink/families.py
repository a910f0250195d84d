"""The two link families everything downstream is indexed by.

Each family knows its label, JSON form, monodromy, plumbing graph, open
book page, presentation matrix and Stein handle pattern; outside the
family-specific checks of verify.py, no module tests which family it holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import ClassVar

from .linalg import IntMatrix
from .sl2z import CycleWord, Sl2Matrix, cycle_monodromy

__all__ = [
    "InvalidParameter",
    "SizeLimitExceeded",
    "ChainUnknot",
    "EllipticCore",
    "NodalDoublePass",
    "HandleTag",
    "Elliptic",
    "Cusp",
    "Family",
]


class InvalidParameter(ValueError):
    """A numeric parameter outside the allowed range."""


class SizeLimitExceeded(InvalidParameter):
    """The object asked for is larger than a documented limit; raised
    before any part of it is built."""


@dataclass(frozen=True)
class ChainUnknot:
    """Unknot at position ``index`` (1-based) in the surgery chain; genus 0."""

    index: int
    genus: ClassVar[int] = 0


@dataclass(frozen=True)
class EllipticCore:
    """The 2-handle over both 1-handles of the elliptic diagram; capped genus 1."""

    genus: ClassVar[int] = 1


@dataclass(frozen=True)
class NodalDoublePass:
    """The k = 1 unknot running twice over the 1-handle; capped genus 1."""

    genus: ClassVar[int] = 1


HandleTag = ChainUnknot | EllipticCore | NodalDoublePass


@dataclass(frozen=True)
class Elliptic:
    """Link of a simple elliptic singularity; minimal resolution weight -n."""

    n: int
    one_handle_count: ClassVar[int] = 2

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise InvalidParameter(f"elliptic parameter must be >= 1, got {self.n}")

    @property
    def label(self) -> str:
        return f"elliptic({self.n})"

    def to_json_dict(self) -> dict:
        return {"kind": "elliptic", "n": self.n}

    def monodromy(self) -> Sl2Matrix:
        """Parabolic monodromy [[1, n], [0, 1]] of the Euler-number -n torus bundle."""
        return Sl2Matrix(1, self.n, 0, 1)

    def graph(self):
        from .plumbing import elliptic_graph

        return elliptic_graph(self.n)

    def openbook(self):
        from .openbook import OpenBookDescription

        return OpenBookDescription(self)

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: one piece with n boundaries, not cut along any delta."""
        return 0, (self.n,)

    def presentation(self) -> IntMatrix:
        """Borromean linking matrix diag(0, 0, -n): the two 0-framed
        components are the 1-handles, the last one the 2-handle."""
        return ((0, 0, 0), (0, 0, 0), (0, 0, -self.n))

    def handle_slots(self) -> tuple[tuple[HandleTag, int], ...]:
        """(tag, smooth framing) of each Stein 2-handle."""
        return ((EllipticCore(), -self.n),)


@dataclass(frozen=True)
class Cusp:
    """Link of a cusp singularity, indexed by its cycle word."""

    word: CycleWord
    one_handle_count: ClassVar[int] = 1

    def __post_init__(self):
        if not isinstance(self.word, CycleWord):
            object.__setattr__(self, "word", CycleWord(tuple(self.word)))

    @property
    def label(self) -> str:
        return "cusp(" + ",".join(str(n) for n in self.word) + ")"

    def to_json_dict(self) -> dict:
        return {"kind": "cusp", "word": self.word.to_json_list()}

    def monodromy(self) -> Sl2Matrix:
        return cycle_monodromy(self.word)

    def graph(self):
        from .plumbing import cusp_graph

        return cusp_graph(self.word)

    def openbook(self):
        from .openbook import OpenBookDescription

        return OpenBookDescription(self)

    def page_pieces(self) -> tuple[int, tuple[int, ...]]:
        """(delta curves, boundaries on each planar piece) of the open-book
        page: k deltas cut it into k pieces, piece i with n_i - 2 boundaries."""
        return len(self.word), tuple(n - 2 for n in self.word)

    def presentation(self) -> IntMatrix:
        """The plumbing intersection matrix, one row per 2-handle."""
        from .plumbing import intersection_matrix

        return intersection_matrix(self.graph())

    def handle_slots(self) -> tuple[tuple[HandleTag, int], ...]:
        """(tag, smooth framing) of each Stein 2-handle."""
        entries = self.word.entries
        if len(entries) == 1:
            return ((NodalDoublePass(), -entries[0] + 2),)
        return tuple((ChainUnknot(i), -n) for i, n in enumerate(entries, start=1))


Family = Elliptic | Cusp
