"""Exact SL(2,Z) arithmetic for torus-bundle monodromies.

The cusp normal form used throughout the package is the product

    A(n_1, ..., n_k) = M(n_1) * ... * M(n_k),   M(n) = [[n, -1], [1, 0]].

Every valid cycle word (all entries >= 2 with at least one >= 3, or a
single entry >= 3) multiplies out to a hyperbolic matrix of trace >= 3,
and ``factor_cycle`` inverts the construction up to cyclic rotation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from operator import index

__all__ = [
    "Sl2Matrix",
    "CycleWord",
    "MonodromyType",
    "MonodromyClass",
    "NotCuspClass",
    "NoFactorization",
    "classify",
    "cycle_factor",
    "cycle_monodromy",
    "factor_cycle",
    "cyclic_equal",
]

CYCLE_WORD_RULE = (
    "every entry must be >= 2 with at least one entry >= 3 when there is "
    "more than one entry, and a single entry must be >= 3"
)


class NotCuspClass(ValueError):
    """The matrix is not hyperbolic of trace >= 3."""


class NoFactorization(ValueError):
    """No cycle word reproduces the conjugacy class of the matrix."""


@dataclass(frozen=True)
class Sl2Matrix:
    """A 2x2 integer matrix [[a, b], [c, d]] of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant must be 1, got {self.a * self.d - self.b * self.c}"
            )

    @classmethod
    def identity(cls) -> "Sl2Matrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_rows(cls, rows) -> "Sl2Matrix":
        (a, b), (c, d) = rows
        return cls(*map(index, (a, b, c, d)))

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def inverse(self) -> "Sl2Matrix":
        return Sl2Matrix(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return Sl2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


class MonodromyType(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MonodromyClass:
    """Trace classification of an SL(2,Z) matrix; the kind follows from the trace."""

    trace: int
    kind: MonodromyType = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", _kind_for_trace(self.trace))

    @property
    def is_cusp_link(self) -> bool:
        """True for the monodromies of cusp singularity links (trace >= 3)."""
        return self.trace >= 3

    @property
    def is_elliptic_link(self) -> bool:
        """True for the parabolic trace-2 class realized by simple elliptic links."""
        return self.trace == 2


def _kind_for_trace(trace: int) -> MonodromyType:
    if abs(trace) < 2:
        return MonodromyType.ELLIPTIC
    if abs(trace) == 2:
        return MonodromyType.PARABOLIC
    return MonodromyType.HYPERBOLIC


def classify(matrix: Sl2Matrix) -> MonodromyClass:
    """Classify a torus-bundle monodromy by its trace.

    >>> classify(Sl2Matrix(1, 5, 0, 1)).kind.value
    'parabolic'
    """
    return MonodromyClass(matrix.trace)


@dataclass(frozen=True)
class CycleWord:
    """The tuple (n_1, ..., n_k) parameterizing a cusp monodromy.

    Valid words have every n_i >= 2 with some n_i >= 3 when k > 1, and
    n_1 >= 3 when k = 1.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(map(index, self.entries))
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError(f"invalid cycle word {entries}: word must be nonempty")
        if len(entries) == 1:
            if entries[0] < 3:
                raise ValueError(f"invalid cycle word {entries}: {CYCLE_WORD_RULE}")
        elif min(entries) < 2 or max(entries) < 3:
            raise ValueError(f"invalid cycle word {entries}: {CYCLE_WORD_RULE}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rotations(self):
        e = self.entries
        return tuple(e[i:] + e[:i] for i in range(len(e)))

    def least_rotation(self) -> "CycleWord":
        """The lexicographically least cyclic rotation, in O(k) time and memory."""
        return CycleWord(_least_rotation(self.entries))

    def to_json_list(self) -> list[int]:
        return list(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(n) for n in self.entries) + ")"


def cycle_factor(n: int) -> Sl2Matrix:
    """The single normal-form factor M(n) = [[n, -1], [1, 0]]."""
    return Sl2Matrix(n, -1, 1, 0)


def cycle_monodromy(word: CycleWord) -> Sl2Matrix:
    """Multiply out the cycle word in index order.

    >>> cycle_monodromy(CycleWord((2, 3)))
    Sl2Matrix(a=5, b=-2, c=3, d=-1)
    """
    out = Sl2Matrix.identity()
    for n in word:
        out = out * cycle_factor(n)
    return out


def _least_rotation(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Least cyclic rotation by Duval's Lyndon factorization of entries twice over.

    The least rotation starts at the start of the last Lyndon factor that
    begins inside the first copy.
    """
    k = len(entries)
    doubled = entries + entries
    i = start = 0
    while i < k:
        start = i
        j, m = i + 1, i
        while j < 2 * k and doubled[m] <= doubled[j]:
            m = i if doubled[m] < doubled[j] else m + 1
            j += 1
        while i <= m:
            i += j - m
    return doubled[start : start + k]


def cyclic_equal(w1: CycleWord, w2: CycleWord) -> bool:
    """True when w2 is a cyclic rotation of w1."""
    return len(w1) == len(w2) and _least_rotation(w1.entries) == _least_rotation(w2.entries)


_EXPANSION_LIMIT = 100_000


def _ceil_quadratic(p: int, q: int, root: int) -> int:
    # ceil((p + sqrt(D)) / q) with root = isqrt(D), D not a perfect square.
    if q > 0:
        return (p + root) // q + 1
    return (-p - root - 1) // (-q) + 1


def _periodic_expansion(matrix: Sl2Matrix) -> tuple[int, ...]:
    """Period of the minus continued fraction of the attracting fixed point.

    The fixed point x = (a - d + sqrt(tr^2 - 4)) / (2c) is expanded as
    x = n - 1/x' with n = ceil(x); complete quotients are tracked exactly
    as integer pairs (p, q) meaning (p + sqrt(D)) / q, and the first
    repeated state delimits the period.
    """
    disc = matrix.trace**2 - 4
    root = isqrt(disc)
    if root * root == disc or matrix.c == 0:
        # trace >= 3 rules both out; guards hand-built inputs
        raise NoFactorization(f"{matrix} has no cycle factorization")
    p, q = matrix.a - matrix.d, 2 * matrix.c
    seen: dict[tuple[int, int], int] = {}
    entries: list[int] = []
    while (p, q) not in seen:
        if len(entries) == _EXPANSION_LIMIT:
            raise NoFactorization(
                f"the period of {matrix}, counted with the entries before it, "
                f"exceeds the limit of {_EXPANSION_LIMIT:,} entries"
            )
        seen[(p, q)] = len(entries)
        n = _ceil_quadratic(p, q, root)
        entries.append(n)
        p = n * q - p
        if (p * p - disc) % q:
            raise NoFactorization(f"expansion of {matrix} left the quadratic lattice")
        q = (p * p - disc) // q
    return tuple(entries[seen[(p, q)] :])


def factor_cycle(matrix: Sl2Matrix) -> CycleWord:
    """Factor a hyperbolic matrix of trace >= 3 into a cycle word.

    Returns the word w, normalized to its lexicographically least cyclic
    rotation, such that ``cycle_monodromy(w)`` is SL(2,Z)-conjugate to the
    input.  The period of the fixed-point expansion yields the primitive
    word; the correct power is recovered by matching traces through the
    recursion tr(C^(r+1)) = tr(C) tr(C^r) - tr(C^(r-1)).
    """
    trace = matrix.trace
    if trace < 3:
        raise NotCuspClass(f"trace {trace} < 3: {matrix} is not a cusp monodromy")
    period = _periodic_expansion(matrix)
    try:
        primitive = CycleWord(period)
    except ValueError as exc:
        raise NoFactorization(f"expansion of {matrix} produced an invalid word") from exc
    base_trace = cycle_monodromy(primitive).trace
    power = 1
    prev, cur = 2, base_trace
    while cur < trace:
        prev, cur = cur, base_trace * cur - prev
        power += 1
    if cur != trace:
        raise NoFactorization(
            f"{matrix} (trace {trace}) is not conjugate to a power of {primitive}"
        )
    return CycleWord(primitive.entries * power).least_rotation()
