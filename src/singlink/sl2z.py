"""Exact SL(2,Z) arithmetic for torus-bundle monodromies.

The cusp normal form used throughout the package is the product

    A(n_1, ..., n_k) = M(n_1) * ... * M(n_k),   M(n) = [[n, -1], [1, 0]].

Every valid cycle word (all entries >= 2 with at least one >= 3, or a
single entry >= 3) multiplies out to a hyperbolic matrix of trace >= 3,
and ``factor_cycle`` inverts the construction up to cyclic rotation.  A
matrix classifies itself by its trace, through ``Sl2Matrix.kind``.
"""
from __future__ import annotations

from math import isqrt
from operator import index

from ._record import Record

__all__ = [
    "Sl2Matrix",
    "CycleWord",
    "NotCuspClass",
    "NoFactorization",
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


class Sl2Matrix(Record):
    """A 2x2 integer matrix [[a, b], [c, d]] of determinant one."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        a, b, c, d = index(a), index(b), index(c), index(d)
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def kind(self) -> str:
        """The trace class: "elliptic" for |trace| < 2, "parabolic" for
        |trace| = 2, else "hyperbolic"."""
        trace = abs(self.trace)
        if trace < 2:
            return "elliptic"
        return "parabolic" if trace == 2 else "hyperbolic"

    @property
    def is_cusp_link(self) -> bool:
        """True for the monodromies of cusp singularity links (trace >= 3)."""
        return self.trace >= 3

    @property
    def is_elliptic_link(self) -> bool:
        """True for the conjugates of the simple elliptic monodromies
        [[1, n], [0, 1]], n >= 1.

        A trace-2 matrix other than I is conjugate to [[1, m], [0, 1]] and
        has b = m * p1^2, c = -m * p2^2 for some (p1, p2) != (0, 0), so
        m >= 1 exactly when b > 0 or c < 0.  I (the 3-torus) and the
        conjugates with m <= -1 are not elliptic links.
        """
        return self.trace == 2 and (self.b > 0 or self.c < 0)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


class CycleWord(Record):
    """The tuple (n_1, ..., n_k) parameterizing a cusp monodromy.

    Valid words have every n_i >= 2 with some n_i >= 3 when k > 1, and
    n_1 >= 3 when k = 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(map(index, entries))
        if not entries:
            raise ValueError(f"invalid cycle word {entries}: word must be nonempty")
        if len(entries) == 1:
            if entries[0] < 3:
                raise ValueError(f"invalid cycle word {entries}: {CYCLE_WORD_RULE}")
        elif min(entries) < 2 or max(entries) < 3:
            raise ValueError(f"invalid cycle word {entries}: {CYCLE_WORD_RULE}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def least_rotation(self) -> "CycleWord":
        """The lexicographically least cyclic rotation, in O(k) time and memory."""
        return CycleWord(_least_rotation(self.entries))

    def to_json_list(self) -> list[int]:
        return list(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(n) for n in self.entries) + ")"


def cycle_monodromy(word: CycleWord) -> Sl2Matrix:
    """Multiply out the cycle word in index order.

    >>> cycle_monodromy(CycleWord((2, 3)))
    Sl2Matrix(a=5, b=-2, c=3, d=-1)
    """
    a, b, c, d = 1, 0, 0, 1
    for n in word:  # right-multiply by M(n), in plain integers
        a, b, c, d = a * n + b, -a, c * n + d, -c
    return Sl2Matrix(a, b, c, d)


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


def _blocks(p: int, q: int, disc: int, root: int):
    """The expansion of (p + sqrt(D)) / q in blocks: (entry, count, p, q)
    for an entry other than 2 (count 1) or a whole run of 2s, with the state
    after the block.

    With x = 1 + 1/y, an entry 2 maps y = (P + sqrt(D)) / Q to y - 1, so
    the run has floor(y) entries and ends in one step at any length.
    """
    while True:
        n = _ceil_quadratic(p, q, root)
        if n == 2:
            p, q = q - p, (disc - (q - p) ** 2) // q  # y
            count = _ceil_quadratic(p, q, root) - 1  # floor(y), y irrational
            p -= count * q  # y - count, in (0, 1)
            q = (disc - p * p) // q
            p = q - p  # x = 1 + 1/(y - count)
        else:
            count, p = 1, n * q - p
            q = (p * p - disc) // q
        yield n, count, p, q


def _periodic_expansion(matrix: Sl2Matrix) -> tuple[int, ...]:
    """Period of the minus continued fraction of the attracting fixed point.

    The fixed point x = (a - d + sqrt(tr^2 - 4)) / (2c) is expanded as
    x = n - 1/x' with n = ceil(x); complete quotients are tracked exactly
    as integer pairs (p, q) meaning (p + sqrt(D)) / q, one step per block
    of ``_blocks``.  A quotient x > 1 with conjugate in (0, 1) is reduced,
    and the expansion of a reduced quotient is purely periodic (Zagier,
    *Zetafunktionen und quadratische Körper*, 1981).  So the state at the
    end of the first block that starts reduced comes back a period later,
    again at the end of a block; the period runs from it to its return and
    is refused once it passes the limit, whatever came before it.
    """
    disc = matrix.trace**2 - 4
    root = isqrt(disc)
    if root * root == disc or matrix.c == 0:
        # trace >= 3 rules both out; guards hand-built inputs
        raise NoFactorization(f"{matrix} has no cycle factorization")
    p, q = matrix.a - matrix.d, 2 * matrix.c
    if (p * p - disc) % q:  # q | p^2 - D here makes it hold at every later state
        raise NoFactorization(f"expansion of {matrix} left the quadratic lattice")
    blocks = _blocks(p, q, disc, root)
    reduced = False
    while not reduced:  # the block after the first reduced state ends on the period's path
        reduced = q > 0 and root < p <= root + q and q - p <= root  # x > 1 > conjugate > 0
        _, _, p, q = next(blocks)
    start = (p, q)
    period: list[int] = []
    for n, count, p, q in blocks:
        if len(period) + count > _EXPANSION_LIMIT:
            raise NoFactorization(
                f"the period of {matrix} exceeds the limit of {_EXPANSION_LIMIT:,} entries"
            )
        period += [n] * count
        if (p, q) == start:
            return tuple(period)


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
