"""Contact-geometric invariants that read Q, and the homology cross-check.

A Stein diagram is its rot vector, the first Chern class evaluated on
its handle surfaces; adjunction equality needs no more than that vector
and the handle slots, so its helpers live in ``legendrian``.  The Euler
class of the boundary contact structure lives in the cokernel of Q, the
plumbing intersection form, which is the linking matrix of the Stein
2-handles; and the d3 invariant of a plane field with torsion Chern class
is Gompf's (c^2 - 3*sigma(Q) - 2*chi)/4 on the Stein filling, chi = 1 -
#1-handles + #2-handles, normalized so the standard tight 3-sphere has
d3 = -1/2.  Q is nonsingular for every family (|det Q| = trace - 2 for a
cusp, n for Elliptic(n)), so every class is torsion: it is the int pair
(k, y) of its order k and one integer solution y of Q y = k*c.  It
vanishes when k == 1, y is then its witness, and c^2 = y.Q.y / k^2.  A
cusp's d3 is refused by ``families.check_d3_supported`` before Q is
reduced.

``FamilyReduction(family)`` reduces Q once for the three things that rest
on it, the Euler classes, the d3 invariants and the three-way H_1, the
triple (plumbing, monodromy, openbook) of groups; ``euler_class``,
``d3_invariant`` and ``homology_cross_check`` are one-call forms of its
three methods.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import index

from ._record import Record
from .families import Family, check_d3_supported
from .legendrian import check_rot_vector
from .linalg import AbelianGroup, SnfResult, dot, smith_normal_form, symmetric_signature
from .linalg import two_column_cokernel
from .openbook import openbook_homology
from .plumbing import intersection_matrix
from .sl2z import Sl2Matrix

__all__ = [
    "DimensionMismatch",
    "FamilyReduction",
    "euler_class",
    "d3_invariant",
    "homology_cross_check",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the family's presentation."""


def euler_class(family: Family, rot_vector) -> tuple[int, tuple[int, ...]]:
    """Euler class of the contact structure with the given rotation numbers,
    as its order k in coker Q and one integer solution y of Q y = k * rot.

    The vector has one entry per 2-handle, that is per plumbing vertex (one
    for elliptic, k for a cusp word); any other length raises
    DimensionMismatch.  Entries must be integers: anything else raises
    TypeError.
    """
    return FamilyReduction(family).euler_classes((rot_vector,))[0]


def _reduce_class(snf: SnfResult, v: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The class (k, y) of v from one replay of the row log: with w = u v,
    entry i has order d_i / gcd(d_i, w_i), and k v lifts from k w."""
    w = snf.reduce(v)
    k = lcm(*[d // gcd(d, c) for d, c in zip(snf.diagonal, w)])
    return k, snf.lift([k * x for x in v], [k * c for c in w])


def d3_invariant(family: Family, rot_vector):
    """d3 invariant, a Fraction, of the contact structure of the one Stein
    diagram of the family with the given rot vector.  A cusp is refused
    before the vector is checked and before Q is reduced; a vector that
    ``check_rot_vector`` refuses raises ValueError or TypeError."""
    check_d3_supported(family)
    rots = check_rot_vector(family, rot_vector)
    reduction = FamilyReduction(family)
    return reduction.d3_invariants(reduction.euler_classes((rots,)))[0]


def homology_cross_check(family: Family) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    """Compute H_1 three ways, as the triple (plumbing, monodromy, openbook):
    plumbing boundary, Z + coker(A - I) from the torus-bundle monodromy,
    and the open book presentation.  The three agree for every family.

    >>> from singlink.families import Cusp
    >>> [str(group) for group in homology_cross_check(Cusp((2, 3)))]
    ['Z + Z/2', 'Z + Z/2', 'Z + Z/2']
    """
    return FamilyReduction(family).homology(family.monodromy())


class FamilyReduction(Record):
    """The family's presentation Q with its Smith normal form, made once.

    The plumbing graph is built once and Q is its intersection form, the
    linking matrix of the Stein 2-handles (one per vertex), the same way for
    both families.  A Q with a zero invariant factor raises ValueError, so
    every Euler class has finite order.  The monodromy is not built here:
    a caller passes it to ``homology``.

    >>> from singlink.families import Cusp
    >>> reduction = FamilyReduction(Cusp((2, 3)))
    >>> reduction.euler_classes([(0, -1), (0, 1), (1, 1)])
    ((1, (1, 1)), (1, (-1, -1)), (2, (-5, -4)))
    >>> family = reduction.family
    >>> plumbing, monodromy, openbook = reduction.homology(family.monodromy())
    >>> str(plumbing)
    'Z + Z/2'
    """

    __slots__ = ("family", "graph", "presentation", "snf")

    def __init__(self, family: Family):
        graph = family.graph()
        q = intersection_matrix(graph)
        snf = smith_normal_form(q)
        if 0 in snf.diagonal:
            raise ValueError(f"the intersection form of {family.label} is singular")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "presentation", q)
        object.__setattr__(self, "snf", snf)

    def euler_classes(self, rot_vectors) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``euler_class`` of each vector, all from the one reduction of Q."""
        q = self.presentation
        vectors = []
        for rot_vector in rot_vectors:
            v = tuple(map(index, rot_vector))
            if len(v) != len(q):
                raise DimensionMismatch(
                    f"rot vector of length {len(v)} does not fit a {len(q)}-component presentation"
                )
            vectors.append(v)
        return tuple(_reduce_class(self.snf, v) for v in vectors)

    def d3_invariants(self, classes) -> tuple:
        """d3 invariant, a Fraction, of the Stein diagram behind each Euler
        class (k, y) of ``euler_classes``, all from one signature of Q.

        Gompf's formula on the Stein filling: (c^2 - 3*sigma(Q) - 2*chi)/4,
        with c the rot vector, Q the linking matrix of the 2-handles and
        chi = 1 - #1-handles + #2-handles.  c^2 = x . c with Q x = c, that
        is y . Q y / k^2 for the class's order k and its solution y, Q y = k*c,
        so the class alone gives it.
        Requires a family that ``families.check_d3_supported`` accepts.

        >>> from singlink.families import Elliptic
        >>> from singlink.legendrian import canonical_filling
        >>> reduction = FamilyReduction(Elliptic(5))
        >>> rots = [canonical_filling(Elliptic(5), sign) for sign in ("min", "max")]
        >>> [str(d3) for d3 in reduction.d3_invariants(reduction.euler_classes(rots))]
        ['-1/2', '-1/2']
        """
        q = self.presentation
        check_d3_supported(self.family)
        from fractions import Fraction  # after the refusal: a cusp report imports none

        sigma = symmetric_signature(q)
        chi = 1 - self.family.one_handle_count + len(q)
        values = []
        for k, y in classes:
            c2 = Fraction(dot(y, [dot(row, y) for row in q]), k * k)
            values.append((c2 - 3 * sigma - 2 * chi) / 4)
        return tuple(values)

    def homology(self, monodromy: Sl2Matrix) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
        """``homology_cross_check`` from the family's monodromy; the open
        book is read off the family.

        The three groups come from three different matrices: Q, A - I and
        the open-book presentation.  The plumbing H_1 is Q's cokernel plus
        the graph's ``boundary_free_rank``.  The other two have at most two
        columns and are read off their minors, with no elimination, so they
        check Q's Smith normal form independently.
        """
        plumbing = self.snf.cokernel(self.graph.boundary_free_rank())
        a = monodromy
        delta = ((a.a - 1, a.b), (a.c, a.d - 1))
        return plumbing, two_column_cokernel(delta, 1), openbook_homology(self.family)
