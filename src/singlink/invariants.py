"""Contact-geometric invariants and the homology cross-check harness.

First Chern class evaluations on handle surfaces equal rotation numbers.
The adjunction formula framing - 2*genus + 2 is written once, as the
adjunction vector of a handle pattern: the rot vector at which every
handle has zero adjunction defect.  A handle's defect is its rot minus its
slot's entry of that vector, and a diagram is canonical when its whole rot
vector equals the adjunction vector or its negative.  The Euler class of
the boundary contact structure lives in the cokernel of Q, the plumbing
intersection form, which is the linking matrix of the Stein 2-handles; and
the d3 invariant of a plane field with torsion Chern class is Gompf's
(c^2 - 3*sigma(Q) - 2*chi)/4 on the Stein filling, chi = 1 - #1-handles +
#2-handles, normalized so the standard tight 3-sphere has d3 = -1/2; c^2
pairs c with the witness of its Euler class (of k*c, over k, for a class
of order k).

``FamilyReduction(family)`` reduces Q once for the three things that rest
on it, the Euler classes, the d3 invariants and the three-way H_1;
``euler_class``, ``d3_invariant`` and ``homology_cross_check`` are
one-call forms of its three methods.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import index

from ._record import Record
from .families import Family, UnsupportedPresentation
from .legendrian import SteinHandleDiagram, TwoHandleSpec
from .linalg import IntMatrix, SnfResult, dot, smith_normal_form, symmetric_signature
from .linalg import two_column_cokernel
from .openbook import OpenBookDescription, openbook_homology
from .plumbing import PlumbingGraph, intersection_matrix
from .sl2z import Sl2Matrix

__all__ = [
    "DimensionMismatch",
    "NonTorsionChernClass",
    "CohomologyClassRep",
    "HomologyAgreement",
    "FamilyReduction",
    "adjunction_vector",
    "adjunction_defect",
    "is_canonical",
    "euler_class",
    "check_d3_supported",
    "d3_invariant",
    "homology_cross_check",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the family's presentation."""


class NonTorsionChernClass(ValueError):
    """The Chern class is not torsion, so d3 is undefined."""


def adjunction_vector(slots) -> tuple[int, ...]:
    """The adjunction vector c of a handle pattern: framing - 2*genus + 2
    for each (tag, smooth framing) slot, the rot vector at which every
    handle has zero adjunction defect.

    >>> from singlink.families import CHAIN_UNKNOT
    >>> adjunction_vector([(CHAIN_UNKNOT, -n) for n in (3, 4, 5)])  # cusp (3, 4, 5)
    (-1, -2, -3)
    """
    return tuple([framing - 2 * tag.genus + 2 for tag, framing in slots])


def adjunction_defect(handle: TwoHandleSpec) -> int:
    """rot minus the handle's entry of the adjunction vector; zero exactly
    at adjunction equality."""
    (target,) = adjunction_vector(((handle.tag, handle.smooth_framing),))
    return handle.rot - target


def is_canonical(diagram: SteinHandleDiagram) -> bool:
    """True when the rot vector is the handles' adjunction vector c or -c.

    At c every handle realizes adjunction equality; -c is the same diagram
    with the orientation of every attaching circle reversed, which negates
    the whole rot vector.  The defect rot - c equals 2*rot exactly when
    rot = -c, so this is adjunction equality on every handle after a
    possible reversal, decided by one comparison of whole vectors.
    """
    c = adjunction_vector(diagram.family.handle_slots())
    return diagram.rot_vector in (c, tuple(-x for x in c))


class CohomologyClassRep(Record):
    """A class sum(v_j * meridian_j) reduced in the cokernel of Q.

    ``reduced`` is the image of the vector in Smith normal form coordinates
    (entry i taken mod d_i when d_i > 0); the class vanishes iff every
    reduced entry is zero, in which case ``witness`` solves Q x = v over the
    integers.  ``order`` is None for classes of infinite order.
    """

    __slots__ = ("vector", "presentation", "reduced", "is_zero", "order", "witness")

    def to_json_dict(self) -> dict:
        return {
            "is_zero": self.is_zero,
            "order": self.order,
            "witness": None if self.witness is None else list(self.witness),
        }


def euler_class(family: Family, rot_vector) -> CohomologyClassRep:
    """Euler class of the contact structure with the given rotation numbers.

    The vector has one entry per 2-handle, that is per plumbing vertex (one
    for elliptic, k for a cusp word); any other length raises
    DimensionMismatch.  Entries must be integers: anything else raises
    TypeError.
    """
    return FamilyReduction(family).euler_classes((rot_vector,))[0]


def _reduce_class(q: IntMatrix, snf: SnfResult, v: tuple[int, ...]) -> CohomologyClassRep:
    w = snf.reduce(v)
    reduced = []
    order: int | None = 1
    for d, c in zip(snf.diagonal, w):  # Q is square
        if d:
            r = c % d
            reduced.append(r)
            if r and order is not None:
                order = lcm(order, d // gcd(d, r))
        else:
            reduced.append(c)
            if c:
                order = None
    is_zero = all(x == 0 for x in reduced)
    witness = snf.lift(v, w) if is_zero else None
    return CohomologyClassRep(v, q, tuple(reduced), is_zero, order, witness)


def check_d3_supported(family: Family, graph: PlumbingGraph) -> None:
    """Refuse d3 of a family whose graph has a cycle, a cusp, with
    UnsupportedPresentation.  Gompf's formula on Q applies to a cusp too,
    but its value is not reported until the resolution-graph cross-check
    and the benchmark's cusp checks land with it.  The graph alone decides,
    before Q is reduced."""
    if graph.first_betti():
        components = family.one_handle_count + len(graph.vertices)
        raise UnsupportedPresentation(
            f"{family.label} has no linking matrix for its {components} surgery components"
        )


def d3_invariant(diagram: SteinHandleDiagram):
    """d3 invariant, a Fraction, of the contact structure of the Stein
    diagram alone, a cusp refused on its graph before Q is reduced."""
    family = diagram.family
    check_d3_supported(family, family.graph())
    reduction = FamilyReduction(family)
    return reduction.d3_invariants(reduction.euler_classes((diagram.rot_vector,)))[0]


class HomologyAgreement(Record):
    """The three independent H_1 computations and whether they agree."""

    __slots__ = ("family", "plumbing", "monodromy", "openbook")

    @property
    def all_equal(self) -> bool:
        return self.plumbing == self.monodromy == self.openbook

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "plumbing": self.plumbing.to_json_dict(),
            "monodromy": self.monodromy.to_json_dict(),
            "openbook": self.openbook.to_json_dict(),
            "all_equal": self.all_equal,
        }


def homology_cross_check(family: Family) -> HomologyAgreement:
    """Compute H_1 three ways: plumbing boundary, Z + coker(A - I) from the
    torus-bundle monodromy, and the open book presentation.

    >>> from singlink.families import Cusp
    >>> report = homology_cross_check(Cusp((2, 3)))
    >>> report.all_equal, str(report.openbook)
    (True, 'Z + Z/2')
    """
    return FamilyReduction(family).homology(family.monodromy(), family.openbook())


class FamilyReduction(Record):
    """The family's presentation Q with its Smith normal form, made once.

    The plumbing graph is built once and Q is its intersection form, the
    linking matrix of the Stein 2-handles (one per vertex), the same way for
    both families.  The open book and the monodromy are not built here: a
    caller passes them to ``homology``.

    >>> from singlink.families import Cusp
    >>> reduction = FamilyReduction(Cusp((2, 3)))
    >>> [rep.witness for rep in reduction.euler_classes([(0, -1), (0, 1)])]
    [(1, 1), (-1, -1)]
    >>> family = reduction.family
    >>> str(reduction.homology(family.monodromy(), family.openbook()).plumbing)
    'Z + Z/2'
    """

    __slots__ = ("family", "graph", "presentation", "snf")

    def __init__(self, family: Family):
        graph = family.graph()
        q = intersection_matrix(graph)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "presentation", q)
        object.__setattr__(self, "snf", smith_normal_form(q))

    def euler_classes(self, rot_vectors) -> tuple[CohomologyClassRep, ...]:
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
        return tuple(_reduce_class(q, self.snf, v) for v in vectors)

    def d3_invariants(self, classes) -> tuple:
        """d3 invariant, a Fraction, of the Stein diagram behind each Euler
        class of ``euler_classes``, all from one signature of Q.

        Gompf's formula on the Stein filling: (c^2 - 3*sigma(Q) - 2*chi)/4,
        with c the rot vector, Q the linking matrix of the 2-handles and
        chi = 1 - #1-handles + #2-handles.  c^2 = x . c for any rational x
        with Q x = c (a kernel vector pairs to zero with the image of Q):
        the witness when c's Euler class vanishes, else y/k with Q y = k*c
        for the class's order k.  Requires a torsion Chern class and a
        family that ``check_d3_supported`` accepts.

        >>> from singlink.families import Elliptic
        >>> from singlink.legendrian import canonical_filling
        >>> reduction = FamilyReduction(Elliptic(5))
        >>> rots = [canonical_filling(Elliptic(5), sign).rot_vector for sign in ("min", "max")]
        >>> [str(d3) for d3 in reduction.d3_invariants(reduction.euler_classes(rots))]
        ['-1/2', '-1/2']
        """
        q = self.presentation
        check_d3_supported(self.family, self.graph)
        from fractions import Fraction  # after the refusal: a cusp report imports none

        sigma = symmetric_signature(q)
        chi = 1 - self.family.one_handle_count + len(q)
        values = []
        for rep in classes:
            c, k = rep.vector, rep.order
            if k is None:
                raise NonTorsionChernClass("Q x = rot has no rational solution")
            x = rep.witness if rep.is_zero else self.snf.solve([k * y for y in c])
            values.append((Fraction(dot(x, c), k) - 3 * sigma - 2 * chi) / 4)
        return tuple(values)

    def homology(self, monodromy: Sl2Matrix, book: OpenBookDescription) -> HomologyAgreement:
        """``homology_cross_check`` from the family's monodromy and open book.

        The three groups come from three different matrices: Q, A - I and
        the open-book presentation.  The plumbing H_1 is Q's cokernel plus
        the graph's ``boundary_free_rank``.  The other two have at most two
        columns and are read off their minors, with no elimination, so they
        check Q's Smith normal form independently.
        """
        plumbing = self.snf.cokernel(self.graph.boundary_free_rank())
        a = monodromy
        delta = ((a.a - 1, a.b), (a.c, a.d - 1))
        return HomologyAgreement(
            self.family,
            plumbing,
            two_column_cokernel(delta, 1),
            openbook_homology(book),
        )
