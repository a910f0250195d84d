"""Contact-geometric invariants and the homology cross-check harness.

First Chern class evaluations on handle surfaces equal rotation numbers.
The adjunction formula framing - 2*genus + 2 is written once, as the
adjunction vector of a handle pattern: the rot vector at which every
handle has zero adjunction defect.  A handle's defect is its rot minus its
slot's entry of that vector, and a diagram is canonical when its whole rot
vector equals the adjunction vector or its negative.  The Euler class of
the boundary contact structure lives in the cokernel of the family's
presentation matrix Q; and the d3 invariant of a plane field with torsion
Chern class is read off the Stein diagram itself, each 1-handle taken as a
contact (+1)-surgery on a standard Legendrian unknot and each 2-handle as
a (-1)-surgery: (c^2 - 3*sigma - 2*chi)/4 + q with q the 1-handle count,
normalized so the standard tight 3-sphere has d3 = -1/2.

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
from .linalg import IntMatrix, SnfResult, dot, mat_vec, smith_normal_form, symmetric_signature
from .linalg import two_column_cokernel
from .openbook import OpenBookDescription, openbook_homology
from .plumbing import PlumbingGraph, presentation_matrix
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
    c = adjunction_vector([(h.tag, h.smooth_framing) for h in diagram.handles])
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

    The vector is indexed by the components of the family's presentation
    (three for elliptic, the k plumbing vertices for a cusp word); a vector
    with one entry per 2-handle, such as the elliptic handle rot alone, is
    placed in the last slots, the 1-handle slots taking coefficient zero.
    Entries must be integers: anything else raises TypeError.
    """
    return FamilyReduction(family).euler_classes((rot_vector,))[0]


def _reduce_class(q: IntMatrix, snf: SnfResult, v: tuple[int, ...]) -> CohomologyClassRep:
    w = mat_vec(snf.u, v)
    reduced = []
    order: int | None = 1
    for d, c in zip(snf.diagonal_entries(), w):  # Q is square
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
    witness = snf.solve_reduced(w) if is_zero else None
    return CohomologyClassRep(v, q, tuple(reduced), is_zero, order, witness)


def check_d3_supported(family: Family, graph: PlumbingGraph) -> None:
    """Refuse d3 where Q is not the linking matrix of the surgery components:
    Q has a row per genus 1-handle, as in the elliptic diag(0, 0, -n), but
    none for a graph cycle's 1-handle, so a cusp raises
    UnsupportedPresentation.  The graph alone decides, before Q is reduced."""
    if graph.first_betti():
        components = graph.boundary_free_rank() + len(graph.vertices)
        raise UnsupportedPresentation(
            f"{family.label} has no linking matrix for its {components} surgery components"
        )


def d3_invariant(diagram: SteinHandleDiagram):
    """d3 invariant, a Fraction, of the contact structure of the Stein
    diagram alone, a cusp refused on its graph before Q is reduced."""
    family = diagram.family
    check_d3_supported(family, family.graph())
    return FamilyReduction(family).d3_invariants((diagram,))[0]


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

    The plumbing graph is built once and Q is read off it by
    ``plumbing.presentation_matrix``, the same way for both families; a
    2-handle per vertex, the other rows of Q 1-handles.  The open book and
    the monodromy are not built here: a caller passes them to ``homology``.

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
        q = presentation_matrix(graph)
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
            if len(v) != len(q) and len(v) == len(self.graph.vertices):
                v = (0,) * (len(q) - len(v)) + v
            if len(v) != len(q):
                raise DimensionMismatch(
                    f"rot vector of length {len(v)} does not fit a {len(q)}-component presentation"
                )
            vectors.append(v)
        return tuple(_reduce_class(q, self.snf, v) for v in vectors)

    def d3_invariants(self, diagrams) -> tuple:
        """d3 invariant, a Fraction, of each Stein diagram of the family, all
        from the one reduction of Q and one signature of it.

        Each 1-handle is a contact (+1)-surgery on a standard Legendrian
        unknot (tb -1, rot 0) and each 2-handle a (-1)-surgery, with Q as the
        linking matrix of these components.  Evaluates (c^2 - 3*sigma(Q) -
        2*chi)/4 + q, where c is the rot vector with a zero per 1-handle in
        front, chi = 1 + #components and q = #1-handles; c^2 = x . c for any
        rational solution x of Q x = c, since two solutions differ by a
        kernel vector, which pairs to zero with the image of Q.  Requires a
        torsion Chern class and a row of Q per component, so
        ``check_d3_supported`` refuses a cusp first.

        >>> from singlink.families import Elliptic
        >>> from singlink.legendrian import canonical_filling
        >>> diagrams = [canonical_filling(Elliptic(5), sign) for sign in ("min", "max")]
        >>> [str(d3) for d3 in FamilyReduction(Elliptic(5)).d3_invariants(diagrams)]
        ['-1/2', '-1/2']
        """
        graph, q = self.graph, self.presentation
        check_d3_supported(self.family, graph)
        from fractions import Fraction  # after the refusal: a cusp report imports none

        ones = len(q) - len(graph.vertices)
        sigma = symmetric_signature(q)
        chi = 1 + len(q)
        values = []
        for diagram in diagrams:
            rot = (0,) * ones + diagram.rot_vector
            solution = self.snf.solve(rot, exact=False)
            if solution is None:
                raise NonTorsionChernClass("Q x = rot has no rational solution")
            values.append((Fraction(dot(solution, rot)) - 3 * sigma - 2 * chi) / 4 + ones)
        return tuple(values)

    def homology(self, monodromy: Sl2Matrix, book: OpenBookDescription) -> HomologyAgreement:
        """``homology_cross_check`` from the family's monodromy and open book.

        The three groups come from three different matrices: Q, A - I and
        the open-book presentation.  Q's genus rows give the plumbing H_1
        all its free rank but the graph's first Betti number.  The other two
        have at most two columns and are read off their minors, with no
        elimination, so they check Q's Smith normal form independently.
        """
        plumbing = self.snf.cokernel(self.graph.first_betti())
        a = monodromy
        delta = ((a.a - 1, a.b), (a.c, a.d - 1))
        return HomologyAgreement(
            self.family,
            plumbing,
            two_column_cokernel(delta, 1),
            openbook_homology(book),
        )
