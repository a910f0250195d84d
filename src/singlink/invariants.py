"""Contact-geometric invariants and the homology cross-check harness.

First Chern class evaluations on handle surfaces equal rotation numbers;
the adjunction defect of a handle is rot - (framing - 2*genus + 2); the
Euler class of the boundary contact structure lives in the cokernel of the
family's presentation matrix; and the d3 invariant of a plane field with
torsion Chern class is (c^2 - 3*sigma - 2*chi)/4 + q for a contact surgery
diagram with q many (+1)-components, normalized so the standard tight
3-sphere has d3 = -1/2.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import TYPE_CHECKING

from ._record import Record
from .families import Family
from .legendrian import ContactSurgeryDiagram, SteinHandleDiagram, TwoHandleSpec
from .linalg import (
    AbelianGroup,
    IntMatrix,
    SnfResult,
    dot,
    mat_vec,
    smith_normal_form,
    solve_rational,
    symmetric_signature,
)
from .openbook import OpenBookDescription, openbook_homology
from .plumbing import PlumbingGraph, intersection_matrix
from .sl2z import Sl2Matrix

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DimensionMismatch",
    "NonTorsionChernClass",
    "CohomologyClassRep",
    "HomologyAgreement",
    "adjunction_defect",
    "is_canonical",
    "euler_class",
    "euler_classes",
    "reduce_euler_classes",
    "d3_invariant",
    "homology_cross_check",
    "homology_agreement",
]


class DimensionMismatch(ValueError):
    """Vector length does not match the family's presentation."""


class NonTorsionChernClass(ValueError):
    """The Chern class is not torsion, so d3 is undefined."""


def adjunction_defect(handle: TwoHandleSpec) -> int:
    """rot - (framing - 2*genus + 2); zero exactly at adjunction equality."""
    return handle.rot - (handle.smooth_framing - 2 * handle.surface_genus + 2)


def is_canonical(diagram: SteinHandleDiagram) -> bool:
    """True when the diagram realizes adjunction on every handle, possibly
    after reversing the orientation of every attaching circle (which negates
    the whole rot vector)."""
    # negating rot turns the defect rot - c into -rot - c = defect - 2 * rot
    return all(adjunction_defect(h) == 0 for h in diagram.handles) or all(
        adjunction_defect(h) == 2 * h.rot for h in diagram.handles
    )


class CohomologyClassRep(Record):
    """A class sum(v_j * meridian_j) reduced in the cokernel of Q.

    ``reduced`` is the image of the vector in Smith normal form coordinates
    (entry i taken mod d_i when d_i > 0); the class vanishes iff every
    reduced entry is zero, in which case ``witness`` solves Q x = v over the
    integers.  ``order`` is None for classes of infinite order.
    """

    __slots__ = ("vector", "presentation", "reduced", "is_zero", "order", "witness")

    def __init__(
        self,
        vector: tuple[int, ...],
        presentation: IntMatrix,
        reduced: tuple[int, ...],
        is_zero: bool,
        order: int | None,
        witness: tuple[int, ...] | None,
    ):
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "is_zero", is_zero)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "witness", witness)

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
    return euler_classes(family, (rot_vector,))[0]


def euler_classes(family: Family, rot_vectors) -> tuple[CohomologyClassRep, ...]:
    """``euler_class`` of each vector, from one Smith normal form of Q.

    Both canonical structures of a family share the presentation, so their
    Euler classes need only one reduction.
    """
    q = family.presentation()
    return reduce_euler_classes(family, q, smith_normal_form(q), rot_vectors)


def reduce_euler_classes(
    family: Family, q: IntMatrix, snf: SnfResult, rot_vectors
) -> tuple[CohomologyClassRep, ...]:
    """``euler_classes`` against a presentation ``q`` of the family that is
    already reduced to ``snf``, so a caller holding that reduction (for a
    cusp, the plumbing intersection matrix) does not run it again."""
    vectors = []
    for rot_vector in rot_vectors:
        v = tuple(map(index, rot_vector))
        if len(v) != len(q) and len(v) == len(family.handle_slots()):
            v = (0,) * (len(q) - len(v)) + v
        if len(v) != len(q):
            raise DimensionMismatch(
                f"rot vector of length {len(v)} does not fit a {len(q)}-component presentation"
            )
        vectors.append(v)
    return tuple(_reduce_class(q, snf, v) for v in vectors)


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
    return CohomologyClassRep(
        vector=v,
        presentation=q,
        reduced=tuple(reduced),
        is_zero=is_zero,
        order=order,
        witness=snf.solve_reduced(w) if is_zero else None,
    )


def d3_invariant(diagram: ContactSurgeryDiagram) -> Fraction:
    """d3 invariant of the contact structure given by the surgery diagram.

    Evaluates (c^2 - 3*sigma(Q) - 2*chi)/4 + q with chi = 1 + #components
    and q = number of (+1)-components; requires a torsion Chern class.
    """
    from fractions import Fraction

    q_matrix = diagram.presentation_matrix
    rot = diagram.rot_vector
    solution = solve_rational(q_matrix, rot)
    if solution is None:
        raise NonTorsionChernClass("Q x = rot has no rational solution")
    # c^2 = x . rot for any rational solution x of Q x = rot: two solutions
    # differ by a kernel vector, which pairs to zero with the image of Q.
    c2 = Fraction(dot(solution, rot))
    sigma = symmetric_signature(q_matrix)
    chi = 1 + len(diagram.components)
    return (c2 - 3 * sigma - 2 * chi) / 4 + diagram.plus_count


class HomologyAgreement(Record):
    """The three independent H_1 computations and whether they agree."""

    __slots__ = ("family", "plumbing", "monodromy", "openbook")

    def __init__(
        self,
        family: Family,
        plumbing: AbelianGroup,
        monodromy: AbelianGroup,
        openbook: AbelianGroup,
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "plumbing", plumbing)
        object.__setattr__(self, "monodromy", monodromy)
        object.__setattr__(self, "openbook", openbook)

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
    graph = family.graph()
    graph_snf = smith_normal_form(intersection_matrix(graph))
    return homology_agreement(family, family.monodromy(), graph, graph_snf, family.openbook())


def homology_agreement(
    family: Family,
    monodromy: Sl2Matrix,
    graph: PlumbingGraph,
    graph_snf: SnfResult,
    book: OpenBookDescription,
) -> HomologyAgreement:
    """``homology_cross_check`` from the family's monodromy, plumbing graph
    and open book, built once by the caller, and the Smith normal form of
    the graph's intersection matrix, which a cusp shares with its Euler
    classes.  The three groups still come from three different matrices:
    the graph's form, A - I and the open-book presentation."""
    a = monodromy
    delta = ((a.a - 1, a.b), (a.c, a.d - 1))
    return HomologyAgreement(
        family=family,
        plumbing=graph_snf.cokernel(graph.boundary_free_rank()),
        monodromy=smith_normal_form(delta).cokernel(1),
        openbook=openbook_homology(book),
    )
