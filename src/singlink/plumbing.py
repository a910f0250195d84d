"""Plumbing graphs of the two link families and their boundary homology.

Cusp links live on a circular plumbing of spheres (a loop with one vertex
when k = 1, a double edge when k = 2); simple elliptic links on a single
genus-one vertex.  The intersection matrix follows the usual plumbing
calculus: diagonal = Euler weight plus twice the loop count, off-diagonal
= edge multiplicity; it is the linking matrix of the Stein 2-handles, the
one form every invariant reads.

A vertex is its (weight, genus) int pair.  The surgery picture is no
record either: ``surgery_framings``, ``surgery_json`` and ``surgery_text``
read it off the family and its ``surgery_picture``.
"""
from __future__ import annotations

from operator import index

from ._record import Record
from .families import Family, InvalidParameter, SizeLimitExceeded

__all__ = [
    "VERTEX_LIMIT",
    "PlumbingGraph",
    "intersection_matrix",
    "boundary_homology",
    "surgery_framings",
    "surgery_json",
    "surgery_text",
]

# Most vertices whose intersection matrix may be built: k for a cusp word of
# length k.  The k x k Smith normal form of (3,)^k grows about as k^2 (0.06,
# 0.24, 0.72 s at k = 250, 500, 1000: best of 5 in one process, Python 3.11,
# a shared 2-core Intel Xeon), so a longer word is refused before it is built.
VERTEX_LIMIT = 1_000


class PlumbingGraph(Record):
    """Weighted multigraph; each vertex is a (weight, genus) int pair, and
    edges are unordered index pairs, loops allowed."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[tuple[int, int], ...], edges: tuple[tuple[int, int], ...]):
        vertices = tuple([(index(weight), index(genus)) for weight, genus in vertices])
        for _, genus in vertices:
            if genus < 0:
                raise InvalidParameter(f"vertex genus must be nonnegative, got {genus}")
        edges = tuple(tuple(sorted(map(index, e))) for e in edges)
        n = len(vertices)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameter(f"edge ({i}, {j}) out of range for {n} vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def component_count(self) -> int:
        parent = list(range(len(self.vertices)))  # union-find, halving paths
        for i, j in self.edges:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            parent[i] = j
        return sum([i == p for i, p in enumerate(parent)])  # one root per component

    def first_betti(self) -> int:
        return len(self.edges) - len(self.vertices) + self.component_count()

    def total_genus(self) -> int:
        return sum([genus for _, genus in self.vertices])

    def boundary_free_rank(self) -> int:
        """Free rank of the boundary H_1 beyond the cokernel of the
        intersection matrix: b_1(graph) + 2 * (total vertex genus)."""
        return self.first_betti() + 2 * self.total_genus()

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"weight": w, "genus": g} for w, g in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph plumbing {"]
        for i, (weight, genus) in enumerate(self.vertices):
            lines.append(f'  v{i} [label="v{i} [{weight}, g={genus}]"];')
        for i, j in self.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def intersection_matrix(graph: PlumbingGraph) -> tuple[tuple[int, ...], ...]:
    """Symmetric intersection form: Q_ii = weight_i + 2 * loops_i, Q_ij = edge count.

    Built in one pass over the edges.  A graph with more than VERTEX_LIMIT
    vertices raises SizeLimitExceeded.
    """
    n = len(graph.vertices)
    if n > VERTEX_LIMIT:
        raise SizeLimitExceeded(
            f"the plumbing graph has more vertices ({n:,}) than the limit of {VERTEX_LIMIT:,}"
        )
    q = [[0] * n for _ in range(n)]
    for i, (weight, _) in enumerate(graph.vertices):
        q[i][i] = weight
    for i, j in graph.edges:
        if i == j:
            q[i][i] += 2
        else:
            q[i][j] += 1
            q[j][i] += 1
    return tuple(tuple(row) for row in q)


def boundary_homology(graph: PlumbingGraph):
    """First homology of the plumbed 3-manifold boundary, an AbelianGroup.

    Free rank is ``graph.boundary_free_rank()``; torsion is the cokernel of
    the intersection matrix.  Only the tests and the benchmark's layer
    tracer call it (``invariants.FamilyReduction.homology`` reads the same
    group off its own reduction of Q), so it imports ``linalg`` itself and
    ``graph`` and ``surgery`` compile none of it.

    >>> from singlink.families import Cusp
    >>> boundary_homology(Cusp((2, 2, 3)).graph())
    AbelianGroup(free_rank=1, torsion=(3,))
    """
    from .linalg import smith_normal_form

    snf = smith_normal_form(intersection_matrix(graph))
    return snf.cokernel(graph.boundary_free_rank())


# (text head, notes) of each surgery picture, keyed by the family's ``surgery_picture``
_SURGERY_PICTURES = {
    "borromean": (
        "Borromean framings {body}",
        (
            "pairwise linking numbers are zero",
            "the two 0-framed components trade for dotted circles (1-handles)",
        ),
    ),
    "nodal-double-pass": (
        "single {first}-framed unknot",
        (
            "runs over the 1-handle twice with zero linking",
            "the 1-handle is equivalently a 0-framed unknot",
        ),
    ),
    "chain-with-ring": (
        "chain {body} + 0-framed ring",
        (
            "the chain closes up through the 0-framed ring",
            "the ring trades for a dotted circle (1-handle)",
        ),
    ),
}


def surgery_framings(family: Family) -> tuple[int, ...]:
    """Framings of the family's smooth surgery picture: a 0 per genus
    1-handle (2 per unit of vertex genus), then the diagonal of the
    intersection form.

    >>> from singlink.families import Cusp, Elliptic
    >>> surgery_framings(Elliptic(3)), surgery_text(Cusp((4,))).split(";")[0]
    ((0, 0, -3), 'single -2-framed unknot')
    """
    graph = family.graph()
    q = intersection_matrix(graph)
    return (0,) * (2 * graph.total_genus()) + tuple([q[i][i] for i in range(len(q))])


def surgery_json(family: Family) -> dict:
    """The surgery picture as JSON: its kind (the family's
    ``surgery_picture``), framings, notes and the family."""
    kind = family.surgery_picture
    return {
        "kind": kind,
        "framings": list(surgery_framings(family)),
        "notes": list(_SURGERY_PICTURES[kind][1]),
        "family": family.to_json_dict(),
    }


def surgery_text(family: Family) -> str:
    """The surgery picture as one line: framed chain plus ring (cusp,
    k > 1), a double-pass unknot over a 1-handle (cusp, k = 1), or
    Borromean rings with framings (0, 0, -n) (elliptic), then its notes."""
    head, notes = _SURGERY_PICTURES[family.surgery_picture]
    framings = surgery_framings(family)
    body = "[" + ", ".join(str(f) for f in framings) + "]"
    return head.format(body=body, first=framings[0]) + "; " + "; ".join(notes)
