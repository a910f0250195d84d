"""Plumbing graphs of the two link families and their boundary homology.

Cusp links live on a circular plumbing of spheres (a loop with one vertex
when k = 1, a double edge when k = 2); simple elliptic links on a single
genus-one vertex.  The intersection matrix follows the usual plumbing
calculus: diagonal = Euler weight plus twice the loop count, off-diagonal
= edge multiplicity; it is the linking matrix of the Stein 2-handles, the
one form every invariant reads.
"""
from __future__ import annotations

from operator import index

from ._record import Record
from .families import Family, InvalidParameter, SizeLimitExceeded
from .linalg import AbelianGroup, IntMatrix, smith_normal_form

__all__ = [
    "VERTEX_LIMIT",
    "PlumbingVertex",
    "PlumbingGraph",
    "SurgeryDescription",
    "intersection_matrix",
    "boundary_homology",
    "smooth_surgery_description",
]

# Most vertices whose intersection matrix may be built: k for a cusp word of
# length k.  The k x k Smith normal form of (3,)^k grows about as k^2 (0.06,
# 0.24, 0.72 s at k = 250, 500, 1000: best of 5 in one process, Python 3.11,
# a shared 2-core Intel Xeon), so a longer word is refused before it is built.
VERTEX_LIMIT = 1_000


class PlumbingVertex(Record):
    __slots__ = ("weight", "genus")

    def __init__(self, weight: int, genus: int = 0):
        weight, genus = index(weight), index(genus)
        if genus < 0:
            raise InvalidParameter(f"vertex genus must be nonnegative, got {genus}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "genus", genus)


class PlumbingGraph(Record):
    """Weighted multigraph; edges are unordered index pairs, loops allowed."""

    __slots__ = ("vertices", "edges")

    def __init__(
        self, vertices: tuple[PlumbingVertex, ...], edges: tuple[tuple[int, int], ...]
    ):
        vertices = tuple(vertices)
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
        return sum(v.genus for v in self.vertices)

    def boundary_free_rank(self) -> int:
        """Free rank of the boundary H_1 beyond the cokernel of the
        intersection matrix: b_1(graph) + 2 * (total vertex genus)."""
        return self.first_betti() + 2 * self.total_genus()

    def to_json_dict(self) -> dict:
        return {
            "vertices": [{"weight": v.weight, "genus": v.genus} for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["graph plumbing {"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  v{i} [label="v{i} [{v.weight}, g={v.genus}]"];')
        for i, j in self.edges:
            lines.append(f"  v{i} -- v{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def intersection_matrix(graph: PlumbingGraph) -> IntMatrix:
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
    for i, v in enumerate(graph.vertices):
        q[i][i] = v.weight
    for i, j in graph.edges:
        if i == j:
            q[i][i] += 2
        else:
            q[i][j] += 1
            q[j][i] += 1
    return tuple(tuple(row) for row in q)


def boundary_homology(graph: PlumbingGraph) -> AbelianGroup:
    """First homology of the plumbed 3-manifold boundary.

    Free rank is ``graph.boundary_free_rank()``; torsion is the cokernel of
    the intersection matrix.

    >>> from singlink.families import Cusp
    >>> boundary_homology(Cusp((2, 2, 3)).graph())
    AbelianGroup(free_rank=1, torsion=(3,))
    """
    snf = smith_normal_form(intersection_matrix(graph))
    return snf.cokernel(graph.boundary_free_rank())


class SurgeryDescription(Record):
    """Symbolic smooth surgery presentation; emission only, nothing consumes it."""

    __slots__ = ("kind", "framings", "notes", "family_json")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "framings": list(self.framings),
            "notes": list(self.notes),
            "family": self.family_json,
        }

    def to_text(self) -> str:
        body = "[" + ", ".join(str(f) for f in self.framings) + "]"
        head = _SURGERY_PICTURES[self.kind][0].format(body=body, first=self.framings[0])
        return head + "; " + "; ".join(self.notes)


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


def smooth_surgery_description(family: Family) -> SurgeryDescription:
    """Surgery presentation of the link: framed chain plus ring (cusp, k > 1),
    a double-pass unknot over a 1-handle (cusp, k = 1), or Borromean rings
    with framings (0, 0, -n) (elliptic).

    The picture is the family's ``surgery_picture``, and the framings are a
    0 per genus 1-handle (2 per unit of vertex genus), then the diagonal of
    the intersection form."""
    kind = family.surgery_picture
    graph = family.graph()
    q = intersection_matrix(graph)
    framings = (0,) * (2 * graph.total_genus()) + tuple(q[i][i] for i in range(len(q)))
    return SurgeryDescription(kind, framings, _SURGERY_PICTURES[kind][1], family.to_json_dict())
