"""Plumbing graphs of the two link families and their boundary homology.

Cusp links live on a circular plumbing of spheres (a loop with one vertex
when k = 1, a double edge when k = 2); simple elliptic links on a single
genus-one vertex.  The intersection matrix follows the usual plumbing
calculus: diagonal = Euler weight plus twice the loop count, off-diagonal
= edge multiplicity.
"""
from __future__ import annotations

from dataclasses import dataclass

from .families import (
    ChainUnknot,
    EllipticCore,
    Family,
    InvalidParameter,
    NodalDoublePass,
    SizeLimitExceeded,
)
from .linalg import AbelianGroup, IntMatrix, smith_normal_form
from .sl2z import CycleWord

__all__ = [
    "VERTEX_LIMIT",
    "PlumbingVertex",
    "PlumbingGraph",
    "SurgeryDescription",
    "cusp_graph",
    "elliptic_graph",
    "intersection_matrix",
    "boundary_homology",
    "smooth_surgery_description",
    "InvalidParameter",
]

# Most vertices whose intersection matrix may be built: k for a cusp word of
# length k.  The matrix is k x k and its Smith normal form costs about k^3,
# so a longer word is refused before the matrix exists.
VERTEX_LIMIT = 1_000


@dataclass(frozen=True)
class PlumbingVertex:
    weight: int
    genus: int = 0

    def __post_init__(self):
        if self.genus < 0:
            raise InvalidParameter(f"vertex genus must be nonnegative, got {self.genus}")


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted multigraph; edges are unordered index pairs, loops allowed."""

    vertices: tuple[PlumbingVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        n = len(self.vertices)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidParameter(f"edge ({i}, {j}) out of range for {n} vertices")

    def loop_count(self, vertex: int) -> int:
        return sum(1 for i, j in self.edges if i == j == vertex)

    def component_count(self) -> int:
        n = len(self.vertices)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        return len({find(i) for i in range(n)})

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


def cusp_graph(word: CycleWord) -> PlumbingGraph:
    """Circular plumbing with weights -n_i; loop for k = 1, double edge for k = 2."""
    weights = tuple(-n for n in word)
    k = len(weights)
    vertices = tuple(PlumbingVertex(w) for w in weights)
    if k == 1:
        edges = ((0, 0),)
    elif k == 2:
        edges = ((0, 1), (0, 1))
    else:
        edges = tuple((i, (i + 1) % k) for i in range(k))
    return PlumbingGraph(vertices, edges)


def elliptic_graph(n: int) -> PlumbingGraph:
    """One genus-one vertex of weight -n."""
    if n < 1:
        raise InvalidParameter(f"elliptic parameter must be >= 1, got {n}")
    return PlumbingGraph((PlumbingVertex(-n, genus=1),), ())


def intersection_matrix(graph: PlumbingGraph) -> IntMatrix:
    """Symmetric intersection form: Q_ii = weight_i + 2 * loops_i, Q_ij = edge count.

    A graph with more than VERTEX_LIMIT vertices raises SizeLimitExceeded.
    """
    n = len(graph.vertices)
    if n > VERTEX_LIMIT:
        raise SizeLimitExceeded(
            f"the plumbing graph has more vertices ({n:,}) than the limit of {VERTEX_LIMIT:,}"
        )
    q = [[0] * n for _ in range(n)]
    for i, v in enumerate(graph.vertices):
        q[i][i] = v.weight + 2 * graph.loop_count(i)
    for i, j in graph.edges:
        if i != j:
            q[i][j] += 1
            q[j][i] += 1
    return tuple(tuple(row) for row in q)


def boundary_homology(graph: PlumbingGraph) -> AbelianGroup:
    """First homology of the plumbed 3-manifold boundary.

    Free rank is ``graph.boundary_free_rank()``; torsion is the cokernel of
    the intersection matrix.

    >>> boundary_homology(cusp_graph(CycleWord((2, 2, 3))))
    AbelianGroup(free_rank=1, torsion=(3,))
    """
    snf = smith_normal_form(intersection_matrix(graph))
    return snf.cokernel(graph.boundary_free_rank())


@dataclass(frozen=True)
class SurgeryDescription:
    """Symbolic smooth surgery presentation; emission only, nothing consumes it."""

    kind: str
    framings: tuple[int, ...]
    notes: tuple[str, ...]
    family_json: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "framings": list(self.framings),
            "notes": list(self.notes),
            "family": self.family_json,
        }

    def to_text(self) -> str:
        body = "[" + ", ".join(str(f) for f in self.framings) + "]"
        if self.kind == "chain-with-ring":
            return f"chain {body} + 0-framed ring; " + "; ".join(self.notes)
        if self.kind == "nodal-double-pass":
            return f"single {self.framings[0]}-framed unknot; " + "; ".join(self.notes)
        return f"Borromean framings {body}; " + "; ".join(self.notes)


_SURGERY_PICTURES = {
    EllipticCore: (
        "borromean",
        (
            "pairwise linking numbers are zero",
            "the two 0-framed components trade for dotted circles (1-handles)",
        ),
    ),
    NodalDoublePass: (
        "nodal-double-pass",
        (
            "runs over the 1-handle twice with zero linking",
            "the 1-handle is equivalently a 0-framed unknot",
        ),
    ),
    ChainUnknot: (
        "chain-with-ring",
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

    The picture follows from the tag of the first 2-handle, and the framings
    are the diagonal of the family's presentation matrix."""
    kind, notes = _SURGERY_PICTURES[type(family.handle_slots()[0][0])]
    q = family.presentation()
    return SurgeryDescription(
        kind=kind,
        framings=tuple(q[i][i] for i in range(len(q))),
        notes=notes,
        family_json=family.to_json_dict(),
    )
