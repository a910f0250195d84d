import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import plumbing
from singlink.families import Cusp, Elliptic, InvalidParameter, SizeLimitExceeded
from singlink.legendrian import adjunction_vector
from singlink.linalg import AbelianGroup, smith_normal_form
from singlink.plumbing import (
    PlumbingGraph,
    boundary_homology,
    intersection_matrix,
    surgery_framings,
    surgery_json,
    surgery_text,
)
from singlink.sl2z import cycle_monodromy

from helpers import cusp_words, det_cofactor, presentation_oracle, suite_families


def test_cusp_graph_shapes():
    g = Cusp((2, 2, 3)).graph()
    assert g.vertices == ((-2, 0), (-2, 0), (-3, 0))
    assert all(genus == 0 for _, genus in g.vertices)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]

    g1 = Cusp((4,)).graph()
    assert [weight for weight, _ in g1.vertices] == [-4]
    assert g1.edges == ((0, 0),)
    assert intersection_matrix(g1) == ((-2,),)  # the loop adds 2 to the weight -4

    g2 = Cusp((2, 3)).graph()
    assert [weight for weight, _ in g2.vertices] == [-2, -3]
    assert g2.edges == ((0, 1), (0, 1))


def test_first_betti_is_one_for_cusp_graphs():
    for word in cusp_words(5, 6):
        assert Cusp(word).graph().first_betti() == 1


@st.composite
def multigraphs(draw):
    """Multigraphs of 1 to 12 vertices with up to 15 edges, loops allowed."""
    n = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=15))


@given(multigraphs())
def test_component_count_matches_a_search(graph):
    # the union-find count against a depth-first search over the same edges
    n, edges = graph
    neighbours = {i: set() for i in range(n)}
    for i, j in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen, components = set(), 0
    for start in range(n):
        if start not in seen:
            components += 1
            stack = [start]
            while stack:
                x = stack.pop()
                if x not in seen:
                    seen.add(x)
                    stack.extend(neighbours[x])
    g = PlumbingGraph([(-2, 0)] * n, edges)
    assert g.component_count() == components
    assert g.first_betti() == len(edges) - n + components


def test_elliptic_graph():
    g = Elliptic(1).graph()
    assert g.vertices == ((-1, 1),)
    assert g.edges == ()
    assert g.first_betti() == 0
    assert Elliptic(9).graph().vertices[0] == (-9, 1)
    with pytest.raises(InvalidParameter):
        Elliptic(0)
    with pytest.raises(InvalidParameter):
        Elliptic(-2)


def test_elliptic_parameter_must_be_an_integer():
    with pytest.raises(TypeError):
        Elliptic(2.5)


def test_vertex_limit_is_checked_before_the_matrix(monkeypatch):
    monkeypatch.setattr(plumbing, "VERTEX_LIMIT", 3)
    assert len(intersection_matrix(Cusp((2, 2, 3)).graph())) == 3
    long_graph = Cusp((2, 2, 2, 3)).graph()
    with monkeypatch.context() as m, pytest.raises(
        SizeLimitExceeded, match=r"vertices \(4\) than the limit of 3"
    ):
        m.setattr(PlumbingGraph, "edges", None)  # building Q would fail
        intersection_matrix(long_graph)
    for family in (Cusp((2, 2, 2, 3)), Cusp((2,) * 10**4 + (3,))):
        for picture in (surgery_framings, surgery_json, surgery_text):
            with pytest.raises(SizeLimitExceeded):
                picture(family)
        assert len(family.graph().vertices) == len(family.word)  # the graph still builds


def test_edge_index_validation():
    with pytest.raises(InvalidParameter):
        PlumbingGraph(((-2, 0),), ((0, 1),))


def test_vertex_validation():
    # a vertex is a (weight, genus) int pair with a nonnegative genus
    assert PlumbingGraph([(True, 0), (-2, 1)], ()).vertices == ((1, 0), (-2, 1))
    for genus in (-1, -5):
        with pytest.raises(InvalidParameter, match=f"vertex genus must be nonnegative, got {genus}"):
            PlumbingGraph(((-2, 0), (-2, genus)), ((0, 1),))
    for vertex in ((-2.0, 0), (-2, 1.0), ("-2", 0)):
        with pytest.raises(TypeError):
            PlumbingGraph((vertex,), ())


def test_intersection_matrix_fixed():
    assert intersection_matrix(Cusp((2, 2, 3)).graph()) == (
        (-2, 1, 1),
        (1, -2, 1),
        (1, 1, -3),
    )
    assert intersection_matrix(Cusp((4,)).graph()) == ((-2,),)
    assert intersection_matrix(Cusp((2, 3)).graph()) == ((-2, 2), (2, -3))
    for n in (1, 5, 10):
        assert intersection_matrix(Elliptic(n).graph()) == ((-n,),)


def test_presentation_matrix_matches_oracle():
    # the surgery framings are the diagonal of the padded presentation:
    # 2 * genus zeros, then the diagonal of the intersection form
    for family in [*suite_families(), *(Elliptic(n) for n in range(1, 41))]:
        q = presentation_oracle(family)
        framings = surgery_framings(family)
        assert framings == tuple(q[i][i] for i in range(len(q))), family
    graph = PlumbingGraph(((-3, 2), (-2, 0)), ((0, 1),))

    class GenusTwo:  # the one thing surgery_framings reads
        def graph(self):
            return graph

    assert surgery_framings(GenusTwo()) == (0, 0, 0, 0, -3, -2)


def test_intersection_matrix_symmetric_with_negative_diagonal():
    graphs = [Cusp(w).graph() for w in cusp_words(5, 6)]
    graphs += [Elliptic(n).graph() for n in range(1, 11)]
    for g in graphs:
        q = intersection_matrix(g)
        assert q == tuple(zip(*q))
        assert all(q[i][i] <= -1 for i in range(len(q)))


def test_det_identity_against_trace():
    # |det Q| = trace(A) - 2, determinant via the independent cofactor oracle
    for word in cusp_words(5, 6):
        q = intersection_matrix(Cusp(word).graph())
        trace = cycle_monodromy(word).trace
        assert abs(det_cofactor([list(r) for r in q])) == trace - 2


def test_boundary_homology_fixed():
    assert boundary_homology(Elliptic(3).graph()) == AbelianGroup(2, (3,))
    assert boundary_homology(Elliptic(1).graph()) == AbelianGroup(2)
    assert boundary_homology(Cusp((2, 2, 3)).graph()) == AbelianGroup(1, (3,))
    assert boundary_homology(Cusp((4,)).graph()) == AbelianGroup(1, (2,))


def test_boundary_homology_matches_monodromy_cokernel():
    for word in cusp_words(4, 5):
        a = cycle_monodromy(word)
        delta = ((a.a - 1, a.b), (a.c, a.d - 1))
        assert boundary_homology(Cusp(word).graph()) == smith_normal_form(delta).cokernel(1)
    for n in range(1, 11):
        delta = ((0, n), (0, 0))
        assert boundary_homology(Elliptic(n).graph()) == smith_normal_form(delta).cokernel(1)


def test_torsion_order_equals_trace_minus_two():
    for word in cusp_words(4, 5):
        group = boundary_homology(Cusp(word).graph())
        assert math.prod(group.torsion) == cycle_monodromy(word).trace - 2


def test_dot_emission():
    dot = Cusp((2, 2, 3)).graph().to_dot()
    assert dot.startswith("graph plumbing {")
    assert dot.endswith("}\n")
    assert dot.count(" -- ") == 3
    assert 'v0 [label="v0 [-2, g=0]"];' in dot
    loop_dot = Cusp((4,)).graph().to_dot()
    assert "v0 -- v0;" in loop_dot
    elliptic_dot = Elliptic(5).graph().to_dot()
    assert 'v0 [label="v0 [-5, g=1]"];' in elliptic_dot


def test_json_schema_roundtrip():
    g = Cusp((2, 3)).graph()
    data = json.loads(json.dumps(g.to_json_dict()))
    assert data == {
        "vertices": [{"weight": -2, "genus": 0}, {"weight": -3, "genus": 0}],
        "edges": [[0, 1], [0, 1]],
    }
    rebuilt = PlumbingGraph(
        tuple((v["weight"], v["genus"]) for v in data["vertices"]),
        tuple(tuple(e) for e in data["edges"]),
    )
    assert rebuilt == g


def test_every_family_picture_has_a_surgery_picture():
    families = (Cusp((2, 3)), Cusp((4,)), Elliptic(2))
    assert {family.surgery_picture for family in families} == set(plumbing._SURGERY_PICTURES)
    for family in families:
        assert surgery_json(family)["kind"] == family.surgery_picture


def assert_stein_side_matches_plumbing_side(family):
    """Slot v is (genus_v + loops_v, Q_vv) and the adjunction vector is -a."""
    graph = family.graph()
    q = intersection_matrix(graph)
    loops = Counter(i for i, j in graph.edges if i == j)
    genera = [genus + loops[v] for v, (_, genus) in enumerate(graph.vertices)]
    slots = family.handle_slots()
    assert slots == tuple((g, q[v][v]) for v, g in enumerate(genera)), family
    a = [-q[v][v] + 2 * g - 2 for v, g in enumerate(genera)]
    assert adjunction_vector(slots) == tuple(-x for x in a), family


def test_handle_slots_match_the_plumbing_graph():
    """The hand-written Stein handle pattern against the plumbing graph, over
    the suite and Elliptic(1..40): slot v is (genus_v + loops_v, Q_vv), the
    capped attaching circle gaining a handle per loop at the vertex (so the
    k = 1 slot is (1, 2 - n)) and the framing Q's diagonal entry.  Then the
    adjunction vector of the slots is -a, where a_v = K.E_v =
    -Q_vv + 2 (genus_v + loops_v) - 2 is the canonical-class vector of the
    resolution, fixed by adjunction on each vertex."""
    for family in [*suite_families(), *(Elliptic(n) for n in range(1, 41))]:
        assert_stein_side_matches_plumbing_side(family)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=8).filter(lambda w: max(w) > 2))
def test_cusp_handle_slots_match_the_plumbing_graph(word):
    assert_stein_side_matches_plumbing_side(Cusp(word))


def test_surgery_descriptions():
    chain = Cusp((2, 2, 3))
    assert surgery_json(chain)["kind"] == "chain-with-ring"
    assert surgery_framings(chain) == (-2, -2, -3)
    assert "0-framed ring" in surgery_text(chain)

    nodal = Cusp((4,))
    assert surgery_json(nodal)["kind"] == "nodal-double-pass"
    assert surgery_framings(nodal) == (-2,)
    assert "twice" in surgery_text(nodal)

    borromean = Elliptic(5)
    assert surgery_json(borromean)["kind"] == "borromean"
    assert surgery_framings(borromean) == (0, 0, -5)
    data = surgery_json(borromean)
    assert data["family"] == {"kind": "elliptic", "n": 5}
    assert data["framings"] == [0, 0, -5]
    assert data["notes"] == list(plumbing._SURGERY_PICTURES["borromean"][1])
