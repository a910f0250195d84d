import json
import math

import pytest

from singlink import plumbing
from singlink.families import (
    CHAIN_UNKNOT,
    ELLIPTIC_CORE,
    NODAL_DOUBLE_PASS,
    Cusp,
    Elliptic,
    InvalidParameter,
    SizeLimitExceeded,
)
from singlink.linalg import AbelianGroup, smith_normal_form
from singlink.plumbing import (
    PlumbingGraph,
    PlumbingVertex,
    boundary_homology,
    intersection_matrix,
    smooth_surgery_description,
)
from singlink.sl2z import CycleWord, cycle_monodromy

from helpers import cusp_words, det_cofactor, presentation_oracle, suite_families


def test_cusp_graph_shapes():
    g = Cusp(CycleWord((2, 2, 3))).graph()
    assert [v.weight for v in g.vertices] == [-2, -2, -3]
    assert all(v.genus == 0 for v in g.vertices)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]

    g1 = Cusp(CycleWord((4,))).graph()
    assert [v.weight for v in g1.vertices] == [-4]
    assert g1.edges == ((0, 0),)
    assert intersection_matrix(g1) == ((-2,),)  # the loop adds 2 to the weight -4

    g2 = Cusp(CycleWord((2, 3))).graph()
    assert [v.weight for v in g2.vertices] == [-2, -3]
    assert g2.edges == ((0, 1), (0, 1))


def test_first_betti_is_one_for_cusp_graphs():
    for word in cusp_words(5, 6):
        assert Cusp(word).graph().first_betti() == 1


def test_elliptic_graph():
    g = Elliptic(1).graph()
    assert g.vertices == (PlumbingVertex(-1, genus=1),)
    assert g.edges == ()
    assert g.first_betti() == 0
    assert Elliptic(9).graph().vertices[0].weight == -9
    with pytest.raises(InvalidParameter):
        Elliptic(0)
    with pytest.raises(InvalidParameter):
        Elliptic(-2)


def test_elliptic_parameter_must_be_an_integer():
    with pytest.raises(TypeError):
        Elliptic(2.5)


def test_vertex_limit_is_checked_before_the_matrix(monkeypatch):
    monkeypatch.setattr(plumbing, "VERTEX_LIMIT", 3)
    assert len(intersection_matrix(Cusp(CycleWord((2, 2, 3))).graph())) == 3
    long_graph = Cusp(CycleWord((2, 2, 2, 3))).graph()
    with monkeypatch.context() as m, pytest.raises(
        SizeLimitExceeded, match=r"vertices \(4\) than the limit of 3"
    ):
        m.setattr(PlumbingGraph, "edges", None)  # building Q would fail
        intersection_matrix(long_graph)
    for family in (Cusp(CycleWord((2, 2, 2, 3))), Cusp(CycleWord((2,) * 10**4 + (3,)))):
        with pytest.raises(SizeLimitExceeded):
            smooth_surgery_description(family)
        assert len(family.graph().vertices) == len(family.word)  # the graph still builds


def test_edge_index_validation():
    with pytest.raises(InvalidParameter):
        PlumbingGraph((PlumbingVertex(-2),), ((0, 1),))


def test_intersection_matrix_fixed():
    assert intersection_matrix(Cusp(CycleWord((2, 2, 3))).graph()) == (
        (-2, 1, 1),
        (1, -2, 1),
        (1, 1, -3),
    )
    assert intersection_matrix(Cusp(CycleWord((4,))).graph()) == ((-2,),)
    assert intersection_matrix(Cusp(CycleWord((2, 3))).graph()) == ((-2, 2), (2, -3))
    for n in (1, 5, 10):
        assert intersection_matrix(Elliptic(n).graph()) == ((-n,),)


def test_presentation_matrix_matches_oracle():
    # the surgery framings are the diagonal of the padded presentation:
    # 2 * genus zeros, then the diagonal of the intersection form
    for family in [*suite_families(), *(Elliptic(n) for n in range(1, 41))]:
        q = presentation_oracle(family)
        framings = smooth_surgery_description(family).framings
        assert framings == tuple(q[i][i] for i in range(len(q))), family
    graph = PlumbingGraph((PlumbingVertex(-3, genus=2), PlumbingVertex(-2)), ((0, 1),))

    class GenusTwo:  # the three things smooth_surgery_description reads
        def handle_slots(self):
            return ((ELLIPTIC_CORE, -3),)

        def graph(self):
            return graph

        def to_json_dict(self):
            return {}

    assert smooth_surgery_description(GenusTwo()).framings == (0, 0, 0, 0, -3, -2)


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
    assert boundary_homology(Cusp(CycleWord((2, 2, 3))).graph()) == AbelianGroup(1, (3,))
    assert boundary_homology(Cusp(CycleWord((4,))).graph()) == AbelianGroup(1, (2,))


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
    dot = Cusp(CycleWord((2, 2, 3))).graph().to_dot()
    assert dot.startswith("graph plumbing {")
    assert dot.endswith("}\n")
    assert dot.count(" -- ") == 3
    assert 'v0 [label="v0 [-2, g=0]"];' in dot
    loop_dot = Cusp(CycleWord((4,))).graph().to_dot()
    assert "v0 -- v0;" in loop_dot
    elliptic_dot = Elliptic(5).graph().to_dot()
    assert 'v0 [label="v0 [-5, g=1]"];' in elliptic_dot


def test_json_schema_roundtrip():
    g = Cusp(CycleWord((2, 3))).graph()
    data = json.loads(json.dumps(g.to_json_dict()))
    assert data == {
        "vertices": [{"weight": -2, "genus": 0}, {"weight": -3, "genus": 0}],
        "edges": [[0, 1], [0, 1]],
    }
    rebuilt = PlumbingGraph(
        tuple(PlumbingVertex(v["weight"], v["genus"]) for v in data["vertices"]),
        tuple(tuple(e) for e in data["edges"]),
    )
    assert rebuilt == g


def test_every_tag_picture_has_a_surgery_picture():
    pictures = {tag.picture for tag in (CHAIN_UNKNOT, ELLIPTIC_CORE, NODAL_DOUBLE_PASS)}
    assert pictures == set(plumbing._SURGERY_PICTURES)
    for family in (Cusp((2, 3)), Cusp((4,)), Elliptic(2)):
        assert smooth_surgery_description(family).kind == family.handle_slots()[0][0].picture


def test_surgery_descriptions():
    chain = smooth_surgery_description(Cusp(CycleWord((2, 2, 3))))
    assert chain.kind == "chain-with-ring"
    assert chain.framings == (-2, -2, -3)
    assert "0-framed ring" in chain.to_text()

    nodal = smooth_surgery_description(Cusp(CycleWord((4,))))
    assert nodal.kind == "nodal-double-pass"
    assert nodal.framings == (-2,)
    assert "twice" in nodal.to_text()

    borromean = smooth_surgery_description(Elliptic(5))
    assert borromean.kind == "borromean"
    assert borromean.framings == (0, 0, -5)
    data = borromean.to_json_dict()
    assert data["family"] == {"kind": "elliptic", "n": 5}
