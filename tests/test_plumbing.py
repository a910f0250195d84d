import json

import pytest

from singlink import plumbing
from singlink.families import Cusp, Elliptic, InvalidParameter, SizeLimitExceeded
from singlink.linalg import AbelianGroup, cokernel
from singlink.plumbing import (
    PlumbingGraph,
    PlumbingVertex,
    boundary_homology,
    cusp_graph,
    elliptic_graph,
    intersection_matrix,
    smooth_surgery_description,
)
from singlink.sl2z import CycleWord, cycle_monodromy

from helpers import cusp_words, det_cofactor


def test_cusp_graph_shapes():
    g = cusp_graph(CycleWord((2, 2, 3)))
    assert [v.weight for v in g.vertices] == [-2, -2, -3]
    assert all(v.genus == 0 for v in g.vertices)
    assert sorted(g.edges) == [(0, 1), (0, 2), (1, 2)]

    g1 = cusp_graph(CycleWord((4,)))
    assert [v.weight for v in g1.vertices] == [-4]
    assert g1.edges == ((0, 0),)
    assert g1.loop_count(0) == 1

    g2 = cusp_graph(CycleWord((2, 3)))
    assert [v.weight for v in g2.vertices] == [-2, -3]
    assert g2.edges == ((0, 1), (0, 1))


def test_first_betti_is_one_for_cusp_graphs():
    for word in cusp_words(5, 6):
        assert cusp_graph(word).first_betti() == 1


def test_elliptic_graph():
    g = elliptic_graph(1)
    assert g.vertices == (PlumbingVertex(-1, genus=1),)
    assert g.edges == ()
    assert g.first_betti() == 0
    assert elliptic_graph(9).vertices[0].weight == -9
    with pytest.raises(InvalidParameter):
        elliptic_graph(0)
    with pytest.raises(InvalidParameter):
        elliptic_graph(-2)


def test_elliptic_parameter_must_be_an_integer():
    with pytest.raises(TypeError):
        Elliptic(2.5)


def test_vertex_limit_is_checked_before_the_matrix(monkeypatch):
    monkeypatch.setattr(plumbing, "VERTEX_LIMIT", 3)
    assert len(intersection_matrix(cusp_graph(CycleWord((2, 2, 3))))) == 3
    long_graph = cusp_graph(CycleWord((2, 2, 2, 3)))
    monkeypatch.setattr(PlumbingGraph, "loop_count", None)  # building Q would fail
    with pytest.raises(SizeLimitExceeded, match=r"vertices \(4\) than the limit of 3"):
        intersection_matrix(long_graph)
    for family in (Cusp(CycleWord((2, 2, 2, 3))), Cusp(CycleWord((2,) * 10**4 + (3,)))):
        with pytest.raises(SizeLimitExceeded):
            family.presentation()
        assert len(family.graph().vertices) == len(family.word)  # the graph still builds


def test_edge_index_validation():
    with pytest.raises(InvalidParameter):
        PlumbingGraph((PlumbingVertex(-2),), ((0, 1),))


def test_intersection_matrix_fixed():
    assert intersection_matrix(cusp_graph(CycleWord((2, 2, 3)))) == (
        (-2, 1, 1),
        (1, -2, 1),
        (1, 1, -3),
    )
    assert intersection_matrix(cusp_graph(CycleWord((4,)))) == ((-2,),)
    assert intersection_matrix(cusp_graph(CycleWord((2, 3)))) == ((-2, 2), (2, -3))
    for n in (1, 5, 10):
        assert intersection_matrix(elliptic_graph(n)) == ((-n,),)


def test_intersection_matrix_symmetric_with_negative_diagonal():
    graphs = [cusp_graph(w) for w in cusp_words(5, 6)]
    graphs += [elliptic_graph(n) for n in range(1, 11)]
    for g in graphs:
        q = intersection_matrix(g)
        assert q == tuple(zip(*q))
        assert all(q[i][i] <= -1 for i in range(len(q)))


def test_det_identity_against_trace():
    # |det Q| = trace(A) - 2, determinant via the independent cofactor oracle
    for word in cusp_words(5, 6):
        q = intersection_matrix(cusp_graph(word))
        trace = cycle_monodromy(word).trace
        assert abs(det_cofactor([list(r) for r in q])) == trace - 2


def test_boundary_homology_fixed():
    assert boundary_homology(elliptic_graph(3)) == AbelianGroup(2, (3,))
    assert boundary_homology(elliptic_graph(1)) == AbelianGroup(2)
    assert boundary_homology(cusp_graph(CycleWord((2, 2, 3)))) == AbelianGroup(1, (3,))
    assert boundary_homology(cusp_graph(CycleWord((4,)))) == AbelianGroup(1, (2,))


def test_boundary_homology_matches_monodromy_cokernel():
    for word in cusp_words(4, 5):
        a = cycle_monodromy(word)
        delta = ((a.a - 1, a.b), (a.c, a.d - 1))
        assert boundary_homology(cusp_graph(word)) == cokernel(delta, extra_free_rank=1)
    for n in range(1, 11):
        delta = ((0, n), (0, 0))
        assert boundary_homology(elliptic_graph(n)) == cokernel(delta, extra_free_rank=1)


def test_torsion_order_equals_trace_minus_two():
    for word in cusp_words(4, 5):
        group = boundary_homology(cusp_graph(word))
        assert group.torsion_order == cycle_monodromy(word).trace - 2


def test_dot_emission():
    dot = cusp_graph(CycleWord((2, 2, 3))).to_dot()
    assert dot.startswith("graph plumbing {")
    assert dot.endswith("}\n")
    assert dot.count(" -- ") == 3
    assert 'v0 [label="v0 [-2, g=0]"];' in dot
    loop_dot = cusp_graph(CycleWord((4,))).to_dot()
    assert "v0 -- v0;" in loop_dot
    elliptic_dot = elliptic_graph(5).to_dot()
    assert 'v0 [label="v0 [-5, g=1]"];' in elliptic_dot


def test_json_schema_roundtrip():
    g = cusp_graph(CycleWord((2, 3)))
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
