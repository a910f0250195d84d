import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlink import openbook
from singlink.families import Cusp, Elliptic, InvalidParameter, SizeLimitExceeded
from singlink.linalg import AbelianGroup, cokernel, identity_matrix, matmul
from singlink.openbook import (
    DeltaCurve,
    GammaCurve,
    OpenBookDescription,
    curve_homology_classes,
    cusp_openbook,
    elliptic_openbook,
    homological_monodromy_action,
    openbook_homology,
)
from singlink.plumbing import boundary_homology, cusp_graph, elliptic_graph
from singlink.sl2z import CycleWord, cycle_monodromy

from helpers import cusp_words, cycle_product_oracle, transvection_product_oracle


def test_elliptic_openbook_page_data():
    ob = elliptic_openbook(3)
    assert ob.page_genus == 1
    assert ob.boundary_count == 3
    assert ob.twist_word == (GammaCurve(1), GammaCurve(2), GammaCurve(3))
    assert Counter(c.label for c in ob.twist_word) == {1: 1, 2: 1, 3: 1}

    ob1 = elliptic_openbook(1)
    assert ob1.boundary_count == 1 and len(ob1.twist_word) == 1

    with pytest.raises(InvalidParameter):
        elliptic_openbook(0)


def test_description_is_read_off_the_family():
    assert OpenBookDescription(Elliptic(3)) == elliptic_openbook(3) == Elliptic(3).openbook()
    word = CycleWord((2, 3, 4))
    assert OpenBookDescription(Cusp(word)) == cusp_openbook(word) == Cusp(word).openbook()
    assert OpenBookDescription(Cusp(word)).boundary_labels == ((2, 1), (3, 1), (3, 2))
    with pytest.raises(TypeError):
        OpenBookDescription(1, (1,), (GammaCurve(1),))


def test_elliptic_page_euler_characteristic():
    for n in range(1, 8):
        ob = elliptic_openbook(n)
        assert 2 - 2 * ob.page_genus - ob.boundary_count == -n


def test_cusp_openbook_words():
    ob = cusp_openbook(CycleWord((2, 2, 3)))
    assert ob.boundary_count == 1
    assert ob.twist_word == (
        DeltaCurve(0),
        DeltaCurve(1),
        DeltaCurve(2),
        GammaCurve((3, 1)),
    )

    ob1 = cusp_openbook(CycleWord((4,)))
    assert ob1.boundary_count == 2
    assert ob1.twist_word == (DeltaCurve(0), GammaCurve(1), GammaCurve(2))

    ob2 = cusp_openbook(CycleWord((3, 3)))
    assert ob2.boundary_count == 2
    assert ob2.twist_word == (
        DeltaCurve(0),
        DeltaCurve(1),
        GammaCurve((1, 1)),
        GammaCurve((2, 1)),
    )


def test_page_data_over_suite():
    for word in cusp_words(4, 5):
        ob = cusp_openbook(word)
        boundaries = sum(n - 2 for n in word)
        assert ob.page_genus == 1
        assert ob.boundary_count == boundaries
        assert len(ob.twist_word) == len(word) + boundaries
        gammas = Counter(c.label for c in ob.twist_word if isinstance(c, GammaCurve))
        assert gammas == {label: 1 for label in ob.boundary_labels}


def test_word_rendering():
    assert cusp_openbook(CycleWord((4,))).word_text() == "D(δ0)·D(γ1)·D(γ2)"
    assert cusp_openbook(CycleWord((2, 2, 3))).to_json_dict() == {
        "genus": 1,
        "boundaries": 1,
        "word": ["delta0", "delta1", "delta2", "gamma3_1"],
    }


def test_curve_classes_fixed():
    data = curve_homology_classes(cusp_openbook(CycleWord((2, 2, 3))))
    assert data.basis_names == ("l", "d")
    d_vec = (0, 1)
    for i in range(3):
        assert data.curve_classes[DeltaCurve(i)] == d_vec
    assert data.curve_classes[GammaCurve((3, 1))] == (0, 0)

    data = curve_homology_classes(cusp_openbook(CycleWord((4,))))
    assert data.basis_names == ("l", "d", "e1")
    assert data.curve_classes[DeltaCurve(0)] == (0, 1, 0)
    assert data.curve_classes[GammaCurve(1)] == (0, 0, 1)
    assert data.curve_classes[GammaCurve(2)] == (0, 0, -1)


def test_basis_size_invariant():
    for word in cusp_words(4, 5):
        ob = cusp_openbook(word)
        data = curve_homology_classes(ob)
        assert data.rank == 2 * ob.page_genus + max(ob.boundary_count - 1, 0)
        for cls in data.curve_classes.values():
            assert len(cls) == data.rank


def test_intersection_form_shape():
    data = curve_homology_classes(elliptic_openbook(4))
    form = data.intersection_form
    assert form[0][1] == 1 and form[1][0] == -1
    assert all(
        form[i][j] == 0
        for i in range(len(form))
        for j in range(len(form))
        if (i, j) not in ((0, 1), (1, 0))
    )
    # boundary classes lie in the radical
    for cls in data.boundary_classes.values():
        assert all(
            sum(form[i][j] * cls[j] for j in range(len(cls))) == 0 for i in range(len(cls))
        )


def test_monodromy_action_fixed():
    assert homological_monodromy_action(elliptic_openbook(5)) == identity_matrix(6)

    phi = homological_monodromy_action(cusp_openbook(CycleWord((2, 2, 3))))
    assert phi == ((1, 0), (3, 1))  # l -> l + 3d, d -> d

    phi1 = homological_monodromy_action(cusp_openbook(CycleWord((4,))))
    assert phi1 == ((1, 0, 0), (1, 1, 0), (0, 0, 1))  # l -> l + d


def test_monodromy_action_unipotent():
    for word in cusp_words(4, 5):
        phi = homological_monodromy_action(cusp_openbook(word))
        n = len(phi)
        delta = tuple(
            tuple(phi[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        assert matmul(delta, delta) == tuple(tuple(0 for _ in range(n)) for _ in range(n))


def test_delta_twists_count_on_longitude():
    # the longitude picks up one copy of d from each delta twist
    for word in cusp_words(3, 5):
        phi = homological_monodromy_action(cusp_openbook(word))
        assert phi[1][0] == len(word)


def oracle_cusp_words():
    """The suite words plus ladders reaching b = 20 boundary components."""
    yield from cusp_words(4, 5)
    for m in (5, 10, 15, 20):
        yield CycleWord((m + 2,))
        yield CycleWord((3,) * m)
        yield CycleWord((2, 2, 2, 3) * m)
    for m in (2, 3):
        yield CycleWord((2, 3, 4, 5) * m)


def test_monodromy_action_matches_dense_transvection_product():
    books = [elliptic_openbook(n) for n in range(1, 21)]
    books += [cusp_openbook(word) for word in oracle_cusp_words()]
    for ob in books:
        data = curve_homology_classes(ob)
        classes = [data.curve_classes[c] for c in ob.twist_word]
        oracle = transvection_product_oracle(data.intersection_form, classes)
        assert homological_monodromy_action(ob) == oracle


cycle_words = st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=8).filter(
    lambda entries: max(entries) >= 3
)


@settings(max_examples=40, deadline=None)
@given(cycle_words)
@example([3, 11, 12, 2, 6, 8, 11, 6])  # SNF entries once grew past 300,000 bits here
def test_openbook_homology_matches_plumbing_and_monodromy(entries):
    word = CycleWord(tuple(entries))
    a = cycle_product_oracle(entries)
    monodromy = cokernel(((a[0][0] - 1, a[0][1]), (a[1][0], a[1][1] - 1)), extra_free_rank=1)
    homology = openbook_homology(cusp_openbook(word))
    assert homology == boundary_homology(cusp_graph(word)) == monodromy
    assert homology.torsion_order == a[0][0] + a[1][1] - 2


def test_openbook_homology_fixed():
    assert openbook_homology(elliptic_openbook(3)) == AbelianGroup(2, (3,))
    assert openbook_homology(cusp_openbook(CycleWord((2, 2, 3)))) == AbelianGroup(1, (3,))
    assert openbook_homology(cusp_openbook(CycleWord((4,)))) == AbelianGroup(1, (2,))
    assert openbook_homology(cusp_openbook(CycleWord((3, 3)))) == AbelianGroup(1, (5,))


def test_triple_homology_agreement_over_suite():
    for word in cusp_words(4, 5):
        a = cycle_monodromy(word)
        oracle = cokernel(((a.a - 1, a.b), (a.c, a.d - 1)), extra_free_rank=1)
        assert openbook_homology(cusp_openbook(word)) == oracle
        assert boundary_homology(cusp_graph(word)) == oracle
    for n in range(1, 11):
        oracle = cokernel(((0, n), (0, 0)), extra_free_rank=1)
        assert openbook_homology(elliptic_openbook(n)) == oracle
        assert boundary_homology(elliptic_graph(n)) == oracle


def test_gamma_reordering_changes_nothing():
    # every gamma lies in the radical of the page form, so where the gammas
    # stand in the word does not change the monodromy action
    for entries in [(4, 4), (3, 2, 4), (5,)]:
        ob = cusp_openbook(CycleWord(entries))
        page = curve_homology_classes(ob)
        deltas = tuple(c for c in ob.twist_word if isinstance(c, DeltaCurve))
        gammas = [c for c in ob.twist_word if isinstance(c, GammaCurve)]
        columns = openbook._twisted_columns(page, ob.twist_word)
        for perm in itertools.permutations(gammas):
            assert openbook._twisted_columns(page, deltas + perm) == columns


def test_boundary_limit_is_checked_before_the_page(monkeypatch):
    monkeypatch.setattr(openbook, "BOUNDARY_LIMIT", 3)
    assert cusp_openbook(CycleWord((3, 4))).boundary_count == 3
    assert elliptic_openbook(3).boundary_count == 3
    monkeypatch.setattr(openbook, "GammaCurve", None)  # building a page would fail
    for build in (
        lambda: cusp_openbook(CycleWord((4, 4))),
        lambda: cusp_openbook(CycleWord((3, 10**25))),
        lambda: elliptic_openbook(4),
        lambda: Elliptic(10**25).openbook(),
    ):
        with pytest.raises(SizeLimitExceeded, match="than the limit of 3"):
            build()
