import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlink import openbook
from singlink.cli import EXIT_OK, parse_args, run
from singlink.families import Cusp, Elliptic, InvalidParameter, SizeLimitExceeded
from singlink.invariants import FamilyReduction
from singlink.linalg import AbelianGroup, dot, matmul, smith_normal_form
from singlink.openbook import (
    PAGE_GENUS,
    curve_homology_classes,
    curve_names,
    homological_monodromy_action,
    openbook_homology,
    twist_word,
)
from singlink.plumbing import boundary_homology
from singlink.sl2z import cycle_monodromy

from helpers import (
    counted_linalg,
    counted_snf,
    cusp_words,
    cycle_product_oracle,
    openbook_presentation,
    page_intersection_form,
    page_labels,
    substituted_presentation_oracle,
    suite_families,
    transvection_product_oracle,
)


def gamma_labels(family):
    """The boundary labels, in order: the gamma entries of the twist word."""
    return [label for kind, label in twist_word(family) if kind == "gamma"]


def test_elliptic_openbook_page_data():
    family = Elliptic(3)
    assert PAGE_GENUS == 1
    assert family.boundary_count == 3
    assert twist_word(family) == (("gamma", (1, 1)), ("gamma", (1, 2)), ("gamma", (1, 3)))

    assert Elliptic(1).boundary_count == 1 and len(twist_word(Elliptic(1))) == 1

    with pytest.raises(InvalidParameter):
        twist_word(Elliptic(0))


def test_description_is_read_off_the_family():
    # the open book is a function of the family: equal families, built
    # either way, give the same page, and nothing else stands in for one
    word = (2, 3, 4)
    for read in (twist_word, gamma_labels, curve_names):
        assert read(Cusp(word)) == read(Cusp([2, 3, 4])) == read(Cusp(iter(word)))
        assert read(Elliptic(3)) == read(Elliptic(3))
    assert gamma_labels(Cusp(word)) == [(2, 1), (3, 1), (3, 2)]
    with pytest.raises(AttributeError):
        twist_word((1, (1,), (("gamma", (1, 1)),)))


def test_elliptic_page_euler_characteristic():
    for n in range(1, 8):
        assert 2 - 2 * PAGE_GENUS - Elliptic(n).boundary_count == -n
        assert 2 - 2 * PAGE_GENUS - len(gamma_labels(Elliptic(n))) == -n


def test_cusp_openbook_words():
    family = Cusp((2, 2, 3))
    assert family.boundary_count == 1
    assert twist_word(family) == (("delta", 0), ("delta", 1), ("delta", 2), ("gamma", (3, 1)))

    family1 = Cusp((4,))
    assert family1.boundary_count == 2
    assert twist_word(family1) == (("delta", 0), ("gamma", (1, 1)), ("gamma", (1, 2)))

    family2 = Cusp((3, 3))
    assert family2.boundary_count == 2
    assert twist_word(family2) == (
        ("delta", 0), ("delta", 1), ("gamma", (1, 1)), ("gamma", (2, 1))
    )


def test_page_data_over_suite():
    for word in cusp_words(4, 5):
        family = Cusp(word)
        boundaries = sum(n - 2 for n in word)
        book = twist_word(family)
        assert PAGE_GENUS == 1
        assert family.boundary_count == boundaries
        assert len(gamma_labels(family)) == boundaries
        assert len(book) == len(word) + boundaries
        gammas = Counter(label for kind, label in book if kind == "gamma")
        assert gammas == {label: 1 for label in page_labels(family)}
        assert all(kind == "delta" for kind, _ in book[: len(word)])


def test_word_rendering():
    code, payload = run(parse_args(["openbook", "--cusp", "4"]))
    assert code == EXIT_OK and payload.decode().startswith("D(δ0)·D(γ1)·D(γ2), page:")
    assert curve_names(Cusp((4,)), ("δ", "γ", ",")) == ["δ0", "γ1", "γ2"]
    code, payload = run(parse_args(["openbook", "--cusp", "2,2,3", "--json"]))
    assert code == EXIT_OK and json.loads(payload) == {
        "genus": 1,
        "boundaries": 1,
        "word": ["delta0", "delta1", "delta2", "gamma3_1"],
    }


def test_curve_classes_fixed():
    names, classes, boundaries = curve_homology_classes(Cusp((2, 2, 3)))
    assert names == ("l", "d")
    d_vec = (0, 1)
    for i in range(3):
        assert classes["delta", i] == d_vec
    assert classes["gamma", (3, 1)] == (0, 0)
    assert boundaries == {(3, 1): (0, 0)}

    names, classes, boundaries = curve_homology_classes(Cusp((4,)))
    assert names == ("l", "d", "e1")
    assert classes["delta", 0] == (0, 1, 0)
    assert classes["gamma", (1, 1)] == (0, 0, 1)
    assert classes["gamma", (1, 2)] == (0, 0, -1)
    assert boundaries == {(1, 1): (0, 0, 1), (1, 2): (0, 0, -1)}


def test_basis_size_invariant():
    for word in cusp_words(4, 5):
        family = Cusp(word)
        names, classes, _ = curve_homology_classes(family)
        assert len(names) == 2 * PAGE_GENUS + max(family.boundary_count - 1, 0)
        for cls in classes.values():
            assert len(cls) == len(names)


def test_intersection_form_shape():
    names, _, boundaries = curve_homology_classes(Elliptic(4))
    form = page_intersection_form(len(names))
    assert len(form) == 5
    assert form[0][1] == 1 and form[1][0] == -1
    assert all(
        form[i][j] == 0
        for i in range(len(form))
        for j in range(len(form))
        if (i, j) not in ((0, 1), (1, 0))
    )
    # boundary classes lie in the radical
    for cls in boundaries.values():
        assert all(
            sum(form[i][j] * cls[j] for j in range(len(cls))) == 0 for i in range(len(cls))
        )


def test_monodromy_action_fixed():
    identity = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert homological_monodromy_action(Elliptic(5)) == identity

    phi = homological_monodromy_action(Cusp((2, 2, 3)))
    assert phi == ((1, 0), (3, 1))  # l -> l + 3d, d -> d

    phi1 = homological_monodromy_action(Cusp((4,)))
    assert phi1 == ((1, 0, 0), (1, 1, 0), (0, 0, 1))  # l -> l + d


def test_monodromy_action_unipotent():
    for word in cusp_words(4, 5):
        phi = homological_monodromy_action(Cusp(word))
        n = len(phi)
        delta = tuple(
            tuple(phi[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        assert matmul(delta, delta) == tuple(tuple(0 for _ in range(n)) for _ in range(n))


def test_delta_twists_count_on_longitude():
    # the longitude picks up one copy of d from each delta twist
    for word in cusp_words(3, 5):
        phi = homological_monodromy_action(Cusp(word))
        assert phi[1][0] == len(word)


def oracle_cusp_words():
    """The suite words plus ladders reaching b = 20 boundary components."""
    yield from cusp_words(4, 5)
    for m in (5, 10, 15, 20):
        yield (m + 2,)
        yield (3,) * m
        yield (2, 2, 2, 3) * m
    for m in (2, 3):
        yield (2, 3, 4, 5) * m


def test_monodromy_action_matches_dense_transvection_product():
    families = [Elliptic(n) for n in range(1, 21)]
    families += [Cusp(word) for word in oracle_cusp_words()]
    for family in families:
        names, curve_classes, _ = curve_homology_classes(family)
        classes = [curve_classes[c] for c in twist_word(family)]
        oracle = transvection_product_oracle(page_intersection_form(len(names)), classes)
        assert homological_monodromy_action(family) == oracle


cycle_words = st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=8).filter(
    lambda entries: max(entries) >= 3
)


@settings(max_examples=40, deadline=None)
@given(cycle_words)
@example([3, 11, 12, 2, 6, 8, 11, 6])  # SNF entries once grew past 300,000 bits here
def test_openbook_homology_matches_plumbing_and_monodromy(entries):
    word = tuple(entries)
    a = cycle_product_oracle(entries)
    monodromy = smith_normal_form(((a[0][0] - 1, a[0][1]), (a[1][0], a[1][1] - 1))).cokernel(1)
    homology = openbook_homology(Cusp(word))
    assert homology == boundary_homology(Cusp(word).graph()) == monodromy
    assert math.prod(homology.torsion) == a[0][0] + a[1][1] - 2


def labels_from_the_word(entries):
    """(i, j) for the j-th boundary on piece i, read off the entries alone:
    Elliptic(n), given as the int n, has one piece with n boundaries, and
    letter i of a cusp word a piece with n_i - 2."""
    letters = (entries + 2,) if isinstance(entries, int) else entries
    return [(i, j) for i, n in enumerate(letters, start=1) for j in range(1, n - 1)]


def names_from_the_word(entries):
    """delta0, ..., then gamma{j} on a page of one piece (an elliptic page
    or a one-letter word), else gamma{i}_{j}, in label order."""
    one_piece = isinstance(entries, int) or len(entries) == 1
    deltas = [] if isinstance(entries, int) else [f"delta{i}" for i in range(len(entries))]
    return deltas + [
        f"gamma{j}" if one_piece else f"gamma{i}_{j}" for i, j in labels_from_the_word(entries)
    ]


@settings(max_examples=150, deadline=None)
@given(st.one_of(cycle_words, st.integers(min_value=1, max_value=40)))
@example([2, 2, 3])  # one nonempty piece of three still prints gamma3_1
@example([3, 2, 3])  # an empty piece between two nonempty ones
def test_openbook_names_are_read_off_the_word(entries):
    flag, value = (
        ("--elliptic", str(entries))
        if isinstance(entries, int)
        else ("--cusp", ",".join(map(str, entries)))
    )
    names = names_from_the_word(entries)
    code, payload = run(parse_args(["openbook", flag, value, "--json"]))
    assert code == EXIT_OK and json.loads(payload)["word"] == names
    code, payload = run(parse_args(["openbook", flag, value]))
    text = payload.decode().split(", page:")[0]
    greek = [name.replace("delta", "δ").replace("gamma", "γ").replace("_", ",") for name in names]
    assert text == "·".join(f"D({name})" for name in greek)
    family = Elliptic(entries) if isinstance(entries, int) else Cusp(tuple(entries))
    assert gamma_labels(family) == labels_from_the_word(entries)
    assert len(gamma_labels(family)) == family.boundary_count


def test_openbook_homology_fixed():
    assert openbook_homology(Elliptic(3)) == AbelianGroup(2, (3,))
    assert openbook_homology(Cusp((2, 2, 3))) == AbelianGroup(1, (3,))
    assert openbook_homology(Cusp((4,))) == AbelianGroup(1, (2,))
    assert openbook_homology(Cusp((3, 3))) == AbelianGroup(1, (5,))


def test_triple_homology_agreement_over_suite():
    for word in cusp_words(4, 5):
        a = cycle_monodromy(word)
        oracle = smith_normal_form(((a.a - 1, a.b), (a.c, a.d - 1))).cokernel(1)
        assert openbook_homology(Cusp(word)) == oracle
        assert boundary_homology(Cusp(word).graph()) == oracle
    for n in range(1, 11):
        oracle = smith_normal_form(((0, n), (0, 0))).cokernel(1)
        assert openbook_homology(Elliptic(n)) == oracle
        assert boundary_homology(Elliptic(n).graph()) == oracle


# open books at the boundary or vertex limit: the last with b = 500 over
# k = 1000 pieces, every second piece empty and the last one too
LIMIT_FAMILIES = (
    Elliptic(1000),
    Cusp((3,) * 1000),
    Cusp((2, 3, 4, 5) * 150),
    Cusp((3, 2) * 500),
)


def _monodromy_homology(family):
    """Z + coker(A - I), from the family's monodromy A."""
    a = family.monodromy()
    return smith_normal_form(((a.a - 1, a.b), (a.c, a.d - 1))).cokernel(1)


def test_large_open_books_reduce():
    # up to the boundary limit, each against Z + coker(A - I); no time bound
    # is asserted, only the groups
    assert openbook_homology(Elliptic(400)) == AbelianGroup(2, (400,))
    assert openbook_homology(Elliptic(1000)) == AbelianGroup(2, (1000,))
    assert Cusp((2, 3, 4, 5) * 150).boundary_count == 900
    for family in LIMIT_FAMILIES:
        assert openbook_homology(family) == _monodromy_homology(family), family.label
    for k in (64, 256):
        family = Cusp((3,) * k)
        plumbing, monodromy, openbook = FamilyReduction(family).homology(family.monodromy())
        assert plumbing == monodromy == openbook
        assert math.prod(openbook.torsion) == family.monodromy().trace - 2


def forbid_the_page(monkeypatch):
    """Make reading the twist word or the curve names, or building any
    label list, raise AssertionError."""

    def build_page(*args):
        raise AssertionError("a page was built")

    for name in ("_labels", "twist_word", "curve_names"):
        monkeypatch.setattr(openbook, name, build_page)


def test_openbook_homology_builds_no_page(monkeypatch):
    # the open book is its family's page pieces: with the labels and the
    # word unreadable, no label, twist word or page class can be built
    forbid_the_page(monkeypatch)
    for family in LIMIT_FAMILIES:
        assert family.boundary_count == sum(family.page_pieces()[1])
        assert openbook_homology(family) == _monodromy_homology(family), family.label


def _handed_on(family):
    """The one matrix openbook_homology hands on for its cokernel, to
    two_column_cokernel; it reduces none with smith_normal_form."""
    with counted_linalg("two_column_cokernel") as calls, counted_snf() as snfs:
        openbook_homology(family)
    (matrix,) = calls
    assert snfs == []
    return matrix


def test_snf_gets_the_substituted_page_basis_matrix():
    # the one-pass presentation is the page-basis substitution, entry for entry
    families = suite_families() + [Elliptic(n) for n in range(1, 61)]
    families += [Cusp((3,) * k) for k in range(1, 31)]
    word = (2, 2, 2, 3) * 8
    families += [Cusp(word[r:] + word[:r]) for r in range(len(word))]
    assert len(suite_families()) == 346
    for family in families:
        assert _handed_on(family) == substituted_presentation_oracle(family), family.label


entry = st.integers(min_value=2, max_value=12)
# a word ending in 2s has its last boundary on an earlier piece, so the
# deltas after that piece carry the dense last boundary class
words_ending_in_twos = st.tuples(
    st.lists(entry, min_size=1, max_size=7).filter(lambda e: max(e) >= 3),
    st.integers(min_value=1, max_value=7),
).map(lambda p: p[0] + [2] * min(p[1], 8 - len(p[0])))


@settings(max_examples=60, deadline=None)
@given(st.one_of(cycle_words, words_ending_in_twos))
@example([3, 2])
@example([2, 5, 4, 2, 2])
@example([12, 2, 12, 2, 2, 2, 2, 2])
@example([2, 2, 3])  # the base boundary on the last piece, b = 1
@example([3])  # k = 1, b = 1
@example([3, 2, 2, 4])  # empty pieces between nonempty ones
def test_snf_gets_the_substituted_matrix_on_random_words(entries):
    family = Cusp(tuple(entries))
    assert _handed_on(family) == substituted_presentation_oracle(family)


def test_reduced_presentation_matches_the_full_one():
    # the full presentation keeps every page generator and every meridian
    # relation; substituting the relations away must not change the group
    families = suite_families() + [Elliptic(n) for n in range(1, 41)]
    families += [Cusp((3,) * k) for k in range(1, 25)]
    word = (2, 2, 2, 3) * 8
    families += [Cusp(word[r:] + word[:r]) for r in range(len(word))]
    for family in families:
        full = smith_normal_form(openbook_presentation(family)).cokernel()
        assert openbook_homology(family) == full, family.label


def test_twist_curves_pair_to_zero():
    # the precondition of the closed form in homological_monodromy_action:
    # any two twist-curve classes pair to 0, so the twists commute
    families = suite_families() + [Elliptic(n) for n in range(1, 21)]
    families += [Cusp(word) for word in oracle_cusp_words()]
    for family in families:
        names, curve_classes, _ = curve_homology_classes(family)
        form = page_intersection_form(len(names))
        classes = list(curve_classes.values())
        for c in classes:
            jc = [dot(row, c) for row in form]
            assert all(dot(x, jc) == 0 for x in classes), family.label


def test_every_twist_order_gives_the_closed_form():
    # the twists commute, so the ordered product over every permutation of
    # the whole twist word, deltas included, is the one closed form
    for entries in [(4, 4), (3, 2, 4), (5,), (2, 3, 2, 4)]:
        family = Cusp(entries)
        names, curve_classes, _ = curve_homology_classes(family)
        form, phi = page_intersection_form(len(names)), homological_monodromy_action(family)
        for perm in itertools.permutations(twist_word(family)):
            classes = [curve_classes[c] for c in perm]
            assert transvection_product_oracle(form, classes) == phi


def test_boundary_limit_is_checked_before_the_page(monkeypatch):
    monkeypatch.setattr(openbook, "BOUNDARY_LIMIT", 3)
    assert len(twist_word(Cusp((3, 4)))) == 5
    assert len(gamma_labels(Elliptic(3))) == 3
    # every reader of the page refuses the family on its boundary_count,
    # before any piece, label or twist is built, and so does the command
    for cls in (Cusp, Elliptic):
        monkeypatch.setattr(cls, "page_pieces", lambda self: pytest.fail("pieces were built"))
    with pytest.raises(SizeLimitExceeded, match=r"open book of cusp\(4,4\) has more"):
        run(parse_args(["openbook", "--cusp", "4,4"]))
    forbid_the_page(monkeypatch)
    readers = (
        twist_word,
        curve_names,
        curve_homology_classes,
        homological_monodromy_action,
        openbook_homology,
    )
    for family in (
        Cusp((4, 4)),
        Cusp((3, 10**25)),
        Elliptic(4),
        Elliptic(10**25),
    ):
        for read in readers:
            with pytest.raises(SizeLimitExceeded, match="than the limit of 3"):
                read(family)
