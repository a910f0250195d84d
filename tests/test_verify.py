import ast
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import invariants, legendrian
from singlink.cli import EXIT_UNSUPPORTED, main
from singlink.families import Cusp, Elliptic, SizeLimitExceeded, UnsupportedPresentation
from singlink.legendrian import check_rot_vector, rotation_range
from singlink.linalg import AbelianGroup, SnfResult
from singlink.plumbing import PlumbingGraph, intersection_matrix
from singlink.verify import (
    SUITE_MAX_ENTRY,
    SUITE_MAX_K,
    _filling_pass,
    suite_families,
    verify_family,
)

from helpers import (
    counted_linalg,
    counted_snf,
    has_zero_defect_oracle,
    is_canonical_oracle,
    verify_family_reference,
)


def test_verify_family_checks_are_named():
    checks = verify_family(Cusp((2, 2, 3)))
    names = [name for name, _ in checks]
    assert "triple homology agreement" in names
    assert "factorization roundtrip" in names
    assert all(ok for _, ok in checks)


def test_no_module_branches_on_a_family_class():
    # each family states its own closed forms, flag and parser, so no module
    # asks which family it holds, and the command line names no family class
    families = {"Elliptic", "Cusp"}
    src = Path(verify_family.__code__.co_filename).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
                assert not named & families, f"{path.name}:{node.lineno}"
    cli = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(cli):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        named.add(getattr(node, "id", getattr(node, "attr", None)))
    assert not named & families


def test_suite_families_shape():
    families = suite_families()
    assert len([f for f in families if isinstance(f, Elliptic)]) == 10
    assert len(families) == 346


def test_d3_check_compares_both_signs(monkeypatch):
    checks = dict(verify_family(Elliptic(3)))
    assert checks["d3 computed for both signs"] is True
    # a d3 that differs between the two canonical structures must fail the check
    monkeypatch.setattr(
        invariants.FamilyReduction,
        "d3_invariants",
        lambda self, classes: tuple(Fraction(sum(y)) for _, y in classes),
    )
    checks = dict(verify_family(Elliptic(3)))
    assert checks["d3 computed for both signs"] is False
    assert checks["triple homology agreement"] is True


def test_one_snf_per_pair_of_euler_classes(monkeypatch):
    # the elliptic d3 values share Q's reduction and take one signature of it;
    # A - I and the open-book presentation go to the minors, not the SNF.
    # The canonical rot vectors are c and -c, so Q's row log is replayed and
    # a solution lifted once for the pair, at c: the class at -c is read off
    # the one at c, d3_invariants reads those two classes and the d3
    # independence check replays none
    reduce, lift = SnfResult.reduce, SnfResult.lift
    replays, lifts = [], []
    monkeypatch.setattr(SnfResult, "reduce", lambda snf, v: replays.append(v) or reduce(snf, v))
    monkeypatch.setattr(SnfResult, "lift", lambda snf, v, w: lifts.append(v) or lift(snf, v, w))
    for family, signatures in (
        (Cusp((2, 3, 4)), 0),
        (Cusp((3,)), 0),
        (Elliptic(3), 1),
    ):
        replays.clear()
        lifts.clear()
        with counted_snf() as calls, counted_linalg("symmetric_signature") as sigmas:
            with counted_linalg("two_column_cokernel") as minors:
                checks = verify_family(family)
        assert all(ok for _, ok in checks)
        assert len(calls) == 1, family
        assert len(minors) == 2, family
        assert len(sigmas) == signatures, family
        assert replays == [legendrian.adjunction_vector(family.handle_slots())], family
        assert len(lifts) == 1, family


def test_suite_pass_calls_no_determinant():
    # |det Q| is the product of the diagonal of Q's one Smith normal form
    with counted_linalg("determinant") as calls:
        for family in suite_families():
            assert all(ok for _, ok in verify_family(family)), family
    assert calls == []


def test_shifted_q_fails_the_det_identity(monkeypatch):
    family = Cusp((2, 3, 4))
    names = [name for name, _ in verify_family(family)]
    original = invariants.intersection_matrix

    def shifted(graph):
        q = [list(row) for row in original(graph)]
        q[0][0] -= 1
        return tuple(map(tuple, q))

    monkeypatch.setattr(invariants, "intersection_matrix", shifted)
    checks = verify_family(family)
    assert [name for name, _ in checks] == names
    assert dict(checks)["det identity |det Q| = trace - 2"] is False
    assert dict(checks)["factorization roundtrip"] is True


def test_suite_pass_constructs_no_refusal(monkeypatch, capsys):
    # verify reads the cusp d3 refusal off the graph as a boolean, so a pass
    # over the suite makes no UnsupportedPresentation; inv still refuses a
    # cusp's --d3 with exit 3 and reports its d3 as null without --d3
    made = []
    init = UnsupportedPresentation.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(UnsupportedPresentation, "__init__", counting)
    for family in suite_families():
        assert all(ok for _, ok in verify_family(family)), family
    assert made == []
    assert main(["inv", "--cusp", "2,3,4", "--d3"]) == EXIT_UNSUPPORTED
    out, err = capsys.readouterr()
    reason = "d3 of cusp(2,3,4) waits for the resolution-graph cross-check"
    assert (out, err) == ("", f"singlink: unsupported: {reason}\n")
    assert made == [(reason,)]  # the patch sees the refusal it counts
    assert main(["inv", "--cusp", "2,3,4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["d3"] is None
    assert made == [(reason,)]


def test_euler_classes_match_euler_class_over_suite():
    for family in suite_families():
        slots = family.handle_slots()
        vectors = tuple(legendrian.canonical_filling(slots, sign) for sign in ("min", "max"))
        pair = invariants.FamilyReduction(family).euler_classes(vectors)
        assert pair == tuple(invariants.euler_class(family, v) for v in vectors), family


def test_verify_family_matches_reference_over_suite():
    for family in suite_families():
        assert verify_family(family) == verify_family_reference(family), family


def test_repeated_calls_run_the_same_snfs():
    # nothing is kept on the family object or in a module between calls
    for family in (Cusp((2, 3, 4)), Elliptic(3)):
        counts = []
        for _ in range(2):
            with counted_snf() as calls:
                verify_family(family)
            counts.append(len(calls))
        assert counts[0] == counts[1], family


def count_calls(monkeypatch, methods):
    """Count the calls of each (class, method name) pair; returns the
    dict the counts go into, keyed by method name."""
    calls = {}
    for cls, name in methods:
        original = getattr(cls, name)

        def counting(self, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self)

        monkeypatch.setattr(cls, name, counting)
    return calls


def test_family_objects_built_by_one_verify_call(monkeypatch):
    for cls, family in ((Cusp, Cusp((2, 3, 4))), (Elliptic, Elliptic(3))):
        names = ("page_pieces", "monodromy", "graph")
        calls = count_calls(
            monkeypatch, [(cls, name) for name in names] + [(PlumbingGraph, "component_count")]
        )
        verify_family(family)
        monkeypatch.undo()
        # Q is read off the one graph, for the Euler classes, the plumbing
        # H_1 and both canonical d3 values; the d3 refusal reads no graph
        assert calls["monodromy"] == calls["graph"] == calls["component_count"] == 1, family
        # the twist word, the page data check and the open-book H_1
        assert calls["page_pieces"] == 3, family
    # one d3 value, alone or through the command, builds the graph once
    calls = count_calls(monkeypatch, [(Elliptic, "graph")])
    assert invariants.d3_invariant(Elliptic(3), (-3,)) == 0
    assert calls == {"graph": 1}
    calls.clear()
    assert main(["inv", "--elliptic", "3", "--d3"]) == 0
    assert calls == {"graph": 1}


def test_c1_distinct_check_sees_a_repeat_and_a_swap(monkeypatch):
    # the check reads strictly increasing rot vectors in enumeration order,
    # so a repeated vector fails it, and so does a swapped pair, whose rot
    # vectors are still pairwise distinct
    family = Cusp((2, 3, 4))
    check = "c1 evaluations pairwise distinct"
    vectors = list(legendrian.filling_rot_vectors(family))
    assert dict(verify_family(family))[check]
    swapped = [vectors[1], vectors[0], *vectors[2:]]
    assert len(set(swapped)) == len(swapped)
    for altered in ([*vectors[:2], *vectors[1:]], swapped):
        monkeypatch.setattr(legendrian, "filling_rot_vectors", lambda f, _v=altered: iter(_v))
        assert not dict(verify_family(family))[check]


def test_presentation_is_the_plumbing_form():
    # Q is the bare plumbing form for every family, genus or not, and verify
    # reduces that one matrix
    for family in [*suite_families(), *(Elliptic(n) for n in range(11, 41))]:
        form = intersection_matrix(family.graph())
        assert invariants.FamilyReduction(family).presentation == form, family
        with counted_snf() as calls:
            verify_family(family)
        assert calls == [form], family


def test_verify_refuses_before_it_reduces(monkeypatch):
    # 2^17 Stein diagrams is over DIAGRAM_LIMIT: the enumeration refuses
    # the family before any presentation is reduced
    def no_reduction(family):
        raise AssertionError(f"{family.label} was reduced before its refusal")

    monkeypatch.setattr(invariants, "FamilyReduction", no_reduction)
    with pytest.raises(SizeLimitExceeded, match="more Stein diagrams than the limit"):
        verify_family(Cusp((3,) * 17))


def assert_pass_matches_oracles(family, vectors, rot_vectors):
    """``is_canonical`` and the streamed filling pass ``verify_family``
    makes over ``rot_vectors``, the same rot vectors as ``vectors`` in
    order, against the handle-by-handle oracles."""
    slots = family.handle_slots()
    c = legendrian.adjunction_vector(slots)
    count, increasing, at_c, at_minus_c = _filling_pass(c, rot_vectors)
    canonical = [is_canonical_oracle(family, rots) for rots in vectors]
    zero_defect = [has_zero_defect_oracle(family, rots) for rots in vectors]
    assert [legendrian.is_canonical(slots, rots) for rots in vectors] == canonical, family
    assert count == len(vectors), family
    assert increasing is all(a < b for a, b in itertools.pairwise(vectors)), family
    assert at_c == sum(zero_defect), family
    assert at_minus_c == sum(ok and not zero for ok, zero in zip(canonical, zero_defect)), family


def test_filling_pass_matches_oracles_over_suite():
    for family in suite_families():
        vectors = legendrian.enumerate_stein_fillings(family)
        assert_pass_matches_oracles(family, vectors, legendrian.filling_rot_vectors(family))


def test_filling_pass_matches_oracles_on_mixed_diagrams():
    # every handle at -s or +s, so all but the two canonical diagrams mix
    # the two extremes; a zero-budget slot (n = 2) has -s = +s, so its
    # vectors repeat, and the reversed order decreases
    families = (
        Cusp((3, 4, 5)),
        Cusp((2, 3, 2, 6)),
        Cusp((4,)),
        Cusp((3, 3, 3, 3, 3)),
        Elliptic(4),
    )
    for family in families:
        slots = family.handle_slots()
        ranges = [rotation_range(g, f) for g, f in slots]
        vectors = [
            check_rot_vector(family, [r[side] for r, side in zip(ranges, sides)])
            for sides in itertools.product((0, -1), repeat=len(slots))
        ]
        for ordered in (vectors, vectors[::-1]):
            assert_pass_matches_oracles(family, ordered, iter(ordered))
        assert sum(is_canonical_oracle(family, rots) for rots in vectors) >= 1, family


cusp_words = st.lists(st.integers(2, 6), min_size=1, max_size=6).filter(lambda w: max(w) >= 3)


@settings(max_examples=40, deadline=None)
@given(cusp_words)
def test_filling_pass_matches_oracles_on_cusp_words(word):
    family = Cusp(word)
    vectors = legendrian.enumerate_stein_fillings(family)
    assert_pass_matches_oracles(family, vectors, legendrian.filling_rot_vectors(family))


def _diagram_count(word):
    return math.prod(n - 1 for n in word)


# cusp words the suite leaves out (a longer word or a larger entry), small
# enough to enumerate, and elliptic parameters up to 500
families_beyond_the_suite = st.one_of(
    st.lists(st.integers(2, 9), min_size=1, max_size=6)
    .filter(lambda w: max(w) >= 3 and (len(w) > SUITE_MAX_K or max(w) > SUITE_MAX_ENTRY))
    .filter(lambda w: _diagram_count(w) <= 5_000)
    .map(Cusp),
    st.integers(1, 500).map(Elliptic),
)


@settings(max_examples=90, deadline=None)
@given(families_beyond_the_suite)
def test_verify_family_passes_beyond_the_suite(family):
    assert [name for name, ok in verify_family(family) if not ok] == [], family


FILLING_CHECKS = (
    "stein filling count",
    "c1 evaluations pairwise distinct",
    "adjunction uniqueness",
)

# each way of breaking the stream of rot vectors, and the filling checks
# it must fail; minimal and maximal are the two canonical rot vectors
ENUMERATION_MUTATIONS = {
    "duplicate minimal": (
        lambda vectors, minimal, maximal: itertools.chain(vectors, [minimal]),
        FILLING_CHECKS,
    ),
    "drop minimal": (
        lambda vectors, minimal, maximal: (r for r in vectors if r != minimal),
        ("stein filling count", "adjunction uniqueness"),
    ),
    "drop maximal": (
        lambda vectors, minimal, maximal: (r for r in vectors if r != maximal),
        ("stein filling count", "adjunction uniqueness"),
    ),
}


def failed_checks(family):
    return {name for name, passed in verify_family(family) if not passed}


@pytest.mark.parametrize("mutation", sorted(ENUMERATION_MUTATIONS))
def test_broken_enumeration_fails_exactly_its_checks(monkeypatch, mutation):
    family = Cusp((3, 4, 5))
    names = [name for name, _ in verify_family(family)]
    assert failed_checks(family) == set()
    mutate, failing = ENUMERATION_MUTATIONS[mutation]
    original = legendrian.filling_rot_vectors
    minimal = legendrian.canonical_filling(family.handle_slots(), "min")
    maximal = legendrian.canonical_filling(family.handle_slots(), "max")
    monkeypatch.setattr(
        legendrian,
        "filling_rot_vectors",
        lambda f: mutate(original(f), minimal, maximal),
    )
    assert [name for name, _ in verify_family(family)] == names
    assert failed_checks(family) == set(failing)


def test_shifted_adjunction_formula_fails_uniqueness(monkeypatch):
    family = Cusp((3, 4, 5))
    original = legendrian.adjunction_vector

    def shifted(slots):
        c = original(slots)
        return (c[0] + 2,) + c[1:]

    monkeypatch.setattr(legendrian, "adjunction_vector", shifted)
    assert failed_checks(family) == {"adjunction uniqueness"}


def _wrong(group):
    """A group other than ``group``: one more free summand."""
    return AbelianGroup(group.free_rank + 1, group.torsion)


# each leg of the three-way H_1, as the owner and name of the function that
# invariants calls for it
H1_LEGS = {
    "plumbing": (invariants.SnfResult, "cokernel"),
    "monodromy": (invariants, "two_column_cokernel"),
    "openbook": (invariants, "openbook_homology"),
}


@pytest.mark.parametrize("leg", sorted(H1_LEGS))
def test_each_h1_leg_can_fail_the_agreement(monkeypatch, capsys, leg):
    # one wrong group among the three fails the agreement in verify, in the
    # inv JSON and in the inv text, and fails nothing else
    families = (Cusp((2, 3, 4)), Elliptic(3))
    assert all(failed_checks(family) == set() for family in families)
    assert main(["inv", "--cusp", "2,3,4"]) == 0
    assert "agreement: yes" in capsys.readouterr().out.splitlines()
    owner, name = H1_LEGS[leg]
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: _wrong(original(*args)))
    for family in families:
        assert failed_checks(family) == {"triple homology agreement"}, family
    assert main(["inv", "--cusp", "2,3,4", "--json"]) == 0
    homology = json.loads(capsys.readouterr().out)["homology"]
    assert homology["all_equal"] is False
    right, wrong = {"free_rank": 1, "torsion": [13]}, {"free_rank": 2, "torsion": [13]}
    for key in H1_LEGS:
        assert homology[key] == (wrong if key == leg else right), key
    assert main(["inv", "--cusp", "2,3,4"]) == 0
    assert "agreement: NO" in capsys.readouterr().out.splitlines()


def test_a_nonzero_canonical_euler_class_fails_its_check(monkeypatch, capsys):
    # a canonical class of order 2 fails the Euler check alone, and inv
    # prints it as nonzero, with no witness
    euler_classes = invariants.FamilyReduction.euler_classes

    def order_two(self, rot_vectors):
        return tuple((2, y) for _, y in euler_classes(self, rot_vectors))

    monkeypatch.setattr(invariants.FamilyReduction, "euler_classes", order_two)
    for family in (Cusp((2, 3, 4)), Elliptic(3)):
        assert failed_checks(family) == {"euler class of the canonical structure vanishes"}
    assert main(["inv", "--cusp", "2,3,4", "--json"]) == 0
    out = capsys.readouterr().out
    nonzero = {"is_zero": False, "order": 2, "witness": None}
    assert json.loads(out)["euler"] == {"min": nonzero, "max": nonzero}
    assert out.count('{"is_zero": false, "order": 2, "witness": null}') == 2
    assert main(["inv", "--cusp", "2,3,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("euler[")] == [
        "euler[min]: zero=False witness=None",
        "euler[max]: zero=False witness=None",
    ]


def test_every_diagram_of_one_verify_call_is_checked(monkeypatch):
    # verify streams the rot vectors taken off the slots' budgets and takes
    # the two canonical ones off the budgets too; every streamed vector and
    # both canonical vectors must pass check_rot_vector, and there must be
    # as many streamed vectors as the closed form says
    rot_vectors = legendrian.filling_rot_vectors
    canonical_filling = legendrian.canonical_filling
    for family, count in (
        (Cusp((3, 4, 5)), _diagram_count((3, 4, 5))),
        (Elliptic(3), 3 + 1),
        (Cusp((2, 3)), _diagram_count((2, 3))),
    ):
        streamed, built = [], []

        def checked_vectors(family):
            for rots in rot_vectors(family):
                streamed.append(rots)
                assert check_rot_vector(family, rots) == rots
                yield rots

        def checked_canonical(slots, sign):
            assert slots == family.handle_slots()
            rots = canonical_filling(slots, sign)
            built.append(rots)
            assert check_rot_vector(family, rots) == rots
            return rots

        monkeypatch.setattr(legendrian, "filling_rot_vectors", checked_vectors)
        monkeypatch.setattr(legendrian, "canonical_filling", checked_canonical)
        assert all(passed for _, passed in verify_family(family))
        monkeypatch.undo()
        assert len(streamed) == count, family
        canonical = [legendrian.canonical_filling(family.handle_slots(), s) for s in ("min", "max")]
        assert built == canonical, family
