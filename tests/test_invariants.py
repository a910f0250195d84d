from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import families, invariants
from singlink.families import Cusp, Elliptic, UnsupportedPresentation
from singlink.invariants import (
    DimensionMismatch,
    FamilyReduction,
    d3_invariant,
    euler_class,
    homology_cross_check,
)
from singlink.legendrian import (
    adjunction_defects,
    adjunction_vector,
    canonical_filling,
    check_rot_vector,
    enumerate_stein_fillings,
    is_canonical,
    rotation_range,
)
from singlink.linalg import AbelianGroup, SnfResult, dot, smith_normal_form, solve_rational
from singlink.plumbing import boundary_homology, intersection_matrix
from singlink.sl2z import CycleWord, Sl2Matrix, cycle_monodromy, cyclic_equal, factor_cycle

from helpers import (
    _fraction_solve,
    adjunction_defects_oracle,
    brieskorn_count,
    counted_snf,
    d3_oracle,
    handle_slots_oracle,
    mat_vec,
    presentation_oracle,
    resolution_d3_oracle,
    suite_families,
)


def test_adjunction_defect_fixed():
    # slots (0, -2), (0, -3), (0, -4): the last handle's defect is 2 at rot 0
    family = Cusp(CycleWord((2, 3, 4)))
    assert adjunction_defects(family.handle_slots(), (0, -1, 0)) == (0, 0, 2)
    for n in (1, 4, 9):
        assert adjunction_defects(Elliptic(n).handle_slots(), (-n,)) == (0,)


def test_adjunction_vector_is_the_minimal_canonical_rot_vector_over_suite():
    for family in suite_families():
        slots = family.handle_slots()
        c = adjunction_vector(slots)
        assert c == canonical_filling(family.handle_slots(), "min"), family
        for rots in enumerate_stein_fillings(family):
            defects = adjunction_defects(slots, rots)
            assert list(defects) == adjunction_defects_oracle(family, rots), family
            assert defects == tuple(r - t for r, t in zip(rots, c)), family


def test_is_canonical_examples():
    family = Cusp(CycleWord((2, 2, 3)))
    slots = family.handle_slots()
    assert is_canonical(slots, canonical_filling(family.handle_slots(), "min"))
    assert is_canonical(slots, canonical_filling(family.handle_slots(), "max"))
    middle = enumerate_stein_fillings(Elliptic(3))[1]  # rot -1
    assert middle == (-1,)
    assert not is_canonical(Elliptic(3).handle_slots(), middle)


def test_hand_built_canonical_handles_are_canonical():
    # rot = framing + 2 - 2 * genus on every handle, with the genus and
    # framing read off the plumbing graph here, is canonical
    for family in suite_families():
        for sign, unit in (("min", 1), ("max", -1)):
            rots = [unit * (f + 2 - 2 * g) for g, f in handle_slots_oracle(family)]
            assert is_canonical(family.handle_slots(), rots), family
            assert check_rot_vector(family, rots) == canonical_filling(family.handle_slots(), sign)
    assert is_canonical(Elliptic(3).handle_slots(), (-3,))


def test_adjunction_uniqueness_over_suite():
    for family in suite_families():
        slots = family.handle_slots()
        fillings = enumerate_stein_fillings(family)
        minimal = canonical_filling(family.handle_slots(), "min")
        maximal = canonical_filling(family.handle_slots(), "max")
        direct = [
            rots
            for rots in fillings
            if all(defect == 0 for defect in adjunction_defects(slots, rots))
        ]
        assert direct == [minimal]
        negated = [
            rots
            for rots in fillings
            if all(-rot - (f - 2 * g + 2) == 0 for (g, f), rot in zip(slots, rots))
        ]
        assert negated == [maximal]
        canonical = [rots for rots in fillings if is_canonical(slots, rots)]
        expected = 1 if minimal == maximal else 2
        assert len(canonical) == expected


def test_c1_vectors_pairwise_distinct():
    for family in suite_families():
        vectors = enumerate_stein_fillings(family)
        assert len(set(vectors)) == len(vectors)


def test_euler_classes_replay_each_log_once(monkeypatch):
    # the log is replayed once per vector up to sign, at the first of v and
    # -v in the list: a zero class's witness is lifted from that reduction,
    # not solved again, the class at -v is read off the one at v, and every
    # witness still solves Q x = k v
    reduce = SnfResult.reduce
    calls = []
    monkeypatch.setattr(SnfResult, "reduce", lambda snf, v: calls.append(v) or reduce(snf, v))
    for family in (Cusp(CycleWord((2, 3, 4))), Cusp(CycleWord((3, 5))), Elliptic(3)):
        reduction = FamilyReduction(family)
        vectors = enumerate_stein_fillings(family)
        calls.clear()
        classes = reduction.euler_classes(vectors)
        firsts = []
        for rots in vectors:
            if rots not in firsts and tuple(-r for r in rots) not in firsts:
                firsts.append(rots)
        assert calls == firsts and len(firsts) < len(vectors), family
        orders = [k for k, _ in classes]
        assert 1 in orders and any(k != 1 for k in orders), family
        for rots, (k, y) in zip(vectors, classes, strict=True):
            assert mat_vec(reduction.presentation, y) == tuple(k * r for r in rots), family


def test_family_presentation():
    # Q is the linking matrix of the 2-handles: (-n) for Elliptic(n)
    for n in (1, 4, 10**30):
        assert FamilyReduction(Elliptic(n)).presentation == ((-n,),)
    assert FamilyReduction(Cusp(CycleWord((2, 3)))).presentation == ((-2, 2), (2, -3))


def test_euler_class_fixed():
    # a class is its order k and one integer solution y of Q y = k * rot
    family = Cusp(CycleWord((2, 2, 3)))
    assert euler_class(family, (0, 0, -1)) == (1, (1, 1, 1))
    assert mat_vec(intersection_matrix(family.graph()), (1, 1, 1)) == (0, 0, -1)

    for n in (1, 3, 7):
        assert euler_class(Elliptic(n), (-n,)) == (1, (1,))
        assert mat_vec(intersection_matrix(Elliptic(n).graph()), (1,)) == (-n,)
        with pytest.raises(DimensionMismatch):
            euler_class(Elliptic(n), (0, 0, -n))

    nonzero = euler_class(Elliptic(3), (-1,))
    assert nonzero == (3, (1,))  # Q y = 3 * (-1) with Q = (-3)
    assert type(nonzero) is tuple and type(nonzero[1]) is tuple


def test_family_reduction_refuses_a_singular_form(monkeypatch):
    # every family's Q is nonsingular; a zero invariant factor would let a
    # class have infinite order, so the reduction refuses it at once
    monkeypatch.setattr(invariants, "intersection_matrix", lambda graph: ((0,),))
    with pytest.raises(ValueError, match="singular"):
        FamilyReduction(Elliptic(3))
    with pytest.raises(ValueError, match="singular"):
        d3_invariant(Elliptic(3), canonical_filling(Elliptic(3).handle_slots(), "min"))


@st.composite
def cusp_classes(draw):
    """A cycle word with k <= 8 and entries 2..9 and a rot vector whose
    entries are drawn from each slot's rotation range."""
    word = draw(st.lists(st.integers(2, 9), min_size=1, max_size=8).filter(lambda w: max(w) > 2))
    family = Cusp(CycleWord(word))
    rots = tuple(draw(st.sampled_from(rotation_range(g, f))) for g, f in family.handle_slots())
    return family, rots


@settings(max_examples=200, deadline=None)
@given(cusp_classes())
def test_euler_class_order_and_solution_match_the_rational_solve(case):
    # the order is the least k with k * x integral, x the rational solution
    # of Q x = v found by Gauss-Jordan elimination on Fractions
    family, rots = case
    order, solution = euler_class(family, rots)
    q = intersection_matrix(family.graph())
    assert mat_vec(q, solution) == tuple(order * r for r in rots)
    x = _fraction_solve(q, rots)
    assert order == lcm(*[y.denominator for y in x])
    assert (order == 1) is all(y.denominator == 1 for y in x)


@st.composite
def realizable_classes(draw):
    """A cycle word with k <= 6 and entries 2..7, or Elliptic(n) with
    n <= 30, and a rot vector whose entries are drawn from each slot's
    rotation range, canonical or not."""
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(2, 7), min_size=1, max_size=6).filter(lambda w: max(w) > 2))
        family = Cusp(CycleWord(word))
    else:
        family = Elliptic(draw(st.integers(1, 30)))
    rots = tuple(draw(st.sampled_from(rotation_range(g, f))) for g, f in family.handle_slots())
    return family, rots


@settings(max_examples=200, deadline=None)
@given(realizable_classes())
def test_the_class_of_minus_v_is_the_negated_class(case):
    # euler_classes reduces v once and reads the class of -v off it, (k, y)
    # to (k, -y), and gives a repeat of v the class it had.  Each class is
    # also taken from its own one-vector call on a fresh reduction, so a
    # fault in reduce or lift that depends on the sign still shows
    family, v = case
    minus = tuple(-r for r in v)
    (single,) = FamilyReduction(family).euler_classes((v,))
    (negated,) = FamilyReduction(family).euler_classes((minus,))
    k, y = single
    assert negated == (k, tuple(-x for x in y))
    assert FamilyReduction(family).euler_classes((v, minus, v)) == (single, negated, single)


@settings(max_examples=100, deadline=None)
@given(cusp_classes(), st.integers(0, 7))
def test_rotating_or_reversing_the_word_permutes_the_invariants(case, shift):
    # a rotation or the reversal of the cycle word renumbers the vertices of
    # the plumbing cycle: the H_1 groups and the diagram count stay, and
    # each per-handle vector permutes with the word
    family, rots = case
    entries = family.word.entries
    shift %= len(entries)

    def rotate(v):
        return tuple(v[shift:]) + tuple(v[:shift])

    def reverse(v):
        return tuple(reversed(v))

    groups = homology_cross_check(family)
    order, _ = euler_class(family, rots)
    signs = ("min", "max")
    canonical = [canonical_filling(family.handle_slots(), s) for s in signs]
    classes = [euler_class(family, r) for r in canonical]
    for permute in (rotate, reverse):
        other = Cusp(CycleWord(permute(entries)))
        assert homology_cross_check(other) == groups, other
        assert other.filling_count == family.filling_count, other
        assert euler_class(other, permute(rots))[0] == order, other
        for sign, (k, witness) in zip(signs, classes):
            moved = euler_class(other, canonical_filling(other.handle_slots(), sign))
            assert moved == (k, permute(witness)), (other, sign)
    # the reversed word's monodromy is the transpose conjugated by diag(1, -1)
    a = cycle_monodromy(family.word)
    transposed = factor_cycle(Sl2Matrix(a.a, -a.c, -a.b, a.d))
    assert cyclic_equal(transposed, CycleWord(reverse(entries)))


def test_euler_class_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0))
    with pytest.raises(DimensionMismatch):
        euler_class(Elliptic(3), (0, 0))


def test_euler_reduced_form_invariance():
    # v and v + Q combo are one class: the same order k, and the solution of
    # Q y = k v moves by k * combo
    family = Cusp(CycleWord((3, 4)))
    q = intersection_matrix(family.graph())
    base = (1, -1)
    order, solution = euler_class(family, base)
    assert order == 8  # |det Q| = trace - 2 = 8, and (1, -1) generates
    for combo in [(1, 0), (0, 1), (2, -3)]:
        shifted = tuple(b + c for b, c in zip(base, mat_vec(q, combo)))
        moved = tuple(y + order * c for y, c in zip(solution, combo))
        assert euler_class(family, shifted) == (order, moved)


def test_euler_canonical_vanishes_with_unit_witnesses():
    # one entry per 2-handle: k for a cusp word, 1 for Elliptic(n)
    for family in suite_families():
        k = len(family.word) if isinstance(family, Cusp) else 1
        for sign, unit in (("min", 1), ("max", -1)):
            rots = canonical_filling(family.handle_slots(), sign)
            assert euler_class(family, rots) == (1, (unit,) * k), (family, sign)


def test_d3_elliptic_one_half():
    value = d3_invariant(Elliptic(1), canonical_filling(Elliptic(1).handle_slots(), "min"))
    assert value == Fraction(1, 2)


def test_d3_formula_both_signs():
    # Gompf on Q = (-n): c^2 = -n, sigma = -1 and chi = 1 - 2 + 1 = 0 give
    # (-n + 3 - 0)/4 = (3 - n)/4
    for n in range(1, 11):
        for sign in ("min", "max"):
            family = Elliptic(n)
            rots = canonical_filling(family.handle_slots(), sign)
            assert d3_invariant(family, rots) == Fraction(3 - n, 4)


def test_d3_matches_gompf_on_every_elliptic_filling():
    # Gompf's formula on the Stein filling itself, whose 2-handle form is
    # (-n): c1^2 = -r^2/n, sigma = -1, chi = 1 - 2 + 1 = 0, so
    # d3 = (c1^2 - 3*sigma - 2*chi)/4 = (3 - r^2/n)/4
    fillings = 0
    for n in range(1, 11):
        for rots in enumerate_stein_fillings(Elliptic(n)):
            (r,) = rots
            assert d3_invariant(Elliptic(n), rots) == (3 - Fraction(r * r, n)) / 4, (n, r)
            fillings += 1
    assert fillings == 65


def _d3_values(family, rot_vectors):
    """d3 of each rot vector from the Euler classes of one reduction of Q."""
    reduction = FamilyReduction(family)
    return reduction.d3_invariants(reduction.euler_classes(rot_vectors))


def test_d3_invariants_match_the_oracle_on_every_elliptic_filling():
    fillings = 0
    for n in range(1, 11):
        family = Elliptic(n)
        vectors = enumerate_stein_fillings(family)
        values = _d3_values(family, vectors)
        assert values == tuple(d3_oracle(family, rots) for rots in vectors), n
        assert values == tuple(d3_invariant(family, rots) for rots in vectors), n
        fillings += len(vectors)
    assert fillings == 65


def test_d3_invariants_on_the_canonical_fillings():
    for n in [*range(1, 61), 10**30]:
        family = Elliptic(n)
        vectors = [canonical_filling(family.handle_slots(), sign) for sign in ("min", "max")]
        values = _d3_values(family, vectors)
        assert values == (Fraction(3 - n, 4),) * 2, n
        assert values == tuple(d3_oracle(family, rots) for rots in vectors), n
        assert values == tuple(d3_invariant(family, rots) for rots in vectors), n


def test_d3_solution_choice_independent():
    for n in (1, 4, 9):
        family = Elliptic(n)
        q = presentation_oracle(family)
        rot = (0,) * family.one_handle_count + canonical_filling(family.handle_slots(), "min")
        x = solve_rational(q, rot)
        for kernel_vector in smith_normal_form(q).kernel_basis():
            shifted = tuple(a + b for a, b in zip(x, kernel_vector))
            assert mat_vec(q, shifted) == tuple(map(Fraction, rot))
            assert dot(shifted, rot) == dot(x, rot)


def test_d3_unsupported_for_plumbing_presentation():
    # a cusp's d3 is held back until it is cross-checked against the
    # resolution graph, so none is produced, by the one-call form or the
    # method, for any list of classes; the oracle's (+1)-surgery reading
    # has no row for the cusp's 1-handle and refuses it too
    family = Cusp(CycleWord((2, 2, 3)))
    rots = canonical_filling(family.handle_slots(), "min")
    with pytest.raises(UnsupportedPresentation) as raised:
        d3_invariant(family, rots)
    assert raised.type is families.UnsupportedPresentation
    message = "d3 of cusp(2,2,3) waits for the resolution-graph cross-check"
    assert str(raised.value) == message
    reduction = FamilyReduction(family)
    for classes in (reduction.euler_classes((rots,)), ()):
        with pytest.raises(UnsupportedPresentation) as raised:
            reduction.d3_invariants(classes)
        assert str(raised.value) == message
    with pytest.raises(UnsupportedPresentation):
        d3_oracle(family, rots)


def test_d3_on_q2_matches_the_closed_forms_and_the_resolution_graph(monkeypatch):
    # with the cusp refusal lifted, Gompf's formula on Q gives each
    # canonical structure (k - sum(n_i - 2))/4 on a cusp and (3 - n)/4 on
    # Elliptic(n), and so does the resolution graph, which reads genus and
    # loops off the graph and no Legendrian data
    monkeypatch.setattr(Cusp, "d3_supported", True)
    cusps = [f for f in suite_families() if isinstance(f, Cusp)]
    assert len(cusps) == 336
    for family in [*cusps, *(Elliptic(n) for n in range(1, 41))]:
        if isinstance(family, Cusp):
            expected = Fraction(len(family.word) - sum(n - 2 for n in family.word), 4)
        else:
            expected = Fraction(3 - family.n, 4)
        assert resolution_d3_oracle(family) == expected, family
        vectors = [canonical_filling(family.handle_slots(), sign) for sign in ("min", "max")]
        assert _d3_values(family, vectors) == (expected, expected), family


def test_d3_invariant_refuses_a_cusp_before_reducing_q():
    # the family's d3_supported decides the refusal, so a 400-vertex cusp
    # costs no SNF, while an elliptic diagram still reduces its Q once
    family = Cusp(CycleWord((3,) * 400))
    with counted_snf() as calls, pytest.raises(UnsupportedPresentation):
        d3_invariant(family, canonical_filling(family.handle_slots(), "min"))
    assert calls == []
    with counted_snf() as calls:
        assert d3_invariant(Elliptic(3), canonical_filling(Elliptic(3).handle_slots(), "min")) == 0
    assert len(calls) == 1
    # the cusp is refused before its rot vector is checked, and a rot vector
    # that is not realizable is refused before Q is reduced
    with counted_snf() as calls:
        with pytest.raises(UnsupportedPresentation):
            d3_invariant(family, (0,))
        with pytest.raises(ValueError, match="not realizable"):
            d3_invariant(Elliptic(3), (-2,))
        with pytest.raises(ValueError, match="rotation numbers for the"):
            d3_invariant(Elliptic(3), (-3, -3))
    assert calls == []


def test_d3_of_a_nonzero_class_replays_the_log_once(monkeypatch):
    # d3 reads the order and solution the Euler class already holds, so a
    # nonzero torsion class costs one replay of Q's row log, not a second
    # solve of Q y = k c
    reduce = SnfResult.reduce
    calls = []
    monkeypatch.setattr(SnfResult, "reduce", lambda snf, v: calls.append(v) or reduce(snf, v))
    reduction = FamilyReduction(Elliptic(3))
    classes = reduction.euler_classes(((-1,),))
    ((order, _),) = classes
    assert (order, calls) == (3, [(-1,)])
    assert reduction.d3_invariants(classes) == ((3 - Fraction(1, 3)) / 4,)
    assert calls == [(-1,)]
    family = Cusp(CycleWord((3, 5)))
    vectors = enumerate_stein_fillings(family)
    monkeypatch.setattr(Cusp, "d3_supported", True)
    calls.clear()
    _d3_values(family, vectors)
    assert len(vectors) == 8
    assert calls == [rots for rots in vectors if rots < tuple(-r for r in rots)]
    assert len(calls) == 4


def test_d3_matches_the_milnor_fibre():
    # the Milnor fibre is a second Stein filling of the canonical structure,
    # with c1 = 0 and chi = 1 + mu, so d3 = (-3 sigma - 2 (1 + mu))/4; for
    # Elliptic(1..3) sigma and mu come from Brieskorn's count on x^2 + y^3
    # + z^6, x^2 + y^4 + z^4 and x^3 + y^3 + z^3, and for n = 4..9 from
    # chi = 12 - n and sigma = n - 9
    assert brieskorn_count((2, 3, 5)) == (-8, 8, 0)
    assert brieskorn_count((2, 3, 7)) == (-8, 12, 0)
    fibres = {1: (2, 3, 6), 2: (2, 4, 4), 3: (3, 3, 3)}
    expected = {1: (-8, 10, 2), 2: (-7, 9, 2), 3: (-6, 8, 2)}
    for n in range(1, 10):
        family = Elliptic(n)
        if n in fibres:
            sigma, mu, mu0 = brieskorn_count(fibres[n])
            assert (sigma, mu, mu0) == expected[n]
            plumbing, _, _ = homology_cross_check(family)
            assert mu0 == plumbing.free_rank
        else:
            sigma, mu = n - 9, 11 - n
        milnor = Fraction(-3 * sigma - 2 * (1 + mu), 4)
        vectors = [canonical_filling(family.handle_slots(), sign) for sign in ("min", "max")]
        assert _d3_values(family, vectors) == (milnor, milnor), n
    assert [Fraction(-3 * s - 2 * (1 + m), 4) for s, m, _ in expected.values()] == [
        Fraction(1, 2),
        Fraction(1, 4),
        0,
    ]


def test_presentation_agrees_with_the_plumbing_route():
    # for every family Q is the intersection form, so the plumbing H_1 is
    # the group boundary_homology reads off the graph; the 1-handles are
    # the genus and cycle generators, boundary_free_rank of them, and d3 is
    # refused exactly when the graph has a cycle
    for family in [*suite_families(), *(Elliptic(n) for n in range(1, 41))]:
        reduction = FamilyReduction(family)
        graph = reduction.graph
        assert reduction.presentation == intersection_matrix(graph), family
        plumbing, _, _ = reduction.homology(family.monodromy())
        assert plumbing == boundary_homology(graph), family
        assert family.one_handle_count == graph.boundary_free_rank(), family
        classes = reduction.euler_classes((canonical_filling(family.handle_slots(), "min"),))
        assert family.d3_supported is (graph.first_betti() == 0), family
        if graph.first_betti() > 0:
            with pytest.raises(UnsupportedPresentation):
                reduction.d3_invariants(classes)
        else:
            assert reduction.d3_invariants(classes) == (Fraction(3 - family.n, 4),)


def test_elliptic_monodromy_convention():
    a = Elliptic(4).monodromy()
    assert a == Sl2Matrix(1, 4, 0, 1)
    assert a.trace == 2
    assert Elliptic(1).monodromy() == Sl2Matrix(1, 1, 0, 1)
    assert Cusp(CycleWord((2, 3))).monodromy() == Sl2Matrix(5, -2, 3, -1)


def test_homology_cross_check_fixed():
    # the triple is (plumbing, monodromy, openbook)
    assert homology_cross_check(Elliptic(3)) == (AbelianGroup(2, (3,)),) * 3
    assert homology_cross_check(Cusp(CycleWord((2, 2, 3)))) == (AbelianGroup(1, (3,)),) * 3
    assert homology_cross_check(Cusp(CycleWord((4,)))) == (AbelianGroup(1, (2,)),) * 3


def test_homology_cross_check_suite():
    for family in suite_families():
        plumbing, monodromy, openbook = homology_cross_check(family)
        assert plumbing == monodromy == openbook, family
