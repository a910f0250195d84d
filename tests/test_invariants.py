from fractions import Fraction

import pytest

from singlink import families, invariants
from singlink.families import ChainUnknot, Cusp, Elliptic, EllipticCore, UnsupportedPresentation
from singlink.invariants import (
    DimensionMismatch,
    FamilyReduction,
    NonTorsionChernClass,
    adjunction_defect,
    adjunction_vector,
    d3_invariant,
    euler_class,
    homology_cross_check,
    is_canonical,
)
from singlink.legendrian import (
    SteinHandleDiagram,
    TwoHandleSpec,
    canonical_filling,
    enumerate_stein_fillings,
)
from singlink.linalg import AbelianGroup, SnfResult, dot, smith_normal_form, solve_rational
from singlink.plumbing import boundary_homology, intersection_matrix
from singlink.sl2z import CycleWord, Sl2Matrix

from helpers import (
    adjunction_defect_oracle,
    counted_snf,
    d3_oracle,
    mat_vec,
    presentation_oracle,
    resolution_d3_oracle,
    suite_families,
)


def test_adjunction_defect_fixed():
    assert adjunction_defect(TwoHandleSpec(ChainUnknot(), -2, 0)) == 0
    for n in (1, 4, 9):
        handle = TwoHandleSpec(EllipticCore(), -n, -n)
        assert adjunction_defect(handle) == 0
    assert adjunction_defect(TwoHandleSpec(ChainUnknot(), -4, 0)) == 2


def test_adjunction_vector_is_the_minimal_canonical_rot_vector_over_suite():
    for family in suite_families():
        c = adjunction_vector(family.handle_slots())
        assert c == canonical_filling(family, "min").rot_vector, family
        for d in enumerate_stein_fillings(family):
            defects = [adjunction_defect(h) for h in d.handles]
            assert defects == [adjunction_defect_oracle(h) for h in d.handles], family
            assert defects == [r - t for r, t in zip(d.rot_vector, c)], family


def test_is_canonical_examples():
    family = Cusp(CycleWord((2, 2, 3)))
    assert is_canonical(canonical_filling(family, "min"))
    assert is_canonical(canonical_filling(family, "max"))
    middle = enumerate_stein_fillings(Elliptic(3))[1]  # rot -1
    assert middle.rot_vector == (-1,)
    assert not is_canonical(middle)


def test_hand_built_canonical_handles_are_canonical():
    # a handle built from its tag, framing and rot gets the tag's genus, so
    # rot = framing + 2 - 2 * genus (genus read off the tag here) is canonical
    for family in suite_families():
        for sign, unit in (("min", 1), ("max", -1)):
            rots = []
            for tag, f in family.handle_slots():
                genus = 0 if isinstance(tag, ChainUnknot) else 1
                rots.append(unit * (f + 2 - 2 * genus))
            diagram = SteinHandleDiagram(family, rots)
            assert is_canonical(diagram), family
            assert diagram == canonical_filling(family, sign)
            assert diagram.handles == canonical_filling(family, sign).handles
    assert is_canonical(SteinHandleDiagram(Elliptic(3), (-3,)))


def test_adjunction_uniqueness_over_suite():
    for family in suite_families():
        fillings = enumerate_stein_fillings(family)
        minimal = canonical_filling(family, "min")
        maximal = canonical_filling(family, "max")
        direct = [
            d for d in fillings if all(adjunction_defect(h) == 0 for h in d.handles)
        ]
        assert direct == [minimal]
        negated = [
            d
            for d in fillings
            if all(
                -h.rot - (h.smooth_framing - 2 * h.surface_genus + 2) == 0
                for h in d.handles
            )
        ]
        assert negated == [maximal]
        canonical = [d for d in fillings if is_canonical(d)]
        expected = 1 if minimal == maximal else 2
        assert len(canonical) == expected


def test_c1_vectors_pairwise_distinct():
    for family in suite_families():
        vectors = [d.rot_vector for d in enumerate_stein_fillings(family)]
        assert len(set(vectors)) == len(vectors)


def test_euler_classes_replay_each_log_once(monkeypatch):
    # each vector's log is replayed once: a zero class's witness is lifted
    # from that reduction, not solved again, and still solves Q x = v
    reduce = SnfResult.reduce
    calls = []
    monkeypatch.setattr(SnfResult, "reduce", lambda snf, v: calls.append(v) or reduce(snf, v))
    for family in (Cusp(CycleWord((2, 3, 4))), Cusp(CycleWord((3, 5))), Elliptic(3)):
        reduction = FamilyReduction(family)
        vectors = [d.rot_vector for d in enumerate_stein_fillings(family)]
        calls.clear()
        reps = reduction.euler_classes(vectors)
        assert len(calls) == len(vectors), family
        assert any(rep.is_zero for rep in reps) and not all(rep.is_zero for rep in reps), family
        for rep in reps:
            assert (rep.witness is not None) is rep.is_zero, family
            if rep.is_zero:
                assert mat_vec(reduction.presentation, rep.witness) == rep.vector, family


def test_family_presentation():
    # Q is the linking matrix of the 2-handles: (-n) for Elliptic(n)
    for n in (1, 4, 10**30):
        assert FamilyReduction(Elliptic(n)).presentation == ((-n,),)
    assert FamilyReduction(Cusp(CycleWord((2, 3)))).presentation == ((-2, 2), (2, -3))


def test_euler_class_fixed():
    rep = euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0, -1))
    assert rep.is_zero and rep.order == 1
    assert rep.witness == (1, 1, 1)
    assert mat_vec(rep.presentation, rep.witness) == (0, 0, -1)

    for n in (1, 3, 7):
        rep = euler_class(Elliptic(n), (-n,))
        assert rep.is_zero and rep.witness == (1,)
        assert mat_vec(rep.presentation, rep.witness) == (-n,)
        with pytest.raises(DimensionMismatch):
            euler_class(Elliptic(n), (0, 0, -n))

    nonzero = euler_class(Elliptic(3), (-1,))
    assert not nonzero.is_zero
    assert nonzero.order == 3
    assert nonzero.witness is None


def test_euler_class_infinite_order(monkeypatch):
    # with Q = (0), every nonzero class has infinite order
    monkeypatch.setattr(invariants, "intersection_matrix", lambda graph: ((0,),))
    rep = euler_class(Elliptic(3), (1,))
    assert not rep.is_zero and rep.order is None


def test_euler_class_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0))
    with pytest.raises(DimensionMismatch):
        euler_class(Elliptic(3), (0, 0))


def test_euler_reduced_form_invariance():
    family = Cusp(CycleWord((3, 4)))
    q = presentation_oracle(family)
    base = (1, -1)
    rep = euler_class(family, base)
    for combo in [(1, 0), (0, 1), (2, -3)]:
        shifted = tuple(
            base[i] + sum(combo[j] * q[i][j] for j in range(len(q))) for i in range(len(q))
        )
        assert euler_class(family, shifted).reduced == rep.reduced


def test_euler_canonical_vanishes_with_unit_witnesses():
    # one entry per 2-handle: k for a cusp word, 1 for Elliptic(n)
    for family in suite_families():
        k = len(family.word) if isinstance(family, Cusp) else 1
        for sign, unit in (("min", 1), ("max", -1)):
            diagram = canonical_filling(family, sign)
            rep = euler_class(family, diagram.rot_vector)
            assert rep.is_zero, (family, sign)
            assert rep.witness == (unit,) * k, (family, sign)


def test_d3_elliptic_one_half():
    value = d3_invariant(canonical_filling(Elliptic(1), "min"))
    assert value == Fraction(1, 2)


def test_d3_formula_both_signs():
    # Gompf on Q = (-n): c^2 = -n, sigma = -1 and chi = 1 - 2 + 1 = 0 give
    # (-n + 3 - 0)/4 = (3 - n)/4
    for n in range(1, 11):
        for sign in ("min", "max"):
            assert d3_invariant(canonical_filling(Elliptic(n), sign)) == Fraction(3 - n, 4)


def test_d3_matches_gompf_on_every_elliptic_filling():
    # Gompf's formula on the Stein filling itself, whose 2-handle form is
    # (-n): c1^2 = -r^2/n, sigma = -1, chi = 1 - 2 + 1 = 0, so
    # d3 = (c1^2 - 3*sigma - 2*chi)/4 = (3 - r^2/n)/4
    fillings = 0
    for n in range(1, 11):
        for diagram in enumerate_stein_fillings(Elliptic(n)):
            (r,) = diagram.rot_vector
            assert d3_invariant(diagram) == (3 - Fraction(r * r, n)) / 4, (n, r)
            fillings += 1
    assert fillings == 65


def _d3_values(family, diagrams):
    """d3 of each diagram from the Euler classes of one reduction of Q."""
    reduction = FamilyReduction(family)
    return reduction.d3_invariants(reduction.euler_classes([d.rot_vector for d in diagrams]))


def test_d3_invariants_match_the_oracle_on_every_elliptic_filling():
    fillings = 0
    for n in range(1, 11):
        family = Elliptic(n)
        diagrams = enumerate_stein_fillings(family)
        values = _d3_values(family, diagrams)
        assert values == tuple(map(d3_oracle, diagrams)), n
        assert values == tuple(map(d3_invariant, diagrams)), n
        fillings += len(diagrams)
    assert fillings == 65


def test_d3_invariants_on_the_canonical_fillings():
    for n in [*range(1, 61), 10**30]:
        family = Elliptic(n)
        diagrams = [canonical_filling(family, sign) for sign in ("min", "max")]
        values = _d3_values(family, diagrams)
        assert values == (Fraction(3 - n, 4),) * 2, n
        assert values == tuple(map(d3_oracle, diagrams)), n
        assert values == tuple(map(d3_invariant, diagrams)), n


def test_d3_solution_choice_independent():
    for n in (1, 4, 9):
        diagram = canonical_filling(Elliptic(n), "min")
        q = presentation_oracle(diagram.family)
        rot = (0,) * diagram.one_handle_count + diagram.rot_vector
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
    diagram = canonical_filling(family, "min")
    with pytest.raises(UnsupportedPresentation) as raised:
        d3_invariant(diagram)
    assert raised.type is families.UnsupportedPresentation
    message = "cusp(2,2,3) has no linking matrix for its 4 surgery components"
    assert str(raised.value) == message
    reduction = FamilyReduction(family)
    for reps in (reduction.euler_classes((diagram.rot_vector,)), ()):
        with pytest.raises(UnsupportedPresentation) as raised:
            reduction.d3_invariants(reps)
        assert str(raised.value) == message
    with pytest.raises(UnsupportedPresentation):
        d3_oracle(diagram)


def test_d3_on_q2_matches_the_closed_forms_and_the_resolution_graph(monkeypatch):
    # with the cusp refusal lifted, Gompf's formula on Q gives each
    # canonical structure (k - sum(n_i - 2))/4 on a cusp and (3 - n)/4 on
    # Elliptic(n), and so does the resolution graph, which reads genus and
    # loops off the graph and no Legendrian data
    monkeypatch.setattr(invariants, "check_d3_supported", lambda family, graph: None)
    cusps = [f for f in suite_families() if isinstance(f, Cusp)]
    assert len(cusps) == 336
    for family in [*cusps, *(Elliptic(n) for n in range(1, 41))]:
        if isinstance(family, Cusp):
            expected = Fraction(len(family.word) - sum(n - 2 for n in family.word), 4)
        else:
            expected = Fraction(3 - family.n, 4)
        assert resolution_d3_oracle(family) == expected, family
        diagrams = [canonical_filling(family, sign) for sign in ("min", "max")]
        assert _d3_values(family, diagrams) == (expected, expected), family


def test_d3_invariant_refuses_a_cusp_before_reducing_q():
    # the graph's cycle decides the refusal, so a 400-vertex cusp costs no
    # SNF, while an elliptic diagram still reduces its Q once
    diagram = canonical_filling(Cusp(CycleWord((3,) * 400)), "min")
    with counted_snf() as calls, pytest.raises(UnsupportedPresentation):
        d3_invariant(diagram)
    assert calls == []
    with counted_snf() as calls:
        assert d3_invariant(canonical_filling(Elliptic(3), "min")) == 0
    assert len(calls) == 1


def test_d3_rejects_non_torsion_chern_class(monkeypatch):
    # with Q = (0), Q x = (-3) has no rational solution
    monkeypatch.setattr(invariants, "intersection_matrix", lambda graph: ((0,),))
    with pytest.raises(NonTorsionChernClass):
        d3_invariant(canonical_filling(Elliptic(3), "min"))


def test_presentation_agrees_with_the_plumbing_route():
    # for every family Q is the intersection form, so the plumbing H_1 is
    # the group boundary_homology reads off the graph; the 1-handles are
    # the genus and cycle generators, boundary_free_rank of them, and d3 is
    # refused exactly when the graph has a cycle
    for family in [*suite_families(), *(Elliptic(n) for n in range(1, 41))]:
        reduction = FamilyReduction(family)
        graph = reduction.graph
        assert reduction.presentation == intersection_matrix(graph), family
        report = reduction.homology(family.monodromy(), family.openbook())
        assert report.plumbing == boundary_homology(graph), family
        assert family.one_handle_count == graph.boundary_free_rank(), family
        reps = reduction.euler_classes((canonical_filling(family, "min").rot_vector,))
        if graph.first_betti() > 0:
            with pytest.raises(UnsupportedPresentation):
                reduction.d3_invariants(reps)
        else:
            assert reduction.d3_invariants(reps) == (Fraction(3 - family.n, 4),)


def test_elliptic_monodromy_convention():
    a = Elliptic(4).monodromy()
    assert a == Sl2Matrix(1, 4, 0, 1)
    assert a.trace == 2
    assert Elliptic(1).monodromy() == Sl2Matrix(1, 1, 0, 1)
    assert Cusp(CycleWord((2, 3))).monodromy() == Sl2Matrix(5, -2, 3, -1)


def test_homology_cross_check_fixed():
    report = homology_cross_check(Elliptic(3))
    assert report.all_equal
    assert report.plumbing == AbelianGroup(2, (3,))
    report = homology_cross_check(Cusp(CycleWord((2, 2, 3))))
    assert report.all_equal
    assert report.openbook == AbelianGroup(1, (3,))
    report = homology_cross_check(Cusp(CycleWord((4,))))
    assert report.all_equal
    assert report.monodromy == AbelianGroup(1, (2,))


def test_homology_cross_check_suite():
    for family in suite_families():
        assert homology_cross_check(family).all_equal, family
