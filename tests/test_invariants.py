from fractions import Fraction

import pytest

from singlink.families import Cusp, Elliptic
from singlink.invariants import (
    DimensionMismatch,
    NonTorsionChernClass,
    UnsupportedPresentation,
    adjunction_defect,
    c1_evaluations,
    d3_invariant,
    euler_class,
    homology_cross_check,
    is_canonical,
)
from singlink.legendrian import (
    ChainUnknot,
    ContactSurgeryComponent,
    ContactSurgeryDiagram,
    EllipticCore,
    PresentationKind,
    SteinHandleDiagram,
    TwoHandleSpec,
    canonical_filling,
    enumerate_stein_fillings,
    to_contact_surgery,
)
from singlink.linalg import AbelianGroup, dot, integer_kernel_basis, mat_vec, solve_rational
from singlink.sl2z import CycleWord, Sl2Matrix

from helpers import suite_families


def test_c1_evaluations_equal_rot():
    diagram = canonical_filling(Cusp(CycleWord((2, 2, 3))), "min")
    assert c1_evaluations(diagram) == (0, 0, -1) == diagram.rot_vector
    assert c1_evaluations(canonical_filling(Elliptic(5), "min")) == (-5,)
    zero = enumerate_stein_fillings(Cusp(CycleWord((3, 3))))[1]
    assert zero.rot_vector != (0, 0)  # (3,3) has vectors in {-1,1}^2
    assert c1_evaluations(zero) == zero.rot_vector


def test_adjunction_defect_fixed():
    assert adjunction_defect(TwoHandleSpec(ChainUnknot(1), -2, 0)) == 0
    for n in (1, 4, 9):
        handle = TwoHandleSpec(EllipticCore(), -n, -n)
        assert adjunction_defect(handle) == 0
    assert adjunction_defect(TwoHandleSpec(ChainUnknot(1), -4, 0)) == 2


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
            handles = []
            for tag, f in family.handle_slots():
                genus = 0 if isinstance(tag, ChainUnknot) else 1
                handles.append(TwoHandleSpec(tag, f, unit * (f + 2 - 2 * genus)))
            diagram = SteinHandleDiagram(family, handles)
            assert is_canonical(diagram), family
            assert diagram == canonical_filling(family, sign)
    assert is_canonical(SteinHandleDiagram(Elliptic(3), (TwoHandleSpec(EllipticCore(), -3, -3),)))


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
        vectors = [c1_evaluations(d) for d in enumerate_stein_fillings(family)]
        assert len(set(vectors)) == len(vectors)


def test_family_presentation():
    assert Elliptic(4).presentation() == ((0, 0, 0), (0, 0, 0), (0, 0, -4))
    assert Cusp(CycleWord((2, 3))).presentation() == ((-2, 2), (2, -3))


def test_euler_class_fixed():
    rep = euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0, -1))
    assert rep.is_zero and rep.order == 1
    assert rep.witness == (1, 1, 1)
    assert mat_vec(rep.presentation, rep.witness) == (0, 0, -1)

    for n in (1, 3, 7):
        rep = euler_class(Elliptic(n), (0, 0, -n))
        assert rep.is_zero and rep.witness == (0, 0, 1)
        short = euler_class(Elliptic(n), (-n,))
        assert short.is_zero and short.witness == (0, 0, 1)

    nonzero = euler_class(Elliptic(3), (0, 0, -1))
    assert not nonzero.is_zero
    assert nonzero.order == 3
    assert nonzero.witness is None


def test_euler_class_infinite_order():
    rep = euler_class(Elliptic(3), (1, 0, 0))
    assert not rep.is_zero and rep.order is None


def test_euler_class_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0))
    with pytest.raises(DimensionMismatch):
        euler_class(Elliptic(3), (0, 0))


def test_euler_reduced_form_invariance():
    family = Cusp(CycleWord((3, 4)))
    q = family.presentation()
    base = (1, -1)
    rep = euler_class(family, base)
    for combo in [(1, 0), (0, 1), (2, -3)]:
        shifted = tuple(
            base[i] + sum(combo[j] * q[i][j] for j in range(len(q))) for i in range(len(q))
        )
        assert euler_class(family, shifted).reduced == rep.reduced


def test_euler_canonical_vanishes_with_unit_witnesses():
    for family in suite_families():
        k = len(family.presentation())
        for sign, unit in (("min", 1), ("max", -1)):
            diagram = canonical_filling(family, sign)
            rep = euler_class(family, diagram.rot_vector)
            assert rep.is_zero, (family, sign)
            assert rep.witness is not None
            if isinstance(family, Cusp):
                assert rep.witness == tuple(unit for _ in range(k))
            else:
                assert rep.witness == (0, 0, unit)


def test_d3_elliptic_one_half():
    value = d3_invariant(to_contact_surgery(canonical_filling(Elliptic(1), "min")))
    assert value == Fraction(1, 2)


def test_d3_formula_both_signs():
    # q=2, chi=4, sigma=-1 and c^2 = -n give ((-n) + 3 - 8)/4 + 2 = (3 - n)/4
    for n in range(1, 11):
        for sign in ("min", "max"):
            cd = to_contact_surgery(canonical_filling(Elliptic(n), sign))
            assert d3_invariant(cd) == Fraction(3 - n, 4)


def test_d3_solution_choice_independent():
    for n in (1, 4, 9):
        cd = to_contact_surgery(canonical_filling(Elliptic(n), "min"))
        q, rot = cd.presentation_matrix, cd.rot_vector
        x = solve_rational(q, rot)
        for kernel_vector in integer_kernel_basis(q):
            shifted = tuple(a + b for a, b in zip(x, kernel_vector))
            assert mat_vec(q, shifted) == tuple(map(Fraction, rot))
            assert dot(shifted, rot) == dot(x, rot)


def test_d3_unsupported_for_plumbing_presentation():
    cd = to_contact_surgery(canonical_filling(Cusp(CycleWord((2, 2, 3))), "min"))
    with pytest.raises(UnsupportedPresentation):
        d3_invariant(cd)


def test_d3_rejects_non_torsion_chern_class():
    bad = ContactSurgeryDiagram(
        components=(ContactSurgeryComponent(-2, 1, -1),),
        presentation_matrix=((0,),),
        presentation_kind=PresentationKind.LITERAL_LINKING,
    )
    with pytest.raises(NonTorsionChernClass):
        d3_invariant(bad)


def test_d3_empty_diagram_is_standard_sphere():
    empty = ContactSurgeryDiagram((), (), PresentationKind.LITERAL_LINKING)
    assert d3_invariant(empty) == Fraction(-1, 2)


def test_d3_all_rot_zero_negative_definite():
    # c^2 = 0, so the value is (-3*sigma - 2*chi)/4 + q with q = 0
    cd = ContactSurgeryDiagram(
        components=(ContactSurgeryComponent(-1, 0, -1), ContactSurgeryComponent(-1, 0, -1)),
        presentation_matrix=((-2, 0), (0, -2)),
        presentation_kind=PresentationKind.LITERAL_LINKING,
    )
    assert d3_invariant(cd) == Fraction(-3 * (-2) - 2 * 3, 4)


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
