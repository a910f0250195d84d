"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact; there are no tolerances anywhere.  The standard suite
is Elliptic(1..10) together with every valid cycle word with k <= 4 and
entries <= 5.
"""
from contextlib import contextmanager
from fractions import Fraction

from singlink.cli import parse_args, run
from singlink.families import Cusp, Elliptic
from singlink.invariants import d3_invariant, euler_class, homology_cross_check
from singlink.legendrian import (
    adjunction_defects,
    canonical_filling,
    enumerate_stein_fillings,
    is_canonical,
)
from singlink.linalg import determinant, dot, smith_normal_form, solve_rational
from singlink.openbook import PAGE_GENUS, twist_word
from singlink.plumbing import intersection_matrix
from singlink.sl2z import cycle_monodromy, cyclic_equal, factor_cycle

from helpers import mat_vec, presentation_oracle, suite_cusp_words, suite_families


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def test_criterion_01_elliptic_counting():
    with criterion(1, "elliptic enumeration has n+1 fillings with rot set {-n,...,n}"):
        for n in range(1, 11):
            fillings = enumerate_stein_fillings(Elliptic(n))
            assert len(fillings) == n + 1
            rots = [rot_vector[0] for rot_vector in fillings]
            assert rots == list(range(-n, n + 1, 2))


def test_criterion_02_cusp_counting():
    with criterion(2, "cusp enumeration has prod(n_i - 1) fillings with the stated rot sets"):
        for word in suite_cusp_words():
            fillings = enumerate_stein_fillings(Cusp(word))
            expected = 1
            for n in word:
                expected *= n - 1
            assert len(fillings) == expected
            for position, n in enumerate(word):
                observed = sorted({rots[position] for rots in fillings})
                assert observed == list(range(2 - n, n - 1, 2))


def test_criterion_03_monodromy():
    with criterion(3, "trace >= 3 on the suite and factor_cycle inverts cycle_monodromy"):
        for word in suite_cusp_words():
            matrix = cycle_monodromy(word)
            assert matrix.trace >= 3
            assert cyclic_equal(factor_cycle(matrix), word)


def test_criterion_04_openbook_data():
    with criterion(4, "open book page genus, boundary count and word length"):
        for word in suite_cusp_words():
            family = Cusp(word)
            boundaries = sum(n - 2 for n in word)
            assert PAGE_GENUS == 1
            gammas = [label for kind, label in twist_word(family) if kind == "gamma"]
            assert family.boundary_count == len(gammas) == boundaries
            assert len(twist_word(family)) == len(word) + boundaries
        for n in range(1, 11):
            family = Elliptic(n)
            assert PAGE_GENUS == 1
            gammas = [label for kind, label in twist_word(family) if kind == "gamma"]
            assert family.boundary_count == len(gammas) == n
            assert len(twist_word(family)) == n


def test_criterion_05_triple_homology():
    with criterion(5, "plumbing, monodromy and open book homologies agree; |det Q| = trace - 2"):
        for family in suite_families():
            plumbing, monodromy, openbook = homology_cross_check(family)
            assert plumbing == monodromy == openbook
        for word in suite_cusp_words():
            q = intersection_matrix(Cusp(word).graph())
            assert abs(determinant(q)) == cycle_monodromy(word).trace - 2


def test_criterion_06_euler_class_vanishes():
    with criterion(6, "euler class of both canonical structures vanishes with unit witnesses"):
        for family in suite_families():
            size = 1 if isinstance(family, Elliptic) else len(family.word)
            for sign, unit in (("min", 1), ("max", -1)):
                rots = canonical_filling(family.handle_slots(), sign)
                order, witness = euler_class(family, rots)
                assert order == 1
                assert witness == (unit,) * size
                assert mat_vec(intersection_matrix(family.graph()), witness) == rots


def test_criterion_07_adjunction_uniqueness():
    with criterion(7, "exactly one defect-free rot vector; only its negation passes after negation"):
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
            assert [rots for rots in fillings if is_canonical(slots, rots)] == sorted(
                {minimal, maximal}
            )


def test_criterion_08_d3_invariant():
    with criterion(8, "d3 = 1/2 for elliptic n=1, solution-choice independent, both signs"):
        rots = canonical_filling(Elliptic(1).handle_slots(), "min")
        assert d3_invariant(Elliptic(1), rots) == Fraction(1, 2)
        for n in range(1, 11):
            values = {}
            family = Elliptic(n)
            q = presentation_oracle(family)
            for sign in ("min", "max"):
                rots = canonical_filling(family.handle_slots(), sign)
                values[sign] = d3_invariant(family, rots)
                rot = (0,) * family.one_handle_count + rots
                x = solve_rational(q, rot)
                for kernel_vector in smith_normal_form(q).kernel_basis():
                    shifted = tuple(a + b for a, b in zip(x, kernel_vector))
                    assert dot(shifted, rot) == dot(x, rot)
            assert values["min"].denominator in (1, 2, 4)
            assert values["max"].denominator in (1, 2, 4)


def test_criterion_09_c1_vectors_distinct():
    with criterion(9, "c1 evaluation vectors are pairwise distinct in each enumeration"):
        for family in suite_families():
            vectors = enumerate_stein_fillings(family)
            assert len(set(vectors)) == len(vectors)


def test_criterion_10_cli_determinism_and_suite():
    with criterion(10, "CLI output is byte-identical across runs and verify --suite exits 0"):
        for args in [
            ["enumerate", "--cusp", "2,2,3", "--json"],
            ["invariants", "--elliptic", "5", "--json"],
            ["canonical", "--cusp", "3,4", "--json"],
            ["graph", "--cusp", "2,2,3"],
            ["openbook", "--cusp", "4"],
        ]:
            first = run(parse_args(args))
            second = run(parse_args(args))
            assert first == second
            assert first[0] == 0
        code, _ = run(parse_args(["verify", "--suite"]))
        assert code == 0
