"""The per-family invariant suite and the standard suite of families.

``verify_family`` recomputes every headline invariant of one family and
cross-checks it against a closed form or an independent computation;
``suite_families`` lists the families the standard suite runs it on.
"""
from __future__ import annotations

import itertools

from . import invariants, legendrian
from .families import Cusp, Elliptic, Family
from .linalg import determinant, dot, smith_normal_form
from .sl2z import CycleWord, cyclic_equal, factor_cycle

__all__ = ["SUITE_MAX_K", "SUITE_MAX_ENTRY", "SUITE_MAX_ELLIPTIC", "verify_family", "suite_families"]

SUITE_MAX_K = 4
SUITE_MAX_ENTRY = 5
SUITE_MAX_ELLIPTIC = 10


def verify_family(family: Family) -> list[tuple[str, bool]]:
    """The per-family invariant suite; returns (check name, passed) pairs."""
    checks: list[tuple[str, bool]] = []
    book = family.openbook()
    a = family.monodromy()

    if isinstance(family, Elliptic):
        checks.append(("monodromy is parabolic of trace 2", a.trace == 2))
        expected_count = family.n + 1
        expected_boundaries = family.n
        expected_word_len = family.n
    else:
        word = family.word
        checks.append(("monodromy is hyperbolic of trace >= 3", a.trace >= 3))
        checks.append(("factorization roundtrip", cyclic_equal(factor_cycle(a), word)))
        q = family.presentation()
        checks.append(("det identity |det Q| = trace - 2", abs(determinant(q)) == a.trace - 2))
        expected_count = 1
        for n in word:
            expected_count *= n - 1
        expected_boundaries = sum(n - 2 for n in word)
        expected_word_len = len(word) + expected_boundaries

    checks.append(
        (
            "open book page data",
            book.page_genus == 1
            and book.boundary_count == expected_boundaries
            and len(book.twist_word) == expected_word_len,
        )
    )

    report = invariants.homology_cross_check(family)
    checks.append(("triple homology agreement", report.all_equal))

    fillings = legendrian.enumerate_stein_fillings(family)
    checks.append(("stein filling count", len(fillings) == expected_count))

    vectors = [d.rot_vector for d in fillings]
    checks.append(("c1 evaluations pairwise distinct", len(set(vectors)) == len(vectors)))

    minimal = legendrian.canonical_filling(family, "min")
    maximal = legendrian.canonical_filling(family, "max")
    checks.append(
        (
            "canonical rot vectors are negatives",
            tuple(-r for r in minimal.rot_vector) == maximal.rot_vector,
        )
    )
    zero_defect = [
        d for d in fillings if all(invariants.adjunction_defect(h) == 0 for h in d.handles)
    ]
    canonical_set = [d for d in fillings if invariants.is_canonical(d)]
    expected_canonical = 1 if minimal.rot_vector == maximal.rot_vector else 2
    checks.append(
        (
            "adjunction uniqueness",
            zero_defect == [minimal] and len(canonical_set) == expected_canonical,
        )
    )

    reps = invariants.euler_classes(family, (minimal.rot_vector, maximal.rot_vector))
    euler_ok = all(rep.is_zero and rep.witness is not None for rep in reps)
    checks.append(("euler class of the canonical structure vanishes", euler_ok))

    if isinstance(family, Elliptic):
        surgery = legendrian.to_contact_surgery(minimal)
        rot = surgery.rot_vector
        snf = smith_normal_form(surgery.presentation_matrix)
        base = snf.solve(rot, exact=False)
        independent = all(dot(k, rot) == 0 for k in snf.kernel_basis())
        checks.append(("d3 solution-choice independence", base is not None and independent))
        d3_min = invariants.d3_invariant(surgery)
        d3_max = invariants.d3_invariant(legendrian.to_contact_surgery(maximal))
        checks.append(("d3 computed for both signs", d3_min == d3_max))
    return checks


def suite_families() -> tuple[Family, ...]:
    """Elliptic(1..10) plus every valid cusp word with k <= 4, entries <= 5."""
    families: list[Family] = [Elliptic(n) for n in range(1, SUITE_MAX_ELLIPTIC + 1)]
    for k in range(1, SUITE_MAX_K + 1):
        for entries in itertools.product(range(2, SUITE_MAX_ENTRY + 1), repeat=k):
            if max(entries) < 3:
                continue
            families.append(Cusp(CycleWord(entries)))
    return tuple(families)
