"""The per-family invariant suite and the standard suite of families.

``verify_family`` recomputes every headline invariant of one family and
cross-checks it against a closed form or an independent computation;
``suite_families`` lists the families the standard suite runs it on.
Every check that rests on the presentation Q reads one reduction of it,
|det Q| included, and the Stein diagram count is the family's own.
"""
from __future__ import annotations

import itertools
from math import prod

from . import invariants, legendrian
from .families import Cusp, Elliptic, Family
from .linalg import dot
from .openbook import twist_word
from .sl2z import CycleWord, cyclic_equal, factor_cycle

__all__ = ["SUITE_MAX_K", "SUITE_MAX_ENTRY", "SUITE_MAX_ELLIPTIC", "verify_family", "suite_families"]

SUITE_MAX_K = 4
SUITE_MAX_ENTRY = 5
SUITE_MAX_ELLIPTIC = 10


def verify_family(family: Family) -> list[tuple[str, bool]]:
    """The per-family invariant suite; returns (check name, passed) pairs.

    The twist word and monodromy are built once per call, and one
    ``invariants.FamilyReduction`` reduces the presentation Q once for the
    Euler classes, the plumbing H_1 and both d3 values, which read the two
    Euler classes and share one signature of Q; a family whose d3 is
    refused, as its constant ``d3_supported`` says without raising, ends
    its checks at the Euler class.  A cusp's |det Q| is the product of
    that reduction's diagonal D, since ``smith_normal_form`` checks
    u Q v = D exactly with unimodular u and v.  A Stein diagram is
    its rot vector, so the Stein filling checks read the vectors of
    ``legendrian.filling_rot_vectors`` one at a time and hold no list: one
    pass counts them and compares each with the one before it and with the
    family's adjunction vector c and its negative.  The count must be the
    family's ``filling_count``, the vectors must strictly increase in
    lexicographic order (so they are pairwise distinct), the minimal
    canonical rot vector must be the only one at c (zero adjunction defect
    on every handle), and the two canonical rot vectors the only ones at c
    or -c.  Nothing is kept between calls.

    >>> all(passed for _, passed in verify_family(Elliptic(2)))
    True
    """
    checks: list[tuple[str, bool]] = []
    # a family over BOUNDARY_LIMIT is refused here, then one over
    # DIAGRAM_LIMIT, both before Q is reduced
    word_len = len(twist_word(family))
    rot_vectors = legendrian.filling_rot_vectors(family)
    a = family.monodromy()
    reduction = invariants.FamilyReduction(family)

    if isinstance(family, Elliptic):
        checks.append(("monodromy is parabolic of trace 2", a.trace == 2))
        expected_word_len = family.n
    else:
        word = family.word
        checks.append(("monodromy is hyperbolic of trace >= 3", a.trace >= 3))
        checks.append(("factorization roundtrip", cyclic_equal(factor_cycle(a), word)))
        det = prod(reduction.snf.diagonal)  # |det Q|: D is nonnegative
        checks.append(("det identity |det Q| = trace - 2", det == a.trace - 2))
        expected_word_len = len(word) + family.boundary_count

    checks.append(
        (
            "open book page data",
            sum(family.page_pieces()[1]) == family.boundary_count
            and word_len == expected_word_len,
        )
    )

    plumbing, monodromy, openbook = reduction.homology(a)
    checks.append(("triple homology agreement", plumbing == monodromy == openbook))

    minimal = legendrian.canonical_filling(family, "min")
    maximal = legendrian.canonical_filling(family, "max")
    c = legendrian.adjunction_vector(family.handle_slots())
    count, increasing, at_c, at_minus_c = _filling_pass(c, rot_vectors)
    checks.append(("stein filling count", count == family.filling_count))
    checks.append(("c1 evaluations pairwise distinct", increasing))
    checks.append(("canonical rot vectors are negatives", tuple(-r for r in minimal) == maximal))
    expected_canonical = 1 if minimal == maximal else 2
    checks.append(
        (
            "adjunction uniqueness",
            at_c == 1 and minimal == c and at_c + at_minus_c == expected_canonical,
        )
    )

    classes = reduction.euler_classes((minimal, maximal))
    euler_ok = all(k == 1 for k, _ in classes)
    checks.append(("euler class of the canonical structure vanishes", euler_ok))

    if not family.d3_supported:
        return checks
    d3_min, d3_max = reduction.d3_invariants(classes)
    # the kernel of Q pairs to zero with the rot vector (it is empty, since
    # FamilyReduction refuses a singular Q, so this cannot fail)
    independent = all(dot(k, minimal) == 0 for k in reduction.snf.kernel_basis())
    checks.append(("d3 solution-choice independence", independent))
    checks.append(("d3 computed for both signs", d3_min == d3_max))
    return checks


def _filling_pass(c: tuple[int, ...], rot_vectors) -> tuple[int, bool, int, int]:
    """One pass over the rot vectors: their count, whether they strictly
    increase, and how many equal the adjunction vector c and how many -c.

    Each vector is compared whole with the one before it, with c and, when
    -c is another vector, with -c; a diagram is canonical when its rot
    vector is c or -c, and has zero adjunction defect on every handle
    exactly when it is c.
    """
    minus_c = tuple([-x for x in c])
    count = at_c = at_minus_c = 0
    increasing = True
    previous = None
    for rots in rot_vectors:
        count += 1
        if previous is not None and previous >= rots:
            increasing = False
        previous = rots
        if rots == c:
            at_c += 1
        elif rots == minus_c:  # never true when c == -c
            at_minus_c += 1
    return count, increasing, at_c, at_minus_c


def suite_families() -> tuple[Family, ...]:
    """Elliptic(1..10) plus every valid cusp word with k <= 4, entries <= 5."""
    families: list[Family] = [Elliptic(n) for n in range(1, SUITE_MAX_ELLIPTIC + 1)]
    for k in range(1, SUITE_MAX_K + 1):
        for entries in itertools.product(range(2, SUITE_MAX_ENTRY + 1), repeat=k):
            if max(entries) < 3:
                continue
            families.append(Cusp(CycleWord(entries)))
    return tuple(families)
