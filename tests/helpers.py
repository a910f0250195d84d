"""Shared suites and independent oracles for the tests.

The oracles here deliberately avoid the library's own code paths: matrix
products (the cycle-word product and the open-book monodromy as one dense
transvection per twist) are written out naively, determinants use
cofactor expansion and the SNF pivot rule is spelled out entry by entry, so
homology orders, monodromy values and pivots are checked against genuinely
independent computations.
"""
import itertools
from collections import Counter
from unittest.mock import patch

from singlink import invariants, legendrian, openbook
from singlink.families import ChainUnknot, Cusp, Elliptic
from singlink.legendrian import SteinHandleDiagram, TwoHandleSpec, rotation_range
from singlink.linalg import determinant, dot, matmul, smith_normal_form
from singlink.sl2z import CycleWord, cyclic_equal, factor_cycle


def mat2_mul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def cycle_product_oracle(entries):
    """Naive product of [[n, -1], [1, 0]] factors, as nested lists."""
    out = [[1, 0], [0, 1]]
    for n in entries:
        out = mat2_mul(out, [[n, -1], [1, 0]])
    return out


def transvection_product_oracle(form, classes):
    """Dense product of one transvection x -> x + <x, c> c per class, in order.

    ``form`` is the page intersection form and ``classes`` the twist-curve
    classes in word order; columns of the result are images.
    """
    r = len(form)
    out = [[int(i == j) for j in range(r)] for i in range(r)]
    for c in classes:
        jc = [sum(form[i][j] * c[j] for j in range(r)) for i in range(r)]
        t = [[int(i == j) + c[i] * jc[j] for j in range(r)] for i in range(r)]
        out = [[sum(out[i][k] * t[k][j] for k in range(r)) for j in range(r)] for i in range(r)]
    return tuple(tuple(row) for row in out)


def markowitz_pivot_oracle(a, t, rows, cols):
    """Pivot of stage t written out entry by entry: the least nonzero |x| in
    the block from (t, t), then the least Markowitz count (other nonzeros in
    its row times other nonzeros in its column), then row, then column."""
    nonzero = [(i, j, abs(x)) for i in range(t, rows) for j, x in enumerate(a[i][t:], t) if x]
    if not nonzero:
        return None
    least = min(x for _, _, x in nonzero)
    row_count = Counter(i for i, _, _ in nonzero)
    col_count = Counter(j for _, j, _ in nonzero)
    _, i, j = min(
        ((row_count[i] - 1) * (col_count[j] - 1), i, j) for i, j, x in nonzero if x == least
    )
    return i, j


def dense_snf_check_oracle(m, snf):
    """The dense SNF self-check: both products formed in full, zeros included."""
    return matmul(matmul(snf.u, m), snf.v) == snf.diag


def verify_family_reference(family):
    """``verify_family`` assembled from the public one-family entry points:
    ``homology_cross_check`` and ``euler_classes`` each build the family's
    objects and reduce its matrices themselves."""
    checks = []
    book = family.openbook()
    a = family.monodromy()
    if isinstance(family, Elliptic):
        checks.append(("monodromy is parabolic of trace 2", a.trace == 2))
        expected = (family.n + 1, family.n, family.n)
    else:
        word = family.word
        checks.append(("monodromy is hyperbolic of trace >= 3", a.trace >= 3))
        checks.append(("factorization roundtrip", cyclic_equal(factor_cycle(a), word)))
        q = family.presentation()
        checks.append(("det identity |det Q| = trace - 2", abs(determinant(q)) == a.trace - 2))
        count = 1
        for n in word:
            count *= n - 1
        boundaries = sum(n - 2 for n in word)
        expected = (count, boundaries, len(word) + boundaries)
    count, boundaries, word_len = expected
    checks.append(
        (
            "open book page data",
            book.page_genus == 1
            and book.boundary_count == boundaries
            and len(book.twist_word) == word_len,
        )
    )
    checks.append(("triple homology agreement", invariants.homology_cross_check(family).all_equal))
    minimal = legendrian.canonical_filling(family, "min")
    maximal = legendrian.canonical_filling(family, "max")
    fillings = legendrian.enumerate_stein_fillings(family)
    canonical = [d for d in fillings if invariants.is_canonical(d)]
    zero_defect = [
        d for d in fillings if all(invariants.adjunction_defect(h) == 0 for h in d.handles)
    ]
    checks.append(("stein filling count", len(fillings) == count))
    checks.append(
        ("c1 evaluations pairwise distinct", len({d.rot_vector for d in fillings}) == len(fillings))
    )
    checks.append(
        (
            "canonical rot vectors are negatives",
            tuple(-r for r in minimal.rot_vector) == maximal.rot_vector,
        )
    )
    expected_canonical = 1 if minimal.rot_vector == maximal.rot_vector else 2
    checks.append(
        (
            "adjunction uniqueness",
            zero_defect == [minimal] and len(canonical) == expected_canonical,
        )
    )
    reps = invariants.euler_classes(family, (minimal.rot_vector, maximal.rot_vector))
    checks.append(
        (
            "euler class of the canonical structure vanishes",
            all(rep.is_zero and rep.witness is not None for rep in reps),
        )
    )
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


def stein_fillings_oracle(family):
    """Every Stein handle diagram, each built from k fresh handles.

    The handle genus is read off the tag here (0 for a chain unknot, 1 for
    the genus-one attaching circles), not from the library, and every
    handle's derived genus and tb are checked against it and the framing.
    """
    slots = family.handle_slots()
    ranges = [rotation_range(tag, f) for tag, f in slots]
    diagrams = []
    for rots in itertools.product(*ranges):
        handles = tuple(TwoHandleSpec(tag, f, rot) for (tag, f), rot in zip(slots, rots))
        for (tag, f), handle in zip(slots, handles):
            assert handle.surface_genus == (0 if isinstance(tag, ChainUnknot) else 1)
            assert handle.tb == f + 1
        diagrams.append(SteinHandleDiagram(family, handles))
    return tuple(diagrams)


def openbook_presentation(family):
    """The relation matrix that ``openbook_homology`` reduces for the family."""
    captured = []
    reduce = openbook.cokernel

    def capture(matrix):
        captured.append(matrix)
        return reduce(matrix)

    with patch.object(openbook, "cokernel", capture):
        openbook.openbook_homology(family.openbook())
    return captured[0]


def det_cofactor(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def cusp_words(max_k, max_entry):
    """Every valid cycle word with k <= max_k and entries <= max_entry."""
    for k in range(1, max_k + 1):
        for entries in itertools.product(range(2, max_entry + 1), repeat=k):
            if max(entries) >= 3:
                yield CycleWord(entries)


def suite_cusp_words():
    return list(cusp_words(4, 5))


def suite_families():
    return [Elliptic(n) for n in range(1, 11)] + [Cusp(w) for w in suite_cusp_words()]
