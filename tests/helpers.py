"""Shared suites and independent oracles for the tests.

The oracles here deliberately avoid the library's own code paths: matrix
products (the cycle-word product and the open-book monodromy as one dense
transvection per twist) are written out naively, determinants use
cofactor expansion and the SNF pivot rule is spelled out entry by entry, so
homology orders, monodromy values and pivots are checked against genuinely
independent computations.  ``dense_snf_oracle`` is the Smith normal form
on dense lists that the sparse one must match operation for operation,
and ``dense_signature_oracle`` the dense ``Fraction`` congruence
diagonalization that ``symmetric_signature`` replaced on sparse rows.
``openbook_presentation`` is the open-book presentation on the dense page
basis before any relation is substituted away, and
``substituted_presentation_oracle`` the same presentation substituted down
to l, d and e_1 on that basis, the matrix ``openbook_homology`` builds in
one pass without it.  ``handle_slots_oracle`` reads each Stein 2-handle's
genus and framing off the plumbing graph, where the library writes each
family's handle pattern out by hand.  ``is_canonical_oracle`` and
``has_zero_defect_oracle`` decide adjunction equality handle by handle,
where the library compares whole rot vectors with the adjunction vector.
``presentation_oracle`` writes each family's presentation matrix Q out
from the family's own parameters, where the library reads Q off the
plumbing graph.  ``d3_oracle`` evaluates d3 on one diagram alone, with that
presentation, its own rational solve and the dense signature, where the
library reads every diagram's d3 off the family's one reduction of Q.
``resolution_d3_oracle`` reads d3 of the canonical structure off the
resolution graph, with no Stein diagram at all, and ``brieskorn_count``
reads the signature and Milnor number of a Brieskorn Milnor fibre off its
exponents.
"""
import itertools
import sys
from collections import Counter, namedtuple
from contextlib import contextmanager
from fractions import Fraction
from operator import mul

from singlink import invariants, legendrian, linalg, openbook
from singlink.families import Cusp, Elliptic, UnsupportedPresentation
from singlink.legendrian import rotation_range
from singlink.linalg import (
    determinant,
    dot,
    freeze,
    is_symmetric,
    matmul,
    smith_normal_form,
    solve_rational,
)
from singlink.plumbing import intersection_matrix
from singlink.sl2z import CycleWord, cyclic_equal, factor_cycle


def counted_snf():
    """Count smith_normal_form calls through every singlink name bound to it."""
    return counted_linalg("smith_normal_form")


@contextmanager
def counted_linalg(name):
    """Count calls of ``linalg.<name>`` through every singlink name bound to
    it; the list holds each call's first argument, the matrix."""
    calls = []
    original = getattr(linalg, name)

    def counting(matrix, *args):
        calls.append(matrix)
        return original(matrix, *args)

    bound = [
        (module, attr)
        for key, module in list(sys.modules.items())
        if key == "singlink" or key.startswith("singlink.")
        for attr, value in list(vars(module).items())
        if value is original
    ]
    for module, attr in bound:
        setattr(module, attr, counting)
    try:
        yield calls
    finally:
        for module, attr in bound:
            setattr(module, attr, original)


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


def _dense_select_pivot(a, t, rows, cols):
    """Pivot of stage t on a dense block: the least nonzero |x| in the block
    from (t, t), then the least Markowitz count, then row, then column.

    The block is flattened row by row, so a flat index k is the position
    (k // width, k % width) and orders ties exactly as (row, column) does;
    the line counts are taken only when the least value occurs twice.
    """
    width = cols - t
    block = [row[t:] for row in a[t:]]
    flat = list(itertools.chain.from_iterable(block))
    least = min(map(abs, filter(None, flat)), default=0)
    if not least:
        return None
    plus = flat.count(least)
    minus = flat.count(-least)
    if plus + minus == 1:
        k = flat.index(least if plus else -least)
    else:
        ties = []
        for value, n in ((least, plus), (-least, minus)):
            k = -1
            for _ in range(n):
                k = flat.index(value, k + 1)
                ties.append(k)
        height = rows - t
        row_count = [width - row.count(0) for row in block]
        col_count = [height - col.count(0) for col in zip(*block)]
        _, k = min(((row_count[k // width] - 1) * (col_count[k % width] - 1), k) for k in ties)
    i, j = divmod(k, width)
    return t + i, t + j


DenseSnf = namedtuple("DenseSnf", "u diag v")


def dense_snf_oracle(matrix):
    """Smith normal form on dense lists, with the same pivots and the same
    row and column operations as ``linalg.smith_normal_form``, whose dense
    ``u``, ``diag`` and ``v`` must be the same.  Every operation touches whole rows and
    columns, zeros included, and nothing is checked here."""
    a = [list(row) for row in freeze(matrix)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a + v:
            row[dst] += factor * row[src]

    t = 0
    while True:
        pivot = _dense_select_pivot(a, t, rows, cols)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        while True:
            # Clear the pivot column with row operations.
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)  # remainder is a smaller positive pivot
            if any([row[t] for row in a[t + 1 :]]):
                continue
            # Clear the pivot row with column operations.
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[t][t + 1 :]) or any([row[t] for row in a[t + 1 :]]):
                continue
            # Enforce divisibility of the remaining block by the pivot.
            p = a[t][t]
            culprit = None
            if p != 1:
                culprit = next(
                    (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1 :])), None
                )
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1
    return DenseSnf(tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v)))


def mat_vec(a, v):
    """a @ v for a dense matrix and a vector."""
    if a and len(a[0]) != len(v):
        raise ValueError("matrix and vector dimensions do not match")
    return tuple([sum(map(mul, row, v)) for row in a])


def dense_snf_check_oracle(m, snf):
    """The dense SNF self-check: both products formed in full, zeros included."""
    return matmul(matmul(snf.u, m), snf.v) == snf.diag


def dense_signature_oracle(matrix) -> int:
    """Signature of a symmetric integer matrix, zero eigenvalues excluded.

    Computed by exact rational congruence diagonalization, so degenerate
    forms are handled without any numerical tolerance.
    """
    from fractions import Fraction

    matrix = freeze(matrix)
    if not is_symmetric(matrix):
        raise ValueError("signature requires a symmetric matrix")
    n = len(matrix)
    b = [[Fraction(x) for x in row] for row in matrix]

    def add_sym(src, dst, factor):
        for col in range(n):
            b[dst][col] += factor * b[src][col]
        for row in range(n):
            b[row][dst] += factor * b[row][src]

    def swap_sym(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]

    signature = 0
    for t in range(n):
        if b[t][t] == 0:
            found = next((i for i in range(t + 1, n) if b[i][i] != 0), None)
            if found is not None:
                swap_sym(t, found)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(t, n)
                        for j in range(i + 1, n)
                        if b[i][j] != 0
                    ),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                add_sym(j, i, 1)  # makes b[i][i] = 2*b[i][j] != 0
                if i != t:
                    swap_sym(t, i)
        p = b[t][t]
        for i in range(t + 1, n):
            if b[i][t]:
                add_sym(t, i, -b[i][t] / p)
        signature += 1 if p > 0 else -1
    return signature


def presentation_oracle(family):
    """The family's presentation matrix Q from its parameters alone.

    Elliptic(n) is the Borromean diag(0, 0, -n): two 0-framed rows for the
    1-handles, then the 2-handle.  A cusp word n_1, ..., n_k is the circular
    form: -n_i on the diagonal and 1 added at (i, i + 1) and (i + 1, i),
    indices mod k, so k = 2 puts 2 off the diagonal and k = 1 gives -n + 2.
    """
    if isinstance(family, Elliptic):
        return ((0, 0, 0), (0, 0, 0), (0, 0, -family.n))
    word = tuple(family.word)
    k = len(word)
    q = [[0] * k for _ in range(k)]
    for i, n in enumerate(word):
        q[i][i] -= n
        q[i][(i + 1) % k] += 1
        q[(i + 1) % k][i] += 1
    return tuple(map(tuple, q))


def verify_family_reference(family):
    """``verify_family`` assembled from the public one-family entry points:
    ``homology_cross_check`` and each ``euler_class`` call build the
    family's objects and reduce its matrices themselves."""
    checks = []
    twists = openbook.twist_word(family)
    a = family.monodromy()
    if isinstance(family, Elliptic):
        checks.append(("monodromy is parabolic of trace 2", a.trace == 2))
        expected = (family.n + 1, family.n, family.n)
    else:
        word = family.word
        checks.append(("monodromy is hyperbolic of trace >= 3", a.trace >= 3))
        checks.append(("factorization roundtrip", cyclic_equal(factor_cycle(a), word)))
        q = presentation_oracle(family)
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
            openbook.PAGE_GENUS == 1
            and len(openbook.boundary_labels(family)) == boundaries
            and len(twists) == word_len,
        )
    )
    plumbing_h1, monodromy_h1, openbook_h1 = invariants.homology_cross_check(family)
    checks.append(("triple homology agreement", plumbing_h1 == monodromy_h1 == openbook_h1))
    minimal = legendrian.canonical_filling(family, "min")
    maximal = legendrian.canonical_filling(family, "max")
    fillings = legendrian.enumerate_stein_fillings(family)
    slots = family.handle_slots()
    canonical = [rots for rots in fillings if legendrian.is_canonical(slots, rots)]
    zero_defect = [
        rots for rots in fillings if not any(legendrian.adjunction_defects(slots, rots))
    ]
    checks.append(("stein filling count", len(fillings) == count))
    checks.append(("c1 evaluations pairwise distinct", len(set(fillings)) == len(fillings)))
    checks.append(
        (
            "canonical rot vectors are negatives",
            tuple(-r for r in minimal) == maximal,
        )
    )
    expected_canonical = 1 if minimal == maximal else 2
    checks.append(
        (
            "adjunction uniqueness",
            zero_defect == [minimal] and len(canonical) == expected_canonical,
        )
    )
    classes = [invariants.euler_class(family, rots) for rots in (minimal, maximal)]
    checks.append(
        (
            "euler class of the canonical structure vanishes",
            all(order == 1 for order, _ in classes),
        )
    )
    if isinstance(family, Elliptic):
        rot = (0,) * family.one_handle_count + minimal
        q = presentation_oracle(family)
        snf = smith_normal_form(q)
        base = solve_rational(q, rot)
        independent = all(dot(k, rot) == 0 for k in snf.kernel_basis())
        checks.append(("d3 solution-choice independence", base is not None and independent))
        d3_min = invariants.d3_invariant(family, minimal)
        d3_max = invariants.d3_invariant(family, maximal)
        checks.append(("d3 computed for both signs", d3_min == d3_max))
    return checks


def d3_oracle(family, rots):
    """d3 of one Stein diagram on its own: ``presentation_oracle`` of the
    family is built for the rot vector alone, solved over the rationals on the
    rot vector with a zero per 1-handle in front, and its signature taken
    by ``dense_signature_oracle``, which shares no elimination with the
    library.  The value is (c^2 - 3*sigma - 2*chi)/4 + q with chi = 1 +
    len(Q) and q the 1-handle count; a Q without a row per component raises
    UnsupportedPresentation."""
    q = presentation_oracle(family)
    rot = (0,) * family.one_handle_count + tuple(rots)
    if len(q) != len(rot):
        raise UnsupportedPresentation(f"{family.label}: {len(rot)} components")
    solution = solve_rational(q, rot)
    if solution is None:
        raise ValueError("Q x = rot has no rational solution")
    c2 = Fraction(dot(solution, rot))
    return (c2 - 3 * dense_signature_oracle(q) - 2 * (1 + len(q))) / 4 + family.one_handle_count


def _fraction_solve(q, b):
    """x with q x = b over the rationals, q square and nonsingular, by
    Gauss-Jordan elimination on Fractions."""
    n = len(q)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(q, b)]
    for t in range(n):
        p = next(i for i in range(t, n) if a[i][t])
        a[t], a[p] = a[p], a[t]
        for i in range(n):
            if i != t and a[i][t]:
                f = a[i][t] / a[t][t]
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return [a[i][n] / a[i][i] for i in range(n)]


def resolution_d3_oracle(family):
    """d3 of the canonical contact structure read off the resolution graph:
    (K^2 + 3|V| - 2 chi(E))/4.  The resolution is an almost-complex filling
    whose complex tangencies give the canonical structure, with c1 = -K,
    signature -|V| and Euler characteristic chi(E) = sum(2 - 2 g_v) -
    #edges (loops counted).  K is fixed by adjunction on each vertex,
    K.E_v = a_v = -Q_vv + 2 (g_v + loops_v) - 2, so K^2 = a^T Q^-1 a.  Only
    the graph's genus, loops and form are read, never a Stein diagram."""
    graph = family.graph()
    q = intersection_matrix(graph)
    loops = Counter(i for i, j in graph.edges if i == j)
    a = [-q[v][v] + 2 * (genus + loops[v]) - 2 for v, (_, genus) in enumerate(graph.vertices)]
    k2 = dot(_fraction_solve(q, a), a)
    chi = sum(2 - 2 * genus for _, genus in graph.vertices) - len(graph.edges)
    return (k2 + 3 * len(graph.vertices) - 2 * chi) / 4


def brieskorn_count(exponents):
    """(sigma, mu, mu0) of the Milnor fibre of x_1^a_1 + ... + x_m^a_m by
    Brieskorn's count over j with 0 < j_i < a_i and s = sum(j_i / a_i):
    mu counts every j, mu0 those with s an integer, and sigma is the number
    with 0 < s mod 2 < 1 minus the number with 1 < s mod 2 < 2."""
    sigma = mu = mu0 = 0
    for j in itertools.product(*[range(1, a) for a in exponents]):
        s = sum(Fraction(x, a) for x, a in zip(j, exponents)) % 2
        mu += 1
        if s.denominator == 1:
            mu0 += 1
        else:
            sigma += 1 if s < 1 else -1
    return sigma, mu, mu0


def handle_slots_oracle(family):
    """(genus, smooth framing) of each Stein 2-handle, read off the plumbing
    graph, one per vertex: the genus is the vertex's genus plus its loop
    count, and the framing its weight plus 2 per loop (a loop is a
    self-plumbing, so the attaching circle runs twice over a 1-handle)."""
    graph = family.graph()
    loops = Counter(i for i, j in graph.edges if i == j)
    return tuple(
        (genus + loops[v], weight + 2 * loops[v])
        for v, (weight, genus) in enumerate(graph.vertices)
    )


def stein_fillings_oracle(family):
    """The rot vector and handle JSON of every Stein handle diagram, in
    lexicographic order of rot vector.

    Each handle's genus and framing are read off the plumbing graph by
    ``handle_slots_oracle``, not from the library's handle pattern, and
    each handle's JSON is written out here, with tb = framing + 1.
    """
    slots = handle_slots_oracle(family)
    ranges = [rotation_range(g, f) for g, f in slots]
    fillings = []
    for rots in itertools.product(*ranges):
        handles = [
            {"framing": f, "tb": f + 1, "rot": rot, "genus": g}
            for (g, f), rot in zip(slots, rots)
        ]
        fillings.append((rots, handles))
    return tuple(fillings)


def adjunction_defects_oracle(family, rots):
    """rot - (framing - 2*genus + 2) of each handle, the genus and framing
    read off the plumbing graph by ``handle_slots_oracle``."""
    slots = handle_slots_oracle(family)
    return [rot - (f - 2 * g + 2) for rot, (g, f) in zip(rots, slots)]


def has_zero_defect_oracle(family, rots):
    """Adjunction equality on every handle, decided handle by handle."""
    return all(defect == 0 for defect in adjunction_defects_oracle(family, rots))


def is_canonical_oracle(family, rots):
    """Adjunction equality on every handle, possibly after reversing the
    orientation of every attaching circle, decided handle by handle."""
    # negating rot turns the defect rot - c into -rot - c = defect - 2 * rot
    defects = adjunction_defects_oracle(family, rots)
    return all(defect == 0 for defect in defects) or all(
        defect == 2 * rot for defect, rot in zip(defects, rots)
    )


def section_corrections_oracle(family, data):
    """Homology corrections relating boundary sections to the base section,
    as dense page vectors over the basis of ``curve_homology_classes``.

    An arc from the first boundary to boundary L, pushed once around the
    mapping torus, is dragged by every twist it crosses: it leaves through
    the boundary-parallel twists at the base, crosses the delta curves of
    every piece strictly between the two boundaries, and enters through the
    twists at L.  The correction is the signed sum of the corresponding
    curve classes; the meridian relation at L is t + correction = 0.
    """
    labels = openbook.boundary_labels(family)
    base = labels[0]
    word = openbook.twist_word(family)
    delta_cls = {c[1]: data.curve_classes[c] for c in word if c[0] == "delta"}
    # The labels (piece, j) run piece by piece, so the deltas crossed on the
    # way to one boundary are those crossed on the way to the one before, and more.
    corrections = {}
    corr = list(data.boundary_classes[base])
    crossed = base[0]
    for label in labels[1:]:
        for m in range(crossed, label[0]):
            corr = [a + x for a, x in zip(corr, delta_cls[m])]
        crossed = max(crossed, label[0])
        corrections[label] = tuple(a - x for a, x in zip(corr, data.boundary_classes[label]))
    return corrections


def _page_relations(family):
    """The page data, the nonzero (phi - 1)e_j columns and the corrections.

    The columns are read off the dense ``homological_monodromy_action``,
    which the open-book tests check against ``transvection_product_oracle``;
    none of ``openbook_homology``'s own code is used.
    """
    data = openbook.curve_homology_classes(family)
    phi = openbook.homological_monodromy_action(family)
    relations = []
    for j in range(data.rank):
        col = [row[j] - (i == j) for i, row in enumerate(phi)]
        if any(col):
            relations.append(col)
    return data, relations, section_corrections_oracle(family, data)


def openbook_presentation(family):
    """The family's full open-book presentation on the page basis.

    One row per page generator (l, d, e_1, ..., e_{b-1}) and one column per
    relation: the nonzero (phi - 1)e_j columns and correction(L) for every
    boundary L but the base.  ``substituted_presentation_oracle`` substitutes
    all but the last correction away, so this matrix is an oracle for the
    cokernel of both and a large input for the SNF tests.  It is dense in
    the boundary count b, with b + 1 rows: building it takes about 0.2 s
    for Elliptic(1000) and 0.5 s for (3,)^1000 (best of 3, Python 3.11).
    """
    data, relations, corrections = _page_relations(family)
    relations.extend(corrections[label] for label in openbook.boundary_labels(family)[1:])
    return tuple(tuple(col[i] for col in relations) for i in range(data.rank))


def substituted_presentation_oracle(family):
    """The at most 3-row matrix ``openbook_homology`` must hand the SNF,
    built on the dense page basis.

    The correction of every boundary but the base and the last is checked
    to be -1 on its own generator and 0 on every later one, and substituted
    away in generator order (Tietze elimination): each e_s gets its image
    in l, d and e_1.  The rows are those three generators and the columns
    the images of the nonzero (phi - 1)e_j columns and of the last
    boundary's correction.  Every class is a dense page vector, so this
    costs O(b^2) in the boundary count b: about 0.6 s for Elliptic(1000)
    and 1 s for (3,)^1000, where ``openbook_homology`` takes 0.01 and 1 ms.
    """
    data, relations, corrections = _page_relations(family)
    labels = openbook.boundary_labels(family)
    if len(labels) > 1:
        relations.append(corrections[labels[-1]])
    # images[r][g]: coefficient of kept generator r in the image of generator g
    kept = min(data.rank, 3)
    images = [[int(g == r) for g in range(kept)] for r in range(kept)]
    for g in range(kept, data.rank):
        relation = corrections[labels[g - 2]]
        assert relation[g] == -1 and not any(relation[g + 1 :]), labels[g - 2]
        for image in images:  # zip stops at the end of image, before g
            image.append(sum(r * x for r, x in zip(relation, image)))
    return tuple(tuple(dot(col, image) for col in relations) for image in images)


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
