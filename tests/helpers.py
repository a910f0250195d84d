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

from singlink import openbook
from singlink.families import Cusp, Elliptic
from singlink.sl2z import CycleWord


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
