"""Exact integer and rational linear algebra.

Everything here works on plain Python integers (arbitrary precision) or
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
tuples of tuples, rows first.  Integer entries are taken with
``operator.index``, so a float, Fraction or string entry raises TypeError
instead of being truncated.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import index, mul

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(map(index, row)) for row in rows)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(map(tuple, _identity_rows(n)))


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def matmul(a, b) -> IntMatrix:
    if a and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def is_symmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def determinant(a) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form ``u @ matrix @ v == diag`` with unimodular u, v.

    The diagonal entries are nonnegative and form a divisibility chain
    d1 | d2 | ... (trailing zeros allowed).
    """

    u: IntMatrix
    diag: IntMatrix
    v: IntMatrix

    def diagonal_entries(self) -> IntVector:
        n = min(len(self.diag), len(self.diag[0]) if self.diag else 0)
        return tuple(self.diag[i][i] for i in range(n))

    def solve(self, vector, exact: bool = True):
        """One solution x of ``matrix @ x == vector``, over the integers or,
        when not exact, the rationals; None when there is none."""
        w = mat_vec(self.u, tuple(vector))
        rows = len(self.diag)
        cols = len(self.v)
        y = [Fraction(0)] * cols if not exact else [0] * cols
        for i in range(rows):
            d = self.diag[i][i] if i < cols else 0
            if d:
                if exact:
                    if w[i] % d:
                        return None
                    y[i] = w[i] // d
                else:
                    y[i] = Fraction(w[i], d)
            elif w[i]:
                return None
        return mat_vec(self.v, tuple(y))

    def kernel_basis(self) -> tuple[IntVector, ...]:
        """Basis of the integer kernel {x : matrix @ x == 0}."""
        rows = len(self.diag)
        return tuple(
            tuple(row[j] for row in self.v)
            for j in range(len(self.v))
            if j >= rows or self.diag[j][j] == 0
        )


def _select_pivot(a, t, rows, cols):
    """Pivot of stage t: the smallest nonzero absolute value in the block
    from (t, t), ties broken by the Markowitz count (other nonzeros in its
    row times other nonzeros in its column), then by lowest row and column.

    Eliminating along sparse lines keeps the entries small: ties broken by
    index alone grew the entries to hundreds of thousands of bits on 45 x 44
    open-book presentations whose invariant factors have fewer than 30.

    The block is flattened row by row, so a flat index k is the position
    (k // width, k % width) and orders ties exactly as (row, column) does;
    the line counts are taken only when the least value occurs twice.
    """
    width = cols - t
    block = [row[t:] for row in a[t:]]
    flat = list(chain.from_iterable(block))
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
        _, k = min(
            ((row_count[k // width] - 1) * (col_count[k % width] - 1), k) for k in ties
        )
    i, j = divmod(k, width)
    return t + i, t + j


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form with transforms, deterministic pivoting.

    The pivot at each stage is the smallest nonzero absolute value in the
    remaining block, ties broken by the sparsest row and column and then by
    lowest row and column index (see _select_pivot), so the output is
    reproducible.

    >>> smith_normal_form(((2, 0), (0, 3))).diagonal_entries()
    (1, 6)
    """
    m = freeze(matrix)
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity_rows(rows)
    v = _identity_rows(cols)

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    t = 0
    while True:
        pivot = _select_pivot(a, t, rows, cols)
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
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)  # remainder is a smaller positive pivot
            if any([row[t] for row in a[t + 1 :]]):
                continue
            # Clear the pivot row with column operations.
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[t][t + 1 :]) or any([row[t] for row in a[t + 1 :]]):
                continue
            # Enforce divisibility of the remaining block by the pivot; a unit
            # pivot divides everything.
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

    result = SnfResult(tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v)))
    if matmul(matmul(result.u, m), result.v) != result.diag:
        raise RuntimeError("smith normal form verification failed")
    return result


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group Z^free_rank + Z/d1 + Z/d2 + ...

    The torsion entries are the invariant factors: each is at least 2 and
    d1 | d2 | ..., so equal groups compare equal structurally.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(map(index, self.torsion)))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def torsion_order(self) -> int:
        order = 1
        for d in self.torsion:
            order *= d
        return order

    def add_free(self, rank: int) -> "AbelianGroup":
        return AbelianGroup(self.free_rank + rank, self.torsion)

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel(matrix, extra_free_rank: int = 0) -> AbelianGroup:
    """Cokernel Z^rows / (column span of ``matrix``) as an AbelianGroup."""
    m = freeze(matrix)
    rows = len(m)
    if rows == 0:
        return AbelianGroup(extra_free_rank)
    diag = smith_normal_form(m).diagonal_entries()
    nonzero = [d for d in diag if d != 0]
    free = rows - len(nonzero) + extra_free_rank
    return AbelianGroup(free, tuple(d for d in nonzero if d > 1))


def solve_integer(matrix, vector):
    """One integer solution x of ``matrix @ x == vector``, or None."""
    return _solve(matrix, vector, exact=True)


def solve_rational(matrix, vector):
    """One rational solution x of ``matrix @ x == vector``, or None."""
    return _solve(matrix, vector, exact=False)


def _solve(matrix, vector, exact: bool):
    m = freeze(matrix)
    rows = len(m)
    if len(vector) != rows:
        raise ValueError("vector length does not match matrix rows")
    if rows == 0:
        return ()
    return smith_normal_form(m).solve(vector, exact)


def integer_kernel_basis(matrix) -> tuple[IntVector, ...]:
    """Basis of the integer kernel {x : matrix @ x == 0}."""
    m = freeze(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return tuple(identity_matrix(cols))
    return smith_normal_form(m).kernel_basis()


def symmetric_signature(matrix) -> int:
    """Signature of a symmetric integer matrix, zero eigenvalues excluded.

    Computed by exact rational congruence diagonalization, so degenerate
    forms are handled without any numerical tolerance.
    """
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


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(a * b for a, b in zip(u, v))

