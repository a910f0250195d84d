"""Exact integer and rational linear algebra.

Everything here works on plain Python integers (arbitrary precision) or
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
tuples of tuples, rows first.  Integer entries are taken with
``operator.index``, so a float, Fraction or string entry raises TypeError
instead of being truncated.  ``fractions`` is imported only by the code
that makes a Fraction, since most command-line calls never do.  Only
``two_column_cokernel`` finds a cokernel without ``smith_normal_form``.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import index, mul

from ._record import Record

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(map(index, row)) for row in rows)


def matmul(a, b) -> IntMatrix:
    if a and len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match")
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_vec(a, v):
    if a and len(a[0]) != len(v):
        raise ValueError("matrix and vector dimensions do not match")
    return tuple([sum(map(mul, row, v)) for row in a])


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
    m = [list(row) for row in freeze(a)]
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


class SnfResult(Record):
    """Smith normal form ``u @ matrix @ v == diag`` with unimodular u, v.

    The diagonal entries are nonnegative and form a divisibility chain
    d1 | d2 | ... (trailing zeros allowed).
    """

    __slots__ = ("u", "diag", "v")

    def diagonal_entries(self) -> IntVector:
        n = min(len(self.diag), len(self.diag[0]) if self.diag else 0)
        return tuple(self.diag[i][i] for i in range(n))

    def solve(self, vector, exact: bool = True):
        """One solution x of ``matrix @ x == vector``, over the integers or,
        when not exact, the rationals; None when there is none.  A vector
        whose length is not the row count raises ValueError.

        >>> smith_normal_form(((2, 0), (0, 3))).solve((4, 3))
        (2, 1)
        """
        vector = tuple(vector)
        self._check_rows(vector)  # mat_vec cannot check against a 0-row u
        return self.solve_reduced(mat_vec(self.u, vector), exact)

    def solve_reduced(self, w, exact: bool = True):
        """``solve`` for a vector already carried to ``w = u @ vector``."""
        self._check_rows(w)
        rows = len(self.diag)
        cols = len(self.v)
        if not exact:
            from fractions import Fraction
        y = [0 if exact else Fraction(0)] * cols
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

    def _check_rows(self, vector) -> None:
        if len(vector) != len(self.diag):
            raise ValueError(
                f"matrix and vector dimensions do not match: {len(self.diag)} rows, "
                f"vector of length {len(vector)}"
            )

    def kernel_basis(self) -> tuple[IntVector, ...]:
        """Basis of the integer kernel {x : matrix @ x == 0}."""
        rows = len(self.diag)
        return tuple(
            tuple(row[j] for row in self.v)
            for j in range(len(self.v))
            if j >= rows or self.diag[j][j] == 0
        )

    def cokernel(self, extra_free_rank: int = 0) -> "AbelianGroup":
        """Cokernel Z^rows / (column span of the matrix) as an AbelianGroup,
        plus ``extra_free_rank`` free summands.

        >>> smith_normal_form(((2, 0), (0, 0), (0, 3))).cokernel(1)
        AbelianGroup(free_rank=2, torsion=(6,))
        """
        nonzero = [d for d in self.diagonal_entries() if d != 0]
        free = len(self.u) - len(nonzero) + extra_free_rank
        return AbelianGroup(free, tuple(d for d in nonzero if d > 1))


def _select_pivot(a, t):
    """Pivot of stage t: the smallest nonzero absolute value in the block
    from (t, t), ties broken by the Markowitz count (other nonzeros in its
    row times other nonzeros in its column), then by lowest row and column.

    Eliminating along sparse lines keeps the entries small: ties broken by
    index alone grew the entries to hundreds of thousands of bits on 45 x 44
    open-book presentations whose invariant factors have fewer than 30.

    ``a`` holds the rows as dicts of their nonzeros, each row from t on in
    columns t and beyond only, so one pass over the block's nonzeros finds
    the least value; the column counts are taken only when it occurs twice.
    """
    least, ties = 0, []
    for i in range(t, len(a)):
        for j, x in a[i].items():
            if x == least or x == -least:
                ties.append((i, j))
            elif abs(x) < least or not least:
                least, ties = abs(x), [(i, j)]
    if len(ties) < 2:
        return ties[0] if ties else None
    col_count = {}
    for row in a[t:]:
        for j in row:
            col_count[j] = col_count.get(j, 0) + 1
    return min([((len(a[i]) - 1) * (col_count[j] - 1), i, j) for i, j in ties])[1:]


def _add_scaled(dst: dict, src: dict, factor: int) -> None:
    """dst += factor * src on sparse lines, keeping only nonzero entries."""
    if factor:
        for k, y in src.items():
            x = dst.get(k, 0) + factor * y
            if x:
                dst[k] = x
            else:
                del dst[k]


def _sparse(rows) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form with transforms, deterministic pivoting.

    The pivot at each stage is the smallest nonzero absolute value in the
    remaining block, ties broken by the sparsest row and column and then by
    lowest row and column index (see _select_pivot), so the output is
    reproducible.  The working matrix and u are kept as sparse rows and v
    as sparse columns, so each operation costs the nonzeros it touches.

    >>> smith_normal_form(((2, 0), (0, 3))).diagonal_entries()
    (1, 6)
    """
    m = freeze(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = _sparse(m)
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]  # columns of v
    t = 0
    while (pivot := _select_pivot(a, t)) is not None:
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:  # column operations act on rows t and beyond, the rest being zero
            for row in a[t:]:
                x, y = row.pop(t, 0), row.pop(pj, 0)
                if y:
                    row[t] = y
                if x:
                    row[pj] = x
            v[t], v[pj] = v[pj], v[t]
        if a[t][t] < 0:
            a[t] = {j: -x for j, x in a[t].items()}
            u[t] = {j: -x for j, x in u[t].items()}
        while True:
            # Clear the pivot column; a remainder becomes a smaller pivot and the pass repeats.
            swapped = False
            for i in range(t + 1, rows):
                row = a[i]
                if t in row:
                    q = -(row[t] // a[t][t])
                    _add_scaled(row, a[t], q)
                    _add_scaled(u[i], u[t], q)
                    if t in row:
                        a[t], a[i] = row, a[t]
                        u[t], u[i] = u[i], u[t]
                        swapped = True
            if swapped:
                continue
            # Clear the pivot row with column operations.  Column t is
            # nonzero in row t alone until a swap brings in another column.
            row_t = a[t]
            for j in sorted(row_t)[1:]:
                q, r = divmod(row_t[j], row_t[t])
                if swapped:
                    for row in a[t:]:
                        if t in row:
                            _add_scaled(row, {j: row[t]}, -q)
                elif r:
                    row_t[j] = r
                else:
                    del row_t[j]
                _add_scaled(v[j], v[t], -q)
                if j in row_t:
                    for row in a[t:]:
                        x, y = row.pop(t, 0), row.pop(j, 0)
                        if y:
                            row[t] = y
                        if x:
                            row[j] = x
                    v[t], v[j] = v[j], v[t]
                    swapped = True
            if swapped:
                continue
            # Make the pivot divide the rest of the block, as a unit pivot does.
            p = row_t[t]
            below = range(t + 1, rows) if p != 1 else ()
            culprit = next((i for i in below if any([x % p for x in a[i].values()])), None)
            if culprit is None:
                break
            _add_scaled(row_t, a[culprit], 1)
            _add_scaled(u[t], u[culprit], 1)
        t += 1

    v_rows = [{} for _ in v]
    for j, line in enumerate(v):
        for k, x in line.items():
            v_rows[k][j] = x
    out = [[0] * rows for _ in u], [[0] * cols for _ in a], [[0] * cols for _ in v]
    for lines, dense in zip((u, a, v_rows), out):
        for line, row in zip(lines, dense):
            for k, x in line.items():
                row[k] = x
    result = SnfResult(*[tuple(map(tuple, x)) for x in out])
    _check_snf(m, u, result.diag, v_rows)
    return result


def _check_snf(m: IntMatrix, u: list[dict], diag: IntMatrix, v: list[dict]) -> None:
    """Raise unless ``u @ m @ v == diag`` exactly, with u and v given as
    rows of their nonzeros, as the reduction holds them.

    Every entry of the product is computed, one row of u at a time: that
    row times m, then times v, each adding only the rows of m and v that a
    nonzero coefficient selects.  Each row is compared whole with diag's,
    off-diagonal zeros included.
    """
    m_rows = _sparse(m)
    for u_row, d_row in zip(u, diag):
        um = [0] * len(v)  # v is square, so u @ m and u @ m @ v have len(v) columns
        for k, c in u_row.items():
            for j, x in m_rows[k].items():
                um[j] += c * x
        umv = [0] * len(v)
        for c, v_row in zip(um, v):
            if c:
                for j, x in v_row.items():
                    umv[j] += c * x
        if tuple(umv) != d_row:
            raise RuntimeError("smith normal form verification failed")


def two_column_cokernel(matrix, extra_free_rank: int = 0) -> "AbelianGroup":
    """``smith_normal_form(matrix).cokernel(extra_free_rank)`` for at most
    two columns, read off the determinantal divisors with no elimination:
    d1 is the gcd of the entries and d1 * d2 that of the 2 x 2 minors.  A
    third column raises ValueError, as a ragged matrix does.

    >>> two_column_cokernel(((2, 0), (0, 0), (0, 3)), 1)
    AbelianGroup(free_rank=2, torsion=(6,))
    """
    m = freeze(matrix)
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    if cols > 2:
        raise ValueError("more than two columns")
    d1 = gcd(*[x for row in m for x in row])
    minors = gcd(*[x * w - y * z for (x, y), (z, w) in combinations(m, 2)]) if cols == 2 else 0
    nonzero = [d for d in (d1, minors // d1 if minors else 0) if d]
    return AbelianGroup(len(m) - len(nonzero) + extra_free_rank, [d for d in nonzero if d > 1])


class AbelianGroup(Record):
    """A finitely generated abelian group Z^free_rank + Z/d1 + Z/d2 + ...

    The torsion entries are the invariant factors: each is at least 2 and
    d1 | d2 | ..., so equal groups compare equal structurally.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        free_rank = index(free_rank)
        torsion = tuple(map(index, torsion))
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for d, e in zip(torsion, torsion[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

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


def solve_rational(matrix, vector):
    """One rational solution x of ``matrix @ x == vector``, or None."""
    return smith_normal_form(matrix).solve(vector, exact=False)


def symmetric_signature(matrix) -> int:
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


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(a * b for a, b in zip(u, v))

