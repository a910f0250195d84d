"""Exact integer and rational linear algebra.

Everything here works on plain Python integers (arbitrary precision) or
``fractions.Fraction``; no floating point is used anywhere.  Matrices are
tuples of tuples, rows first.  Integer entries are taken with
``operator.index``, so a float, Fraction or string entry raises TypeError
instead of being truncated.  ``fractions`` is imported only in
``solve_rational`` and ``symmetric_signature``, since most command-line
calls never make a Fraction.  Only ``two_column_cokernel`` finds a
cokernel without ``smith_normal_form``, which shares its rows of
nonzeros and its column addition with ``symmetric_signature``.
``determinant``, ``matmul`` and ``solve_rational`` are kept for the tests
and the benchmark's layer tracer only; the package reads |det Q| off the
Smith normal form's diagonal.
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
    """Smith normal form ``u @ matrix @ v == D`` with unimodular u, v.

    D's ``diagonal`` is nonnegative and forms a divisibility chain
    d1 | d2 | ... (trailing zeros allowed).  The matrix is kept as sparse
    rows, v and u^-1 as sparse columns, and u as the log of its row
    operations: (i, t, q) is row i += q * row t, or a swap of rows i and t
    when q is 0, so (t, t, -2) negates row t.  The dense ``u``, ``diag``
    and ``v`` are built on demand, for the tests.
    """

    __slots__ = ("matrix_rows", "diagonal", "v_columns", "u_inverse", "row_log")

    @property
    def u(self) -> IntMatrix:
        n = len(self.u_inverse)
        return tuple(zip(*[self.reduce([int(i == k) for i in range(n)]) for k in range(n)]))

    @property
    def diag(self) -> IntMatrix:
        d, rows, cols = self.diagonal, len(self.u_inverse), len(self.v_columns)
        return tuple(tuple(d[i] if i == j else 0 for j in range(cols)) for i in range(rows))

    @property
    def v(self) -> IntMatrix:
        n = len(self.v_columns)
        return tuple(tuple(col.get(i, 0) for col in self.v_columns) for i in range(n))

    def reduce(self, vector) -> list:
        """``w = u @ vector``, by replaying the row operations on it, and
        RuntimeError unless ``u^-1 @ w == vector``.  A vector whose length
        is not the row count raises ValueError."""
        if len(vector) != (n := len(self.u_inverse)):
            raise ValueError(f"dimensions do not match: {n} rows, vector of length {len(vector)}")
        w = list(vector)
        for i, t, q in self.row_log:
            if q:
                w[i] += q * w[t]
            else:
                w[i], w[t] = w[t], w[i]
        back = [0] * len(w)
        for c, col in zip(w, self.u_inverse):
            for i, x in col.items():
                back[i] += c * x
        if back != list(vector):
            raise RuntimeError("smith normal form row log check failed")
        return w

    def solve(self, vector):
        """One integer solution x of ``matrix @ x == vector``, or None.  A
        vector whose length is not the row count raises ValueError, and a
        solution that fails ``matrix @ x == vector`` RuntimeError.

        >>> smith_normal_form(((2, 0), (0, 3))).solve((4, 3))
        (2, 1)
        """
        return self.lift(vector, self.reduce(vector))

    def lift(self, vector, w):
        """``solve(vector)`` from ``w = reduce(vector)``, with no second
        replay of the log: x = v @ y with y_i = w_i / d_i.  None when some
        w_i is nonzero and d_i is 0 or does not divide it; RuntimeError
        unless ``matrix @ x == vector``."""
        x = [0] * len(self.v_columns)
        for i, c in enumerate(w):
            if c:
                d = self.diagonal[i] if i < len(self.diagonal) else 0
                if not d or c % d:
                    return None
                y = c // d
                for k, z in self.v_columns[i].items():
                    x[k] += y * z
        mx = [sum([z * x[k] for k, z in row.items()]) for row in self.matrix_rows]
        if mx != list(vector):
            raise RuntimeError("smith normal form solution check failed")
        return tuple(x)

    def kernel_basis(self) -> tuple[IntVector, ...]:
        """Basis of the integer kernel {x : matrix @ x == 0}."""
        cols = len(self.v_columns)
        return tuple(
            tuple(col.get(k, 0) for k in range(cols))
            for j, col in enumerate(self.v_columns)
            if j >= len(self.diagonal) or self.diagonal[j] == 0
        )

    def cokernel(self, extra_free_rank: int = 0) -> "AbelianGroup":
        """Cokernel Z^rows / (column span of the matrix) as an AbelianGroup,
        plus ``extra_free_rank`` free summands.

        >>> smith_normal_form(((2, 0), (0, 0), (0, 3))).cokernel(1)
        AbelianGroup(free_rank=2, torsion=(6,))
        """
        nonzero = [d for d in self.diagonal if d != 0]
        free = len(self.u_inverse) - len(nonzero) + extra_free_rank
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


def _add_column(rows, dst, src, factor: int) -> None:
    """Column dst += factor * column src, on the sparse rows that hold src."""
    if factor:
        for row in rows:
            if src in row:
                x = row.get(dst, 0) + factor * row[src]
                if x:
                    row[dst] = x
                else:
                    del row[dst]


def _swap_columns(rows, v: list[dict], t: int, j: int) -> None:
    """Swap columns t and j of the sparse rows, and columns t and j of v."""
    for row in rows:
        x, y = row.pop(t, 0), row.pop(j, 0)
        if y:
            row[t] = y
        if x:
            row[j] = x
    v[t], v[j] = v[j], v[t]


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form with transforms, deterministic pivoting.

    The pivot at each stage is the smallest nonzero absolute value in the
    remaining block, ties broken by the sparsest row and column and then by
    lowest row and column index (see _select_pivot), so the output is
    reproducible.  The working matrix is kept as sparse rows and v and u^-1
    as sparse columns, so each operation costs the nonzeros it touches.
    Each row operation is logged and mirrored on u^-1 as its inverse column
    operation: row_i += q * row_t as col_t -= q * col_i.

    >>> smith_normal_form(((2, 0), (0, 3))).diagonal
    (1, 6)
    """
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    m_rows, a = [], []  # the input's rows of nonzeros and their working copies
    for row in matrix:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        m_rows.append({j: x for j, x in enumerate(map(index, row)) if x})
        a.append(m_rows[-1].copy())
    log = []
    u_inv = [{i: 1} for i in range(rows)]  # columns of u^-1
    v = [{j: 1} for j in range(cols)]  # columns of v

    t = 0
    while (pivot := _select_pivot(a, t)) is not None:
        pi, pj = pivot
        if pi != t:
            a[t], a[pi], u_inv[t], u_inv[pi] = a[pi], a[t], u_inv[pi], u_inv[t]
            log.append((t, pi, 0))
        if pj != t:
            _swap_columns(a[t:], v, t, pj)
        if a[t][t] < 0:
            a[t] = {j: -x for j, x in a[t].items()}
            u_inv[t] = {j: -x for j, x in u_inv[t].items()}
            log.append((t, t, -2))
        while True:
            # Clear the pivot column; a remainder becomes a smaller pivot and the pass repeats.
            swapped = False
            for i in range(t + 1, rows):
                row = a[i]
                if t in row:
                    if q := -(row[t] // a[t][t]):  # row_i += q * row_t
                        _add_scaled(row, a[t], q)
                        _add_scaled(u_inv[t], u_inv[i], -q)
                        log.append((i, t, q))
                    if t in row:
                        a[t], a[i], u_inv[t], u_inv[i] = row, a[t], u_inv[i], u_inv[t]
                        log.append((t, i, 0))
                        swapped = True
            if swapped:
                continue
            # Clear the pivot row with column operations.  Column t is
            # nonzero in row t alone until a swap brings in another column.
            row_t = a[t]
            for j in sorted(row_t)[1:]:
                q = row_t[j] // row_t[t]
                _add_column(a[t:] if swapped else (row_t,), j, t, -q)
                _add_scaled(v[j], v[t], -q)
                if j in row_t:
                    _swap_columns(a[t:], v, t, j)
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
            _add_scaled(u_inv[culprit], u_inv[t], -1)
            log.append((t, culprit, 1))
        t += 1

    diagonal = tuple([a[i].get(i, 0) for i in range(min(rows, cols))])
    _check_snf(m_rows, diagonal, v, u_inv)
    return SnfResult(m_rows, diagonal, v, u_inv, log)


def _check_snf(m_rows: list[dict], diagonal: IntVector, v: list[dict], u_inv: list[dict]) -> None:
    """Raise unless ``m @ v == u^-1 @ D`` exactly, on m's sparse rows and
    the sparse columns of v and u^-1; u^-1 is a product of elementary
    operations by construction, so this is ``u @ m @ v == D``.  Each column
    of m @ v is compared whole with d_j times column j of u^-1."""
    m_cols = [{} for _ in v]
    for i, row in enumerate(m_rows):
        for j, x in row.items():
            m_cols[j][i] = x
    for j, v_col in enumerate(v):
        mv = {}
        for k, x in v_col.items():
            _add_scaled(mv, m_cols[k], x)
        d = diagonal[j] if j < len(diagonal) else 0
        if mv != ({i: d * x for i, x in u_inv[j].items()} if d else {}):
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
    """One rational solution x of ``matrix @ x == vector``, or None: the
    integer solution for m * vector over m, where every nonzero d_i divides
    the last nonzero invariant factor m, so x_i = (v @ y)_i, y_i = w_i / d_i."""
    from fractions import Fraction

    snf = smith_normal_form(matrix)
    m = max(snf.diagonal, default=0) or 1
    x = snf.solve([m * b for b in vector])
    return None if x is None else tuple([Fraction(y, m) for y in x])


def symmetric_signature(matrix) -> int:
    """Signature of a symmetric integer matrix, zero eigenvalues excluded.

    Exact rational congruence diagonalization on rows of nonzeros, as
    ``smith_normal_form`` keeps them.  Each step pivots on the nonzero
    diagonal entry of the sparsest row, counts its sign and leaves the
    Schur complement, symmetric again.  On an all-zero diagonal,
    x_p -> x_p + x_j with Q_pj != 0 first makes Q_pp = 2 Q_pj.
    """
    from fractions import Fraction

    matrix = freeze(matrix)
    if not is_symmetric(matrix):
        raise ValueError("signature requires a symmetric matrix")
    rows = {i: {j: Fraction(x) for j, x in enumerate(row) if x} for i, row in enumerate(matrix)}
    signature = 0
    while True:
        p = min([(len(r), i) for i, r in rows.items() if i in r], default=(0, None))[1]
        if p is None:
            p = next((i for i, r in rows.items() if r), None)
            if p is None:  # no nonzero entry is left
                return signature
            j = next(iter(rows[p]))
            _add_scaled(rows[p], rows[j], 1)
            _add_column(rows.values(), p, j, 1)
        pivot = rows.pop(p)
        signature += 1 if pivot[p] > 0 else -1
        for i in pivot:
            if i != p:
                _add_scaled(rows[i], pivot, -rows[i][p] / pivot[p])


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(a * b for a, b in zip(u, v))

