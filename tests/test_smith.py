from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlink import linalg
from singlink.families import Cusp, Elliptic
from singlink.invariants import euler_class
from singlink.plumbing import PlumbingGraph, PlumbingVertex, intersection_matrix
from singlink.linalg import (
    AbelianGroup,
    SnfResult,
    determinant,
    dot,
    mat_vec,
    matmul,
    smith_normal_form,
    solve_rational,
    symmetric_signature,
    two_column_cokernel,
)
from singlink.sl2z import CycleWord

from helpers import (
    cycle_product_oracle,
    dense_signature_oracle,
    dense_snf_check_oracle,
    dense_snf_oracle,
    det_cofactor,
    markowitz_pivot_oracle,
    openbook_presentation,
    presentation_oracle,
    suite_families,
)

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def test_snf_fixed_cases():
    assert smith_normal_form(((2, 0), (0, 3))).diagonal_entries() == (1, 6)
    assert smith_normal_form(((0, 0), (0, 0))).diagonal_entries() == (0, 0)
    assert smith_normal_form(((6, -3), (5, -3))).diagonal_entries() == (1, 3)


def test_non_integer_entries_are_refused():
    # truncated to integers, these would reduce a different matrix or vector
    # and pass the self-check on it
    with pytest.raises(TypeError):
        smith_normal_form(((1.5, 2), (3, 4.9)))
    with pytest.raises(TypeError):
        smith_normal_form(((Fraction(7, 2),),)).cokernel()
    with pytest.raises(TypeError):
        two_column_cokernel(((1.5, 2), (3, 4)))
    with pytest.raises(TypeError):
        two_column_cokernel(((Fraction(7, 2),),))
    with pytest.raises(TypeError):
        euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0, -1.7))
    with pytest.raises(TypeError):
        AbelianGroup(0, (2.5,))
    with pytest.raises(TypeError):
        AbelianGroup(1.5)
    with pytest.raises(TypeError):
        intersection_matrix(PlumbingGraph((PlumbingVertex(2.5),), ()))
    with pytest.raises(TypeError):
        PlumbingVertex(-2, genus=0.5)
    with pytest.raises(TypeError):
        PlumbingGraph((PlumbingVertex(-2), PlumbingVertex(-2)), ((0.5, 1),))
    with pytest.raises(TypeError):
        determinant(((1.5, 0), (0, 2)))
    with pytest.raises(TypeError):
        symmetric_signature(((0.5,),))


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to 8 x 8, entries -6..6, at least half of them zero."""
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    cells = rows * cols
    count = draw(st.integers(min_value=0, max_value=cells // 2))
    places = draw(st.permutations(range(cells)))[:count]
    values = draw(
        st.lists(st.sampled_from([*range(-6, 0), *range(1, 7)]), min_size=count, max_size=count)
    )
    flat = [0] * cells
    for k, x in zip(places, values):
        flat[k] = x
    return tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))


@settings(max_examples=200)
@given(sparse_matrices())
@example(openbook_presentation(Elliptic(25)))
@example(openbook_presentation(Cusp(CycleWord((3,) * 17))))
def test_pivot_matches_markowitz_oracle(m):
    rows, cols = len(m), len(m[0])
    select = linalg._select_pivot
    stages = []

    def checked(a, t):
        pivot = select(a, t)
        dense = [[row.get(j, 0) for j in range(cols)] for row in a]
        assert pivot == markowitz_pivot_oracle(dense, t, rows, cols)
        stages.append(t)
        return pivot

    # every stage of a reduction, on the blocks the reduction produces
    with patch.object(linalg, "_select_pivot", checked):
        smith_normal_form(m)
    assert stages == list(range(len(stages)))
    # every stage offset of the raw matrix, zero blocks included, with the
    # rows holding only the block's columns as the reduction's rows do
    for t in range(min(rows, cols) + 1):
        a = [{j: x for j, x in enumerate(row) if x and j >= t} for row in m]
        assert select(a, t) == markowitz_pivot_oracle(m, t, rows, cols)


@st.composite
def matrices_with_zero_lines(draw):
    """Integer matrices of every shape from 0 x 0 to 8 x 8, entries -50..50,
    with some rows and columns zeroed."""
    rows = draw(st.integers(min_value=0, max_value=8))
    cols = draw(st.integers(min_value=0, max_value=8))
    entries = st.one_of(st.just(0), st.integers(min_value=-50, max_value=50))
    row = st.lists(entries, min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0))))
    return tuple(
        tuple(0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def _assert_matches_dense_oracle(m):
    snf, oracle = smith_normal_form(m), dense_snf_oracle(m)
    assert (snf.u, snf.diag, snf.v) == (oracle.u, oracle.diag, oracle.v)


@settings(max_examples=300)
@given(matrices_with_zero_lines())
@example(())
@example(((), ()))
@example(openbook_presentation(Elliptic(25)))
@example(openbook_presentation(Cusp(CycleWord((3,) * 17))))
def test_sparse_snf_matches_dense_oracle(m):
    _assert_matches_dense_oracle(m)


def test_sparse_snf_matches_dense_oracle_on_every_presentation():
    for family in suite_families():
        a = family.monodromy()
        for m in (
            presentation_oracle(family),
            ((a.a - 1, a.b), (a.c, a.d - 1)),
            intersection_matrix(family.graph()),
            openbook_presentation(family),
        ):
            _assert_matches_dense_oracle(m)
    for n in range(1, 41):
        _assert_matches_dense_oracle(openbook_presentation(Elliptic(n)))
    for k in range(1, 25):
        _assert_matches_dense_oracle(openbook_presentation(Cusp(CycleWord((3,) * k))))


def test_sparse_snf_matches_dense_oracle_on_the_growth_witness():
    # entries at most 32, yet v's entries grow to tens of thousands of bits;
    # found by Hypothesis past its deadline, so pinned here without one
    m = (
        (0, 23, -32, 0, 0, 0, 0),
        (0, 9, 0, 0, 0, 0, 0),
        (-8, 0, 27, 0, 10, 0, 0),
        (0, -15, -32, 0, 0, 0, -8),
        (0, 0, 22, 0, 8, 0, 0),
        (0, 0, 32, 11, 0, 0, 0),
        (8, 0, -25, 0, 23, 0, 0),
    )
    snf, oracle = smith_normal_form(m), dense_snf_oracle(m)
    assert (snf.u, snf.diag, snf.v) == (oracle.u, oracle.diag, oracle.v)
    assert snf.diagonal_entries() == (1, 1, 1, 1, 8, 176, 0)


def _check_accepts(m, snf):
    try:
        linalg._check_snf(m, linalg._sparse(snf.u), snf.diag, linalg._sparse(snf.v))
    except RuntimeError:
        return False
    return True


def _with_one_change(snf, which, i, j, delta):
    rows = [list(row) for row in getattr(snf, which)]
    rows[i][j] += delta
    fields = {"u": snf.u, "diag": snf.diag, "v": snf.v, which: tuple(map(tuple, rows))}
    return SnfResult(fields["u"], fields["diag"], fields["v"])


@settings(max_examples=200)
@given(sparse_matrices(), st.data())
def test_sparse_snf_check_accepts_snf_and_rejects_one_change(m, data):
    snf = smith_normal_form(m)  # ran the check once already
    assert _check_accepts(m, snf) and dense_snf_check_oracle(m, snf)
    rows, cols = len(m), len(m[0])
    # entries whose change changes u @ m @ v: u[i][k] when row k of m is
    # nonzero, v[k][j] when column k of m is nonzero (u and v are
    # invertible), and every entry of diag, off-diagonal zeros included
    targets = [("u", i, k) for i in range(rows) for k in range(rows) if any(m[k])]
    targets += [
        ("v", k, j) for k in range(cols) for j in range(cols) if any(row[k] for row in m)
    ]
    targets += [("diag", i, j) for i in range(rows) for j in range(cols)]
    which, i, j = data.draw(st.sampled_from(targets))
    changed = _with_one_change(snf, which, i, j, data.draw(st.sampled_from([-2, -1, 1, 2])))
    assert not dense_snf_check_oracle(m, changed)
    assert not _check_accepts(m, changed)


def test_sparse_snf_check_rejects_every_changed_entry_of_diag():
    for family in (Elliptic(25), Cusp(CycleWord((3,) * 17))):
        m = openbook_presentation(family)
        snf = smith_normal_form(m)
        assert dense_snf_check_oracle(m, snf)
        for i in range(len(m)):
            for j in range(len(m[0])):
                assert not _check_accepts(m, _with_one_change(snf, "diag", i, j, 1))


def test_snf_self_check_failure_raises():
    snf = smith_normal_form(((2, 4), (6, 8)))
    broken = SnfResult(snf.u, ((1, 1), (0, 4)), snf.v)
    with patch.object(linalg, "SnfResult", lambda u, diag, v: broken):
        with pytest.raises(RuntimeError, match="verification failed"):
            smith_normal_form(((2, 4), (6, 8)))


def test_snf_agrees_with_dense_check_on_suite_presentations():
    for family in suite_families():
        for m in (presentation_oracle(family), openbook_presentation(family)):
            assert dense_snf_check_oracle(m, smith_normal_form(m))


def test_snf_zero_and_empty():
    snf = smith_normal_form(((0,),))
    assert snf.diag == ((0,),)
    assert snf.cokernel() == AbelianGroup(1)


@settings(max_examples=150)
@given(matrices)
def test_snf_properties(rows):
    m = tuple(tuple(r) for r in rows)
    snf = smith_normal_form(m)
    # the factorization itself
    assert matmul(matmul(snf.u, m), snf.v) == snf.diag
    # unimodularity, via the independent cofactor determinant
    assert abs(det_cofactor([list(r) for r in snf.u])) == 1
    assert abs(det_cofactor([list(r) for r in snf.v])) == 1
    # nonnegative diagonal with divisibility chain, zeros trailing
    d = snf.diagonal_entries()
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal is zero
    for i, row in enumerate(snf.diag):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


@settings(max_examples=80)
@given(matrices)
def test_snf_idempotent(rows):
    m = tuple(tuple(r) for r in rows)
    d = smith_normal_form(m).diag
    assert smith_normal_form(d).diag == d


@settings(max_examples=100)
@given(
    matrices,
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
)
def test_solve_integer_roundtrip(rows, xs):
    m = tuple(tuple(r) for r in rows)
    x = (xs * 4)[: len(m[0])]
    v = mat_vec(m, x)
    solution = smith_normal_form(m).solve(v)
    assert solution is not None
    assert mat_vec(m, solution) == v


def test_solve_integer_unsolvable():
    assert smith_normal_form(((2,),)).solve((1,)) is None
    assert smith_normal_form(((0,),)).solve((1,)) is None
    assert solve_rational(((0,),), (1,)) is None
    assert solve_rational(((2,),), (1,)) == (Fraction(1, 2),)


def test_integer_kernel_basis():
    basis = smith_normal_form(((0, 0, 0), (0, 0, 0), (0, 0, -3))).kernel_basis()
    assert len(basis) == 2
    for k in basis:
        assert mat_vec(((0, 0, 0), (0, 0, 0), (0, 0, -3)), k) == (0, 0, 0)


def test_solve_refuses_a_vector_of_the_wrong_length():
    snf = smith_normal_form(((1, 0), (0, 1)))
    assert snf.solve((3, 4)) == (3, 4)
    for vector in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="dimensions"):
            snf.solve(vector)
        with pytest.raises(ValueError, match="dimensions"):
            mat_vec(((1, 0), (0, 1)), vector)
    with pytest.raises(ValueError, match="rows"):
        solve_rational(((1, 0), (0, 1)), (1,))
    with pytest.raises(ValueError, match="dimensions"):
        solve_rational((), (1,))
    # the empty matrix has no row for mat_vec to compare the vector with
    with pytest.raises(ValueError, match="dimensions"):
        smith_normal_form(()).solve((1,))
    assert smith_normal_form(()).solve(()) == ()
    with pytest.raises(ValueError, match="dimensions"):
        snf.solve_reduced((1,))


def test_determinant_matches_cofactor_oracle():
    cases = [
        ((2,),),
        ((-2, 1, 1), (1, -2, 1), (1, 1, -3)),
        ((6, -3), (5, -3)),
        ((0, 1, 2), (1, 0, 3), (2, 3, 0)),
    ]
    for m in cases:
        assert determinant(m) == det_cofactor([list(r) for r in m])


def test_abelian_group_validation_and_str():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 4 does not divide 6
    assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"


def test_cokernel_fixed():
    def cokernel(m, extra_free_rank=0):
        return smith_normal_form(m).cokernel(extra_free_rank)

    assert cokernel(((-3,),)) == AbelianGroup(0, (3,))
    assert cokernel(((-1,),)) == AbelianGroup(0)
    assert cokernel(((6, -3), (5, -3))) == AbelianGroup(0, (3,))
    assert cokernel(((0, 0), (0, 0))) == AbelianGroup(2)
    assert cokernel(((2, 0), (0, 2)), extra_free_rank=1) == AbelianGroup(1, (2, 2))


def _a_minus_i(entries):
    (a, b), (c, d) = cycle_product_oracle(entries)
    return [[a - 1, b], [c, d - 1]]


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda r: st.integers(min_value=0, max_value=2).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    ),
    st.sampled_from([0, 1]),
)
@example(_a_minus_i([3] * 1000), 1)  # a trace of 1,389 bits
def test_two_column_cokernel_matches_smith_normal_form(rows, extra_free_rank):
    m = tuple(map(tuple, rows))
    expected = smith_normal_form(m).cokernel(extra_free_rank)
    assert two_column_cokernel(m, extra_free_rank) == expected


def test_two_column_cokernel_refusals():
    with pytest.raises(ValueError, match="two columns"):
        two_column_cokernel(((1, 2, 3),))
    with pytest.raises(ValueError, match="ragged"):
        two_column_cokernel(((1, 2), (3,)))
    with pytest.raises(ValueError, match="ragged"):
        two_column_cokernel(((1,), (2, 3)))


def test_signature_fixed_cases():
    assert symmetric_signature(((0, 0, 0), (0, 0, 0), (0, 0, -3))) == -1
    assert symmetric_signature(((-2, 1, 1), (1, -2, 1), (1, 1, -3))) == -3
    assert symmetric_signature(((0, 1), (1, 0))) == 0
    assert symmetric_signature(((2, 0), (0, -3))) == 0
    assert symmetric_signature(((1, 1), (1, 1))) == 1
    assert symmetric_signature(()) == 0
    assert symmetric_signature(((0, 1, 0), (1, 0, 1), (0, 1, 0))) == 0
    with pytest.raises(ValueError):
        symmetric_signature(((0, 1), (2, 0)))


@st.composite
def symmetric_matrices(draw, zero_diagonal=False):
    """Symmetric integer matrices up to 8 x 8, entries -50..50, about half
    of them zero."""
    n = draw(st.integers(min_value=0, max_value=8))
    entries = st.one_of(st.just(0), st.integers(min_value=-50, max_value=50))
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            q[i][j] = q[j][i] = draw(entries)
    return tuple(map(tuple, q))


@st.composite
def rank_deficient_matrices(draw):
    """Sums of fewer than n signed squares v v^T, entries of v -2..2, so
    the rank is below n and every entry at most 28 in size."""
    n = draw(st.integers(min_value=1, max_value=8))
    q = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=n - 1))):
        v = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n))
        sign = draw(st.sampled_from((1, -1)))
        for i in range(n):
            for j in range(n):
                q[i][j] += sign * v[i] * v[j]
    return tuple(map(tuple, q))


@settings(max_examples=300)
@given(
    st.one_of(
        symmetric_matrices(),
        symmetric_matrices(zero_diagonal=True),
        rank_deficient_matrices(),
    )
)
@example(((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0)))  # the path, diagonal 0
@example(((0, 0), (0, 0)))
@example(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))  # two hyperbolic blocks
def test_signature_matches_dense_oracle(q):
    assert symmetric_signature(q) == dense_signature_oracle(q)


def test_signature_at_the_vertex_limit():
    # negative definite forms of plumbing.VERTEX_LIMIT vertices, and paths
    # with a zero diagonal, which take the x_p -> x_p + x_j step at every pivot
    for word in ((3,) * 1000, (3, 2) * 500):
        q = intersection_matrix(Cusp(CycleWord(word)).graph())
        assert symmetric_signature(q) == -1000, word[:2]
    for n in (1000, 1001):
        path = tuple(tuple(int(abs(i - j) == 1) for j in range(n)) for i in range(n))
        assert symmetric_signature(path) == 0, n


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_signature_congruence_invariant(data):
    raw, p_raw = data
    n = len(raw)
    # symmetrize
    q = tuple(tuple(raw[i][j] + raw[j][i] for j in range(n)) for i in range(n))
    # build a unimodular-ish transform: identity plus strictly lower part
    p = [[1 if i == j else (p_raw[i][j] if i > j else 0) for j in range(n)] for i in range(n)]
    pt = [list(r) for r in zip(*p)]
    pqp = matmul(matmul(tuple(map(tuple, pt)), q), tuple(map(tuple, p)))
    assert symmetric_signature(pqp) == symmetric_signature(q)


@settings(max_examples=60)
@given(matrices, st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4))
def test_chern_pairing_kernel_invariance(rows, xs):
    # kernel vectors pair to zero against anything in the image of a symmetric matrix
    n = min(len(rows), len(rows[0]))
    q = tuple(tuple(rows[i][j] + rows[j][i] for j in range(n)) for i in range(n))
    x = tuple((xs * 4)[:n])
    v = mat_vec(q, x)
    for k in smith_normal_form(q).kernel_basis():
        assert dot(k, v) == 0
