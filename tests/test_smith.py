from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlink import linalg
from singlink.families import Cusp, Elliptic
from singlink.invariants import euler_class
from singlink.linalg import (
    AbelianGroup,
    cokernel,
    determinant,
    dot,
    integer_kernel_basis,
    mat_vec,
    matmul,
    smith_normal_form,
    solve_integer,
    solve_rational,
    symmetric_signature,
)
from singlink.sl2z import CycleWord

from helpers import det_cofactor, markowitz_pivot_oracle, openbook_presentation

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
        cokernel(((Fraction(7, 2),),))
    with pytest.raises(TypeError):
        euler_class(Cusp(CycleWord((2, 2, 3))), (0, 0, -1.7))
    with pytest.raises(TypeError):
        AbelianGroup(0, (2.5,))


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

    def checked(a, t, rows, cols):
        pivot = select(a, t, rows, cols)
        assert pivot == markowitz_pivot_oracle(a, t, rows, cols)
        stages.append(t)
        return pivot

    # every stage of a reduction, on the blocks the reduction produces
    with patch.object(linalg, "_select_pivot", checked):
        smith_normal_form(m)
    assert stages == list(range(len(stages)))
    # every stage offset of the raw matrix, zero blocks included
    a = [list(row) for row in m]
    for t in range(min(rows, cols) + 1):
        assert select(a, t, rows, cols) == markowitz_pivot_oracle(a, t, rows, cols)


def test_snf_zero_and_empty():
    snf = smith_normal_form(((0,),))
    assert snf.diag == ((0,),)
    assert cokernel(((0,),)) == AbelianGroup(1)


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
    solution = solve_integer(m, v)
    assert solution is not None
    assert mat_vec(m, solution) == v


def test_solve_integer_unsolvable():
    assert solve_integer(((2,),), (1,)) is None
    assert solve_integer(((0,),), (1,)) is None
    assert solve_rational(((0,),), (1,)) is None
    assert solve_rational(((2,),), (1,)) == (Fraction(1, 2),)


def test_integer_kernel_basis():
    basis = integer_kernel_basis(((0, 0, 0), (0, 0, 0), (0, 0, -3)))
    assert len(basis) == 2
    for k in basis:
        assert mat_vec(((0, 0, 0), (0, 0, 0), (0, 0, -3)), k) == (0, 0, 0)


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
    assert AbelianGroup(1, (2, 6)).torsion_order == 12
    assert AbelianGroup(0, (3,)).add_free(2) == AbelianGroup(2, (3,))


def test_cokernel_fixed():
    assert cokernel(((-3,),)) == AbelianGroup(0, (3,))
    assert cokernel(((-1,),)) == AbelianGroup(0)
    assert cokernel(((6, -3), (5, -3))) == AbelianGroup(0, (3,))
    assert cokernel(((0, 0), (0, 0))) == AbelianGroup(2)
    assert cokernel(((2, 0), (0, 2)), extra_free_rank=1) == AbelianGroup(1, (2, 2))


def test_signature_fixed_cases():
    assert symmetric_signature(((0, 0, 0), (0, 0, 0), (0, 0, -3))) == -1
    assert symmetric_signature(((-2, 1, 1), (1, -2, 1), (1, 1, -3))) == -3
    assert symmetric_signature(((0, 1), (1, 0))) == 0
    assert symmetric_signature(((2, 0), (0, -3))) == 0
    assert symmetric_signature(((1, 1), (1, 1))) == 1
    assert symmetric_signature(()) == 0
    with pytest.raises(ValueError):
        symmetric_signature(((0, 1), (2, 0)))


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
    for k in integer_kernel_basis(q):
        assert dot(k, v) == 0
