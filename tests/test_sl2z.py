import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink.sl2z import (
    NoFactorization,
    NotCuspClass,
    Sl2Matrix,
    cycle_monodromy,
    cycle_word,
    cyclic_equal,
    factor_cycle,
    least_rotation,
)

from helpers import cusp_words, cycle_product_oracle


def rotations(entries):
    return tuple(entries[i:] + entries[:i] for i in range(len(entries)))


def product(*matrices):
    """The product of Sl2Matrix values, left to right."""
    a, b, c, d = 1, 0, 0, 1
    for m in matrices:
        a, b, c, d = a * m.a + b * m.c, a * m.b + b * m.d, c * m.a + d * m.c, c * m.b + d * m.d
    return Sl2Matrix(a, b, c, d)


def conjugate(p, m):
    """p m p^-1; the inverse of an SL(2,Z) matrix is its adjugate."""
    return product(p, m, Sl2Matrix(p.d, -p.b, -p.c, p.a))


def test_determinant_checked_at_construction():
    with pytest.raises(ValueError, match="determinant"):
        Sl2Matrix(1, 0, 0, 2)
    with pytest.raises(ValueError, match="determinant"):
        Sl2Matrix(0, 1, 1, 0)


def test_classify_fixed_cases():
    parabolic = Sl2Matrix(1, 5, 0, 1)
    assert parabolic.kind == "parabolic"
    assert parabolic.trace == 2
    assert parabolic.is_elliptic_link and not parabolic.is_cusp_link

    elliptic = Sl2Matrix(0, -1, 1, 0)
    assert elliptic.kind == "elliptic"
    assert elliptic.trace == 0
    assert not elliptic.is_cusp_link and not elliptic.is_elliptic_link

    hyperbolic = Sl2Matrix(5, -2, 3, -1)
    assert hyperbolic.kind == "hyperbolic"
    assert hyperbolic.trace == 4
    assert hyperbolic.is_cusp_link and not hyperbolic.is_elliptic_link


def test_monodromy_class_kind_follows_the_trace():
    for (a, b, c, d), trace, kind in (
        ((2, 1, 1, 1), 3, "hyperbolic"),
        ((-1, 0, 0, -1), -2, "parabolic"),
        ((1, -1, 1, 0), 1, "elliptic"),
    ):
        matrix = Sl2Matrix(a, b, c, d)
        assert (matrix.trace, matrix.kind) == (trace, kind)
    with pytest.raises(TypeError):  # trace and kind are not parameters
        Sl2Matrix(1, 0, 0, 1, 2)


@settings(max_examples=100)
@given(st.integers(1, 50), st.integers(-5, 5), st.integers(-5, 5), st.booleans())
def test_elliptic_link_is_conjugation_invariant(n, x, y, positive):
    # P = [[1, x], [0, 1]] [[1, 0], [y, 1]] ranges over many SL(2,Z) matrices
    p = product(Sl2Matrix(1, x, 0, 1), Sl2Matrix(1, 0, y, 1))
    t = Sl2Matrix(1, n if positive else -n, 0, 1)
    assert conjugate(p, t).is_elliptic_link is positive


def test_classify_negative_trace_is_not_cusp():
    m = Sl2Matrix(-5, 2, -3, 1)
    assert m.kind == "hyperbolic"
    assert not m.is_cusp_link


def test_cycle_word_validation():
    assert cycle_word((3,)) == (3,)
    word = cycle_word(iter([2, 3]))
    assert type(word) is tuple and word == (2, 3)
    for bad in [(), (2,), (1, 5), (2, 2), (2, 2, 2, 2)]:
        with pytest.raises(ValueError, match="invalid cycle word"):
            cycle_word(bad)


def test_cycle_word_entries_must_be_integers():
    with pytest.raises(TypeError):
        cycle_word((3.7, 2))


def test_matrix_rows_must_be_integers():
    with pytest.raises(TypeError):
        Sl2Matrix(1.9, 0, 0, 1)
    with pytest.raises(TypeError):  # determinant one, but not an integer matrix
        Sl2Matrix(1.0, 0, 0, 1.0)


def test_single_factor_is_the_generator():
    assert cycle_monodromy((3,)) == Sl2Matrix(3, -1, 1, 0)


@pytest.mark.parametrize(
    "entries, expected",
    [
        ((2, 3), ((5, -2), (3, -1))),
        ((2, 2, 3), ((7, -3), (5, -2))),
    ],
)
def test_cycle_monodromy_frozen_values(entries, expected):
    # expected values recomputed with the naive product oracle
    oracle = cycle_product_oracle(entries)
    assert tuple(map(tuple, oracle)) == expected
    assert cycle_monodromy(entries) == Sl2Matrix(*expected[0], *expected[1])


def test_cycle_monodromy_trace_example():
    assert cycle_monodromy((2, 2, 3)).trace == 5


def test_cycle_monodromy_matches_oracle_everywhere():
    for word in cusp_words(5, 6):
        oracle = cycle_product_oracle(word)
        assert cycle_monodromy(word) == Sl2Matrix(*oracle[0], *oracle[1])


def test_determinant_and_trace_over_suite():
    for word in cusp_words(5, 6):
        m = cycle_monodromy(word)
        assert m.a * m.d - m.b * m.c == 1
        assert m.trace >= 3


def test_trace_invariant_under_rotation():
    for word in cusp_words(4, 5):
        base = cycle_monodromy(word).trace
        for rot in rotations(word):
            assert cycle_monodromy(rot).trace == base


def test_cyclic_equal():
    assert cyclic_equal((2, 2, 3), (2, 3, 2))
    assert cyclic_equal((2, 3), (3, 2))
    assert not cyclic_equal((2, 2, 3), (2, 3, 3))
    assert not cyclic_equal((3,), (3, 3))


cycle_words = (
    st.lists(st.integers(2, 4), min_size=1, max_size=12)
    .filter(lambda e: max(e) >= 3)
    .map(tuple)
)


@settings(max_examples=300)
@given(cycle_words, st.integers(0, 11))
def test_least_rotation_matches_brute_force(word, shift):
    assert least_rotation(word) == min(rotations(word))
    rotated = rotations(word)[shift % len(word)]
    assert cyclic_equal(word, rotated) and cyclic_equal(rotated, word)


@settings(max_examples=300)
@given(cycle_words, cycle_words)
def test_cyclic_equal_matches_brute_force(w1, w2):
    assert cyclic_equal(w1, w2) == (len(w1) == len(w2) and w2 in rotations(w1))


def test_factor_cycle_long_period_in_linear_memory():
    # 19,999 entries 2 and one 3: listing its rotations would hold about 400 M entries
    tracemalloc.start()
    try:
        word = factor_cycle(Sl2Matrix(20002, 1, -1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == (2,) * 19999 + (3,)
    assert peak < 20 * 2**20


def test_factor_cycle_refuses_periods_over_the_limit():
    with pytest.raises(NoFactorization, match="exceeds the limit of 100,000 entries"):
        factor_cycle(Sl2Matrix(10_000_000_000, 1, -1, 0))


def test_factor_cycle_fixed_cases():
    assert factor_cycle(Sl2Matrix(3, -1, 1, 0)) == (3,)
    # M(3) conjugated by x -> x/(x + 1): both fixed points lie in (0, 1), so
    # the first quotient is below 1 with its conjugate in (0, 1), and is
    # not yet reduced
    assert factor_cycle(Sl2Matrix(4, -1, 5, -1)) == (3,)
    assert factor_cycle(Sl2Matrix(5, -2, 3, -1)) == (2, 3)
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(1, 1, 0, 1))
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(0, -1, 1, 0))
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(-5, 2, -3, 1))


def test_factor_cycle_output_is_least_rotation():
    m = cycle_monodromy((3, 2))
    assert factor_cycle(m) == (2, 3)


def test_factor_cycle_roundtrip_over_suite():
    for word in cusp_words(5, 6):
        recovered = factor_cycle(cycle_monodromy(word))
        assert cyclic_equal(recovered, word), (word, recovered)
        assert recovered == least_rotation(word)


def test_factor_cycle_power_of_primitive():
    m = cycle_monodromy((2, 3))
    assert factor_cycle(product(m, m)) == (2, 3, 2, 3)
    cube = product(m, m, m)
    assert factor_cycle(cube) == (2, 3, 2, 3, 2, 3)


def test_factor_cycle_conjugation_invariant():
    t = Sl2Matrix(1, 1, 0, 1)
    s = Sl2Matrix(0, -1, 1, 0)
    conjugators = [t, s, product(t, s), product(s, t, t), product(t, t, s, t)]
    for word in [(3,), (2, 3), (2, 2, 3), (4, 5), (3, 2, 4, 2)]:
        a = cycle_monodromy(word)
        for p in conjugators:
            conj = conjugate(p, a)
            assert cyclic_equal(factor_cycle(conj), word), (word, p)


CONJUGATING_LETTERS = (Sl2Matrix(0, -1, 1, 0), Sl2Matrix(1, 1, 0, 1), Sl2Matrix(1, -1, 0, 1))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=8).filter(lambda e: max(e) >= 3),
    st.lists(st.sampled_from(CONJUGATING_LETTERS), max_size=8),
)
def test_factor_cycle_roundtrips_under_random_conjugation(entries, letters):
    # P is a product of up to 8 letters S, T, T^-1
    word = tuple(entries)
    p = product(*letters)
    oracle = cycle_product_oracle(entries)
    conj = conjugate(p, Sl2Matrix(*oracle[0], *oracle[1]))
    assert cyclic_equal(factor_cycle(conj), word)


def power_of_two_letter(r):
    """M(2)^r = [[r + 1, -r], [r, 1 - r]]: conjugating by it puts a run of
    about r entries 2 in front of the period."""
    return Sl2Matrix(r + 1, -r, r, 1 - r)


def test_long_run_of_twos_before_the_period_is_not_counted():
    # P M(3) P^-1 with P = M(2)^r: the expansion opens with about r entries
    # 2, and the limit applies to the period (3) alone
    for r in (100_010, 10**30):
        conj = conjugate(power_of_two_letter(r), cycle_monodromy((3,)))
        assert factor_cycle(conj) == (3,)
    assert conjugate(power_of_two_letter(100_010), cycle_monodromy((3,))) == (
        Sl2Matrix(-10002000097, 10002100109, -10001900089, 10002000100)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(2, 9), min_size=1, max_size=6).filter(lambda e: max(e) >= 3),
    st.integers(1, 10**6),
    st.lists(
        st.one_of(
            st.sampled_from(CONJUGATING_LETTERS),
            st.integers(2, 9).map(lambda n: Sl2Matrix(n, -1, 1, 0)),  # M(n)
            st.integers(1, 10**6).map(power_of_two_letter),
        ),
        max_size=6,
    ),
)
def test_factor_cycle_under_conjugation_by_long_runs_of_twos(entries, r, letters):
    # P includes M(2)^r, so the expansion may open with up to about 10^6
    # entries 2 before the period
    p = product(*letters[:2], power_of_two_letter(r), *letters[2:])
    conj = conjugate(p, cycle_monodromy(tuple(entries)))
    assert factor_cycle(conj) == least_rotation(tuple(entries))
