import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink.sl2z import (
    CycleWord,
    MonodromyClass,
    MonodromyType,
    NoFactorization,
    NotCuspClass,
    Sl2Matrix,
    classify,
    cycle_factor,
    cycle_monodromy,
    cyclic_equal,
    factor_cycle,
)

from helpers import cusp_words, cycle_product_oracle


def test_determinant_checked_at_construction():
    with pytest.raises(ValueError, match="determinant"):
        Sl2Matrix(1, 0, 0, 2)
    with pytest.raises(ValueError, match="determinant"):
        Sl2Matrix(0, 1, 1, 0)


def test_classify_fixed_cases():
    parabolic = classify(Sl2Matrix(1, 5, 0, 1))
    assert parabolic.kind is MonodromyType.PARABOLIC
    assert parabolic.trace == 2
    assert parabolic.is_elliptic_link and not parabolic.is_cusp_link

    elliptic = classify(Sl2Matrix(0, -1, 1, 0))
    assert elliptic.kind is MonodromyType.ELLIPTIC
    assert elliptic.trace == 0
    assert not elliptic.is_cusp_link and not elliptic.is_elliptic_link

    hyperbolic = classify(Sl2Matrix(5, -2, 3, -1))
    assert hyperbolic.kind is MonodromyType.HYPERBOLIC
    assert hyperbolic.trace == 4
    assert hyperbolic.is_cusp_link and not hyperbolic.is_elliptic_link


def test_monodromy_class_kind_follows_the_trace():
    assert MonodromyClass(3).kind is MonodromyType.HYPERBOLIC
    assert MonodromyClass(-2).kind is MonodromyType.PARABOLIC
    assert MonodromyClass(1).kind is MonodromyType.ELLIPTIC
    with pytest.raises(TypeError):  # the kind is not a parameter
        MonodromyClass(MonodromyType.PARABOLIC, 2)


def test_classify_negative_trace_is_not_cusp():
    m = Sl2Matrix(-5, 2, -3, 1)
    cls = classify(m)
    assert cls.kind is MonodromyType.HYPERBOLIC
    assert not cls.is_cusp_link


def test_cycle_word_validation():
    assert CycleWord((3,)).entries == (3,)
    assert CycleWord((2, 3)).entries == (2, 3)
    for bad in [(), (2,), (1, 5), (2, 2), (2, 2, 2, 2)]:
        with pytest.raises(ValueError):
            CycleWord(bad)


def test_cycle_word_entries_must_be_integers():
    with pytest.raises(TypeError):
        CycleWord((3.7, 2))


def test_matrix_rows_must_be_integers():
    with pytest.raises(TypeError):
        Sl2Matrix.from_rows(((1.9, 0), (0, 1)))


def test_single_factor_is_the_generator():
    assert cycle_monodromy(CycleWord((3,))) == cycle_factor(3) == Sl2Matrix(3, -1, 1, 0)


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
    assert cycle_monodromy(CycleWord(entries)).rows() == expected


def test_cycle_monodromy_trace_example():
    assert cycle_monodromy(CycleWord((2, 2, 3))).trace == 5


def test_cycle_monodromy_matches_oracle_everywhere():
    for word in cusp_words(5, 6):
        oracle = cycle_product_oracle(word.entries)
        assert cycle_monodromy(word).rows() == tuple(map(tuple, oracle))


def test_determinant_and_trace_over_suite():
    for word in cusp_words(5, 6):
        m = cycle_monodromy(word)
        assert m.a * m.d - m.b * m.c == 1
        assert m.trace >= 3


def test_trace_invariant_under_rotation():
    for word in cusp_words(4, 5):
        base = cycle_monodromy(word).trace
        for rot in word.rotations():
            assert cycle_monodromy(CycleWord(rot)).trace == base


def test_cyclic_equal():
    assert cyclic_equal(CycleWord((2, 2, 3)), CycleWord((2, 3, 2)))
    assert cyclic_equal(CycleWord((2, 3)), CycleWord((3, 2)))
    assert not cyclic_equal(CycleWord((2, 2, 3)), CycleWord((2, 3, 3)))
    assert not cyclic_equal(CycleWord((3,)), CycleWord((3, 3)))


cycle_words = (
    st.lists(st.integers(2, 4), min_size=1, max_size=12)
    .filter(lambda e: max(e) >= 3)
    .map(CycleWord)
)


@settings(max_examples=300)
@given(cycle_words, st.integers(0, 11))
def test_least_rotation_matches_brute_force(word, shift):
    assert word.least_rotation() == CycleWord(min(word.rotations()))
    rotated = CycleWord(word.rotations()[shift % len(word)])
    assert cyclic_equal(word, rotated) and cyclic_equal(rotated, word)


@settings(max_examples=300)
@given(cycle_words, cycle_words)
def test_cyclic_equal_matches_brute_force(w1, w2):
    assert cyclic_equal(w1, w2) == (len(w1) == len(w2) and w2.entries in w1.rotations())


def test_factor_cycle_long_period_in_linear_memory():
    # 19,999 entries 2 and one 3: rotations() alone would hold about 400 M entries
    tracemalloc.start()
    try:
        word = factor_cycle(Sl2Matrix(20002, 1, -1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert word == CycleWord((2,) * 19999 + (3,))
    assert peak < 20 * 2**20


def test_factor_cycle_refuses_periods_over_the_limit():
    with pytest.raises(NoFactorization, match="exceeds the limit of 100,000 entries"):
        factor_cycle(Sl2Matrix(10_000_000_000, 1, -1, 0))


def test_factor_cycle_fixed_cases():
    assert factor_cycle(Sl2Matrix(3, -1, 1, 0)) == CycleWord((3,))
    assert factor_cycle(Sl2Matrix(5, -2, 3, -1)) == CycleWord((2, 3))
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(1, 1, 0, 1))
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(0, -1, 1, 0))
    with pytest.raises(NotCuspClass):
        factor_cycle(Sl2Matrix(-5, 2, -3, 1))


def test_factor_cycle_output_is_least_rotation():
    m = cycle_monodromy(CycleWord((3, 2)))
    assert factor_cycle(m) == CycleWord((2, 3))


def test_factor_cycle_roundtrip_over_suite():
    for word in cusp_words(5, 6):
        recovered = factor_cycle(cycle_monodromy(word))
        assert cyclic_equal(recovered, word), (word, recovered)
        assert recovered == word.least_rotation()


def test_factor_cycle_power_of_primitive():
    m = cycle_monodromy(CycleWord((2, 3)))
    assert factor_cycle(m * m) == CycleWord((2, 3, 2, 3))
    cube = m * m * m
    assert factor_cycle(cube) == CycleWord((2, 3, 2, 3, 2, 3))


def test_factor_cycle_conjugation_invariant():
    t = Sl2Matrix(1, 1, 0, 1)
    s = Sl2Matrix(0, -1, 1, 0)
    conjugators = [t, s, t * s, s * t * t, t * t * s * t]
    for entries in [(3,), (2, 3), (2, 2, 3), (4, 5), (3, 2, 4, 2)]:
        word = CycleWord(entries)
        a = cycle_monodromy(word)
        for p in conjugators:
            conj = p * a * p.inverse()
            assert cyclic_equal(factor_cycle(conj), word), (entries, p)


CONJUGATING_LETTERS = (Sl2Matrix(0, -1, 1, 0), Sl2Matrix(1, 1, 0, 1), Sl2Matrix(1, -1, 0, 1))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=8).filter(lambda e: max(e) >= 3),
    st.lists(st.sampled_from(CONJUGATING_LETTERS), max_size=8),
)
def test_factor_cycle_roundtrips_under_random_conjugation(entries, letters):
    # P is a product of up to 8 letters S, T, T^-1
    word = CycleWord(entries)
    p = Sl2Matrix.identity()
    for letter in letters:
        p = p * letter
    conjugate = p * Sl2Matrix.from_rows(cycle_product_oracle(entries)) * p.inverse()
    assert cyclic_equal(factor_cycle(conjugate), word)


def test_matrix_inverse_and_identity():
    m = Sl2Matrix(5, -2, 3, -1)
    assert m * m.inverse() == Sl2Matrix.identity()
    assert Sl2Matrix.from_rows(m.rows()) == m
